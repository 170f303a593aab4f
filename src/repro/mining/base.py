"""Shared mining abstractions: patterns, pattern sets, the miner protocol.

Every miner in this library returns a :class:`PatternSet` — a collection of
frequent connected subgraph patterns keyed by their canonical minimum DFS
code, each carrying its support count and the set of supporting graph ids
(TID list).  TID lists are what lets the merge-join (paper Fig 11) seed
support counting cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Protocol

from ..graph.canonical import CodeKey, canonical_code
from ..graph.database import GraphDatabase
from ..graph.labeled_graph import LabeledGraph

PatternKey = tuple[CodeKey, ...]


@dataclass
class Pattern:
    """A frequent pattern: a connected labeled graph with support data."""

    graph: LabeledGraph
    key: PatternKey
    support: int
    tids: frozenset[int]

    @property
    def size(self) -> int:
        """Number of edges (the paper's notion of pattern size)."""
        return self.graph.num_edges

    @classmethod
    def from_graph(
        cls, graph: LabeledGraph, tids: Iterable[int]
    ) -> "Pattern":
        tid_set = frozenset(tids)
        return cls(
            graph=graph,
            key=canonical_code(graph),
            support=len(tid_set),
            tids=tid_set,
        )

    def __repr__(self) -> str:
        return f"Pattern(size={self.size}, support={self.support})"


class PatternSet:
    """A set of patterns indexed by canonical key and by size.

    Adding a pattern whose key is already present keeps the entry with the
    larger TID list (supports merging partial results from units).
    """

    def __init__(self, patterns: Iterable[Pattern] = ()) -> None:
        self._by_key: dict[PatternKey, Pattern] = {}
        for pattern in patterns:
            self.add(pattern)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, pattern: Pattern) -> None:
        existing = self._by_key.get(pattern.key)
        if existing is None or len(pattern.tids) > len(existing.tids):
            self._by_key[pattern.key] = pattern

    def add_union(self, pattern: Pattern) -> None:
        """Add ``pattern``, unioning TID lists if the key already exists."""
        existing = self._by_key.get(pattern.key)
        if existing is None:
            self._by_key[pattern.key] = pattern
            return
        tids = existing.tids | pattern.tids
        self._by_key[pattern.key] = Pattern(
            graph=existing.graph,
            key=existing.key,
            support=len(tids),
            tids=tids,
        )

    def remove(self, key: PatternKey) -> None:
        self._by_key.pop(key, None)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, key: PatternKey) -> bool:
        return key in self._by_key

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._by_key.values())

    def get(self, key: PatternKey) -> Pattern | None:
        return self._by_key.get(key)

    def keys(self) -> set[PatternKey]:
        return set(self._by_key)

    def of_size(self, size: int) -> list[Pattern]:
        """Patterns with exactly ``size`` edges (``P^k`` in the paper)."""
        return [p for p in self._by_key.values() if p.size == size]

    def max_size(self) -> int:
        """Largest pattern size present (0 for an empty set)."""
        return max((p.size for p in self._by_key.values()), default=0)

    def filter_support(self, min_support: int) -> "PatternSet":
        """Patterns whose support meets ``min_support``."""
        return PatternSet(
            p for p in self._by_key.values() if p.support >= min_support
        )

    def union(self, other: "PatternSet") -> "PatternSet":
        """Key-union of two pattern sets (TID lists unioned on collision)."""
        result = PatternSet(self)
        for pattern in other:
            result.add_union(pattern)
        return result

    def difference_keys(self, other: "PatternSet") -> set[PatternKey]:
        """Keys present here but not in ``other``."""
        return self.keys() - other.keys()

    def __repr__(self) -> str:
        return f"PatternSet(patterns={len(self._by_key)})"


@dataclass
class MiningStats:
    """Counters describing one mining run (for benchmarks and tests)."""

    patterns_found: int = 0
    #: Candidates whose support was looked at.  What a candidate is
    #: depends on the miner; for Gaston it is an extension group over
    #: frequent edges (an infrequent edge never forms a group).
    candidates_generated: int = 0
    isomorphism_tests: int = 0
    duplicate_codes_pruned: int = 0
    extras: dict = field(default_factory=dict)

    def prune_attrs(self) -> dict:
        """The prune-attribution attributes of a unit-mining trace span.

        ``infrequent_edges`` is the number of database edges the miner's
        frequent-triple filter dropped (0 for a miner without one).
        """
        return {
            "candidates": self.candidates_generated,
            "duplicates_pruned": self.duplicate_codes_pruned,
            "infrequent_edges": self.extras.get("infrequent_edges", 0),
        }


class Miner(Protocol):
    """Protocol implemented by every frequent subgraph miner."""

    def mine(
        self, database: GraphDatabase, min_support: float | int
    ) -> PatternSet:
        """Mine all frequent connected subgraph patterns of ``database``.

        ``min_support`` is either an absolute count (int / float >= 1) or a
        fraction of the database size (float in (0, 1]).
        """
        ...


def mine_unit(
    factory: Callable[[], Miner],
    database: GraphDatabase,
    threshold: int,
    max_size: int | None,
) -> tuple[PatternSet, dict]:
    """Mine one partition unit with a fresh miner.

    The miner comes from ``factory`` and is capped at ``max_size`` edges
    when it takes a cap.  Returns the patterns and the miner's
    :meth:`MiningStats.prune_attrs` (empty for a miner that keeps other
    counters, as FSG and ADIMINE do).
    """
    miner = factory()
    if max_size is not None and hasattr(miner, "max_size"):
        miner.max_size = max_size
    patterns = miner.mine(database, threshold)
    stats = getattr(miner, "stats", None)
    return patterns, (
        stats.prune_attrs() if isinstance(stats, MiningStats) else {}
    )
