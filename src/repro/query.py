"""Pattern queries over graph databases.

Mining answers "which patterns are frequent?"; the complementary question
— "where exactly does *this* pattern occur?" — comes up whenever mined
patterns are put to work (flagging compounds with a toxic fragment,
locating the region snapshots matching a traffic motif, ...).  This module
answers it:

* :func:`match` — every occurrence of one pattern across a database;
* :func:`match_patterns` — a mined :class:`PatternSet` re-located over a
  (possibly different) database, e.g. applying last month's patterns to
  this month's snapshots;
* :func:`coverage` — how much of a database a pattern set explains.

Both monomorphism (mining) and induced (AGM) semantics are supported.

:func:`match` enumerates occurrences with the reference matcher and is
the oracle the tests check everything else against.
:func:`match_patterns` — and :func:`coverage` on top of it — only asks
which graphs contain each pattern, through the same
:class:`~repro.core.join.SupportCounter` merge-join counts with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core.join import SupportCounter
from .graph.database import GraphDatabase
from .graph.isomorphism import find_embeddings
from .graph.labeled_graph import LabeledGraph
from .mining.base import Pattern, PatternSet


@dataclass(frozen=True)
class Occurrence:
    """One embedding of a pattern in one database graph."""

    gid: int
    mapping: tuple[tuple[int, int], ...]  # (pattern vertex, graph vertex)


@dataclass
class MatchResult:
    """All occurrences of one pattern across a database."""

    pattern: LabeledGraph
    occurrences: list[Occurrence] = field(default_factory=list)

    @property
    def supporting_gids(self) -> set[int]:
        """Gids of graphs with at least one occurrence."""
        return {occurrence.gid for occurrence in self.occurrences}

    @property
    def support(self) -> int:
        """Number of supporting graphs (not occurrences)."""
        return len(self.supporting_gids)

    def per_graph(self) -> dict[int, int]:
        """Occurrence count per supporting graph."""
        counts: dict[int, int] = {}
        for occurrence in self.occurrences:
            counts[occurrence.gid] = counts.get(occurrence.gid, 0) + 1
        return counts


def match(
    pattern: LabeledGraph,
    database: GraphDatabase,
    induced: bool = False,
    max_occurrences_per_graph: int | None = None,
) -> MatchResult:
    """Find every occurrence of ``pattern`` in ``database``.

    ``max_occurrences_per_graph`` caps enumeration per graph (the support
    and supporting gids stay exact; only the occurrence list is truncated).
    """
    result = MatchResult(pattern=pattern)
    for gid, graph in database:
        for phi in find_embeddings(
            pattern,
            graph,
            limit=max_occurrences_per_graph,
            induced=induced,
        ):
            result.occurrences.append(
                Occurrence(gid=gid, mapping=tuple(sorted(phi.items())))
            )
    return result


def match_patterns(
    patterns: PatternSet,
    database: GraphDatabase,
    induced: bool = False,
    min_support: float | int | None = None,
) -> PatternSet:
    """Re-locate a pattern set over ``database``.

    Returns a new :class:`PatternSet` whose supports and TID lists are
    measured against ``database`` (the input set's supports refer to
    whatever database it was mined from).  Patterns falling below
    ``min_support`` (when given) are dropped; without it every pattern
    is kept, zero-support ones included.

    This is the one relocation routine: every pattern is counted by one
    :class:`~repro.core.join.SupportCounter` over ``database`` — the
    edge-triple filter, then the kernel or the reference matcher as
    :func:`repro.perf.enabled` picks.  With a threshold the scan of a
    pattern stops once it provably misses; kept patterns always carry
    complete TID lists.
    """
    threshold = (
        database.absolute_support(min_support)
        if min_support is not None
        else 0
    )
    counter = SupportCounter(database)
    relocated = PatternSet()
    for pattern in patterns:
        support, tids = counter.count(
            pattern.graph, key=pattern.key, minsup=threshold, induced=induced
        )
        if support >= threshold:
            relocated.add(
                Pattern(
                    graph=pattern.graph,
                    key=pattern.key,
                    support=support,
                    tids=tids,
                )
            )
    return relocated


def coverage(
    patterns: PatternSet,
    database: GraphDatabase,
    induced: bool = False,
) -> tuple[float, set[int]]:
    """Fraction (and set) of graphs containing at least one pattern."""
    covered: set[int] = set()
    for pattern in match_patterns(patterns, database, induced=induced):
        covered |= pattern.tids
    if not len(database):
        return 0.0, covered
    return len(covered) / len(database), covered
