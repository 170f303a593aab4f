"""ADIMINE: gSpan-style mining on top of the disk-resident ADI index.

This is the reproduction's stand-in for the ADIMINE executable the paper's
authors obtained from Wang et al. [15].  It preserves the two properties the
paper's comparisons rest on:

* mining reads graph data through the ADI structure's pages (buffered by an
  LRU cache), so the database never needs to be memory-resident, and
* the index covers the **whole** database — any update batch invalidates it,
  so dynamic workloads pay a full rebuild plus a full re-mine
  (:meth:`ADIMiner.mine_updated`), which is what IncPartMiner avoids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...graph.database import GraphDatabase
from ...graph.labeled_graph import LabeledGraph
from ..base import PatternSet
from ..gspan import GSpanMiner
from .index import ADIIndex
from .storage import BlockStorage


class _IndexBackedDatabase:
    """Adapter exposing an :class:`ADIIndex` through the database protocol.

    Graph fetches go through the index pages; a small decode memo bounded by
    ``memo_graphs`` mimics a buffer of deserialized graphs (the miner hits
    the same gid many times in one projection pass).
    """

    def __init__(self, index: ADIIndex, memo_graphs: int = 32) -> None:
        self._index = index
        self._memo: dict[int, LabeledGraph] = {}
        self._memo_capacity = memo_graphs
        self.fetches = 0

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self):
        for gid in self._index.gids():
            yield gid, self[gid]

    def __getitem__(self, gid: int) -> LabeledGraph:
        graph = self._memo.get(gid)
        if graph is None:
            graph = self._index.fetch_graph(gid)
            self.fetches += 1
            if len(self._memo) >= self._memo_capacity:
                self._memo.pop(next(iter(self._memo)))
            self._memo[gid] = graph
        return graph

    # The one threshold rule; it reads nothing of the database but len().
    absolute_support = GraphDatabase.absolute_support


@dataclass
class ADIMineStats:
    """Work counters of one ADIMINE run."""

    index_builds: int = 0
    graph_fetches: int = 0
    page_reads: int = 0
    cache_hits: int = 0
    patterns_found: int = 0
    extras: dict = field(default_factory=dict)


class ADIMiner:
    """Disk-based frequent subgraph miner over the ADI structure.

    Parameters
    ----------
    page_size / cache_pages:
        Storage geometry of the backing :class:`BlockStorage`.
    max_size:
        Optional bound on pattern size, forwarded to the search.
    """

    def __init__(
        self,
        page_size: int = 4096,
        cache_pages: int = 64,
        max_size: int | None = None,
        read_delay: float = 0.0,
    ) -> None:
        self.storage = BlockStorage(
            page_size=page_size,
            cache_pages=cache_pages,
            read_delay=read_delay,
        )
        self.index = ADIIndex(self.storage)
        self.max_size = max_size
        self.stats = ADIMineStats()

    # ------------------------------------------------------------------
    def mine(
        self, database: GraphDatabase, min_support: float | int
    ) -> PatternSet:
        """Build the ADI index for ``database`` and mine it.

        The index is rebuilt whenever it is stale (first call, or after
        :meth:`notify_update`).
        """
        if not self.index.built:
            self.index.build(database)
            self.stats.index_builds += 1
        view = _IndexBackedDatabase(self.index)
        search = GSpanMiner(max_size=self.max_size)
        result = search.mine(view, min_support)
        self.stats.graph_fetches += view.fetches
        self.stats.page_reads = self.storage.stats.page_reads
        self.stats.cache_hits = self.storage.stats.cache_hits
        self.stats.patterns_found = len(result)
        return result

    def notify_update(self) -> None:
        """Invalidate the index: the underlying database changed."""
        self.index.invalidate()

    def mine_updated(
        self, updated_database: GraphDatabase, min_support: float | int
    ) -> PatternSet:
        """Handle an update batch the only way ADIMINE can: rebuild + remine."""
        self.notify_update()
        return self.mine(updated_database, min_support)

    def close(self) -> None:
        self.storage.close()

    def __enter__(self) -> "ADIMiner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
