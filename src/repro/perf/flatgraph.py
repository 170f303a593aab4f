"""Flat-array (CSR) graph compilation for the hot matching loops.

``LabeledGraph`` stores adjacency as a list of per-vertex dicts — ideal
for mutation, terrible for the inner loop of an existence search: every
neighbor step is a dict iteration over boxed label objects.  This module
compiles a graph **once per version** into four parallel ``array('i')``
buffers:

* ``vlab[v]``      — interned vertex-label id of vertex ``v``;
* ``indptr[v]``    — CSR row pointer (``indptr[v] .. indptr[v+1]`` is the
  neighbor run of ``v``);
* ``nbr[k]``       — neighbor vertex id;
* ``elab[k]``      — interned edge-label id, parallel to ``nbr``.

Each neighbor run is sorted by ``(edge-label id, neighbor id)``, so the
matcher (:mod:`repro.perf.batchscan`) locates the sub-run of one edge
label with one probe of the precomputed ``runs`` table and answers "is
``(v, w)`` an edge with label ``l``?" with a bisect inside it — no label
objects, no tuples, ints only.

Labels are interned through one process-global :class:`LabelInterner`:
ids are stable for the lifetime of the process, so a pattern compiled to
flat form (:class:`repro.perf.fastmatch.FlatPlan`) is valid against every
flat graph in the process, across merge levels and update batches.

:class:`FlatDB` is the per-database bundle, weakly cached on the
:class:`~repro.graph.database.GraphDatabase` instance and validated
against each member graph's ``version`` counter — mutated or replaced
graphs are recompiled (alone: every still-current graph's arrays are
carried into the refreshed FlatDB).  :func:`get_flat_graph` is the
same cache for one free-standing graph (single-pair existence checks).

Flat forms are a per-process cache, never a wire format: unit workers
receive the ``(gid, graph)`` list they mine (:mod:`repro.runtime.engine`).
"""

from __future__ import annotations

import weakref
from array import array

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import Label, LabeledGraph
from .counters import COUNTERS

#: Cap on live plans per FlatDB scan memo (see :class:`FlatDB`).
ADMIT_MEMO_PLANS = 512


# ----------------------------------------------------------------------
# Label interning
# ----------------------------------------------------------------------
class LabelInterner:
    """Append-only label -> dense int id mapping (process-global).

    Ids never change once assigned, so compiled artifacts referencing
    them (flat graphs, flat plans) stay valid as the table grows.
    """

    __slots__ = ("labels", "ids")

    def __init__(self) -> None:
        self.labels: list[Label] = []
        self.ids: dict[Label, int] = {}

    def intern(self, label: Label) -> int:
        """The id of ``label``, assigning the next id on first sight."""
        lid = self.ids.get(label)
        if lid is None:
            lid = len(self.labels)
            self.ids[label] = lid
            self.labels.append(label)
        return lid

    def lookup(self, label: Label) -> int | None:
        """The id of ``label`` if it has ever been interned, else None."""
        return self.ids.get(label)

    def __len__(self) -> int:
        return len(self.labels)


#: The process-wide interner every flat compilation goes through.
INTERNER = LabelInterner()


# ----------------------------------------------------------------------
# One compiled graph
# ----------------------------------------------------------------------
class FlatGraph:
    """CSR form of one :class:`LabeledGraph` (see module docstring)."""

    __slots__ = (
        "n",
        "m",
        "vlab",
        "indptr",
        "nbr",
        "elab",
        "by_label",
        "ehist",
        "deg_by_label",
        "runs",
        "deg",
    )

    def __init__(self, n, m, vlab, indptr, nbr, elab) -> None:
        self.n = n
        self.m = m
        self.vlab = vlab
        self.indptr = indptr
        self.nbr = nbr
        self.elab = elab
        by_label: dict[int, array] = {}
        for v in range(n):
            by_label.setdefault(vlab[v], array("i")).append(v)
        self.by_label = by_label
        # Integer-space invariants for the admit prefilter
        # (:func:`repro.perf.fastmatch.flat_admits`): the edge-label
        # histogram (counts include both directions) and, per vertex
        # label, the descending degree sequence — whose length doubles
        # as the vertex-label count.
        ehist: dict[int, int] = {}
        for lid in elab:
            ehist[lid] = ehist.get(lid, 0) + 1
        self.ehist = ehist
        # Degrees, materialized once: the matchers' candidate loops read
        # them with one index instead of two row-pointer reads + a
        # subtraction per candidate.
        deg = array("i", (indptr[v + 1] - indptr[v] for v in range(n)))
        self.deg = deg
        self.deg_by_label = {
            lid: tuple(sorted((deg[v] for v in vs), reverse=True))
            for lid, vs in by_label.items()
        }
        # Per-(vertex, edge-label id) sub-run boundaries, keyed by the
        # packed int ``(v << 32) | lid`` (int hashing is free; a tuple
        # key would cost an allocation per probe).  Rows are sorted by
        # (edge-label id, neighbor id), so each label's run is
        # contiguous — the matchers locate an anchor's candidate run
        # with one dict probe instead of two bisects, and a missing key
        # is a guaranteed non-edge.
        runs: dict[int, tuple[int, int]] = {}
        k = 0
        for v in range(n):
            hi = indptr[v + 1]
            base = v << 32
            while k < hi:
                lab = elab[k]
                start = k
                k += 1
                while k < hi and elab[k] == lab:
                    k += 1
                runs[base | lab] = (start, k)
        self.runs = runs

    @classmethod
    def from_labeled(
        cls, graph: LabeledGraph, interner: LabelInterner = INTERNER
    ) -> "FlatGraph":
        n = graph.num_vertices
        intern = interner.intern
        vlab = array("i", (intern(graph.vertex_label(v)) for v in range(n)))
        indptr = array("i", [0])
        nbr = array("i")
        elab = array("i")
        for v in range(n):
            run = [(intern(el), w) for w, el in graph.neighbors(v)]
            run.sort()
            for el_id, w in run:
                nbr.append(w)
                elab.append(el_id)
            indptr.append(len(nbr))
        return cls(n, graph.num_edges, vlab, indptr, nbr, elab)

    def degree(self, v: int) -> int:
        return self.indptr[v + 1] - self.indptr[v]


# One flat form per live graph instance, weakly keyed so dead graphs
# (replaced pieces, temporary candidates) free their entries, and stamped
# with the graph's version so in-place mutation invalidates.
_FLAT_GRAPHS: "weakref.WeakKeyDictionary[LabeledGraph, tuple]"
_FLAT_GRAPHS = weakref.WeakKeyDictionary()


def get_flat_graph(graph: LabeledGraph) -> FlatGraph:
    """The (cached) flat form of ``graph`` at its current version."""
    entry = _FLAT_GRAPHS.get(graph)
    if entry is not None and entry[0] == graph.version:
        return entry[1]
    flat = FlatGraph.from_labeled(graph)
    _FLAT_GRAPHS[graph] = (graph.version, flat)
    return flat


def _edge_triples(flat: FlatGraph, oriented: dict) -> set:
    """The edge label triples of one compiled graph, smaller vertex label
    first; ``oriented`` memoizes id triple -> label triple across calls."""
    labels = INTERNER.labels
    vlab, indptr = flat.vlab, flat.indptr
    nbr, elab = flat.nbr, flat.elab
    triples = set()
    for v in range(flat.n):
        lv = vlab[v]
        for k in range(indptr[v], indptr[v + 1]):
            if v < nbr[k]:  # each edge once, from its lower end
                ids = (lv, elab[k], vlab[nbr[k]])
                triple = oriented.get(ids)
                if triple is None:
                    lu, le, lw = (labels[i] for i in ids)
                    if (lw, lu) < (lu, lw):
                        lu, lw = lw, lu
                    triple = oriented[ids] = (lu, le, lw)
                triples.add(triple)
    return triples


# ----------------------------------------------------------------------
# One compiled database
# ----------------------------------------------------------------------
class FlatDB:
    """The flat forms of every graph in one database, validated by version.

    ``flats`` maps gid -> :class:`FlatGraph`.  A FlatDB compiled from a
    live database records ``(weakref(graph), version)`` stamps so
    :func:`get_flat_db` can detect mutation or replacement.

    ``scan_memo`` caches whole full-database admit passes (plan ->
    admitted pair list) for the batched scan kernel.  Both sides of an
    admit are immutable (a mutated pattern or database compiles anew),
    so entries never go stale; they are weakly keyed by plan and dropped
    wholesale at :data:`ADMIT_MEMO_PLANS` live plans, so pattern churn
    cannot make them accumulate.
    """

    __slots__ = ("gids", "flats", "scan_memo", "_stamps", "_triple_index")

    def __init__(self, gids, flats, stamps=None) -> None:
        self.gids = gids
        self.flats = flats
        self.scan_memo: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._stamps = stamps
        self._triple_index = None

    @classmethod
    def compile(cls, database: GraphDatabase) -> "FlatDB":
        gids = []
        flats = {}
        # Store-backed databases (repro.storage) evict and re-decode
        # graphs at will, so identity/version stamps would invalidate on
        # every cache turnover and recompile the world.  They provide a
        # persisted state token instead: one comparison validates the
        # whole FlatDB without touching (= decoding) a single graph.
        token = (
            database.state_token()
            if hasattr(database, "state_token")
            else None
        )
        # Instance stamps are taken in the compile loop itself: the
        # database is iterated exactly once.
        stamps = [] if token is None else ("token", token)
        for gid, graph in database:
            gids.append(gid)
            flats[gid] = FlatGraph.from_labeled(graph)
            if token is None:
                stamps.append((gid, weakref.ref(graph), graph.version))
        COUNTERS.inc("flat_db_compiles")
        return cls(gids, flats, stamps)

    def stale_gids(self, database: GraphDatabase) -> list[int] | None:
        """Gids whose compiled graph is no longer the database's graph;
        ``None`` when only a full compile will do (no stamps, a different
        gid set, a moved state token).

        Reads the database's gid map directly — this runs once per
        :func:`count_support` call, so the per-stamp cost (one dict get,
        one weakref deref, one attribute read) matters.  Token-stamped
        FlatDBs (store-backed databases) compare one persisted counter
        instead.
        """
        stamps = self._stamps
        if stamps is None:
            return None
        if type(stamps) is tuple and stamps[0] == "token":
            if not hasattr(database, "state_token"):
                return None
            return [] if database.state_token() == stamps[1] else None
        graphs = database._graphs
        if len(stamps) != len(graphs):
            return None
        stale = []
        for gid, ref, version in stamps:
            graph = graphs.get(gid)
            if graph is None:
                return None
            if ref() is not graph or graph.version != version:
                stale.append(gid)
        return stale

    def refreshed(self, database: GraphDatabase, stale: list[int]) -> "FlatDB":
        """This compilation with the ``stale`` graphs recompiled; the rest
        is shared with ``self``, so replacing |U| graphs of a dataset costs
        |U| graph compiles and a triple-index patch, not a pass over it."""
        flats = dict(self.flats)
        fresh = {gid: FlatGraph.from_labeled(database[gid]) for gid in stale}
        flats.update(fresh)
        stamps = [
            (gid, weakref.ref(database[gid]), database[gid].version)
            if gid in fresh else (gid, ref, version)
            for gid, ref, version in self._stamps
        ]
        COUNTERS.inc("flat_graph_recompiles", len(stale))
        flat = FlatDB(self.gids, flats, stamps)
        if self._triple_index is not None:
            # Copy-on-write: untouched triples keep sharing their gid sets.
            index = dict(self._triple_index)
            oriented: dict = {}
            for gid, graph in fresh.items():
                for triple in _edge_triples(self.flats[gid], oriented):
                    index[triple] = index[triple] - {gid}
                for triple in _edge_triples(graph, oriented):
                    index[triple] = index.get(triple, set()) | {gid}
            index = {triple: gids for triple, gids in index.items() if gids}
            flat._triple_index = index
        return flat

    def get(self, gid: int) -> FlatGraph | None:
        return self.flats.get(gid)

    def edge_triple_index(self) -> dict[tuple[Label, Label, Label], set[int]]:
        """Each edge label triple -> the gids of the graphs carrying it.

        Read off the compiled arrays, so the database is not iterated
        again; triples are oriented smaller vertex label first, which
        makes the result equal to
        :func:`repro.mining.edges.edge_triple_index` over the database
        this was compiled from.  Built on first use and kept — a FlatDB
        is immutable — so callers share it and must not modify it.
        """
        index = self._triple_index
        if index is not None:
            return index
        index = {}
        oriented: dict = {}
        for gid in self.gids:
            for triple in _edge_triples(self.flats[gid], oriented):
                index.setdefault(triple, set()).add(gid)
        self._triple_index = index
        return index


# ----------------------------------------------------------------------
# Per-database cache
# ----------------------------------------------------------------------
_FLAT_DBS: "weakref.WeakKeyDictionary[GraphDatabase, FlatDB]"
_FLAT_DBS = weakref.WeakKeyDictionary()


def get_flat_db(database: GraphDatabase) -> FlatDB:
    """The (cached) flat compilation of ``database`` at current versions."""
    flat = _FLAT_DBS.get(database)
    stale = flat.stale_gids(database) if flat is not None else None
    if stale is None:
        flat = FlatDB.compile(database)
    elif stale:
        flat = flat.refreshed(database, stale)
    else:
        COUNTERS.inc("flat_db_hits")
        return flat
    _FLAT_DBS[database] = flat
    return flat
