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

Shared memory
-------------
:meth:`FlatSegment.publish` serializes a :class:`FlatDB` into a
``multiprocessing.shared_memory`` segment so runtime workers *map* the
level database instead of receiving a pickled graph list per attempt.
The wire format is self-describing and integrity-checked (sha256 over
the whole blob), and :func:`attach_segment` rebuilds a read-only
:class:`FlatDB` whose arrays are zero-copy ``memoryview`` slices of the
segment whenever the child's interner agrees with the publisher's id
assignment (it always does for fresh worker processes — the meta block
carries the label table, which the child interns in publisher order).

``perf.shm_attach`` is a registered fault site: the chaos suite injects
attach failures and byte corruptions there; corruption is detected by
the digest and surfaces as
:class:`~repro.resilience.errors.ArtifactCorrupt`, which the runtime
treats as "fall back to pickled payloads".

The parent process owns every published segment: ``run_unit_mining``
destroys them in a ``finally`` block, and a module ``atexit`` hook
destroys anything left so a crashed parent cannot litter ``/dev/shm``.
"""

from __future__ import annotations

import atexit
import hashlib
import pickle
import weakref
from array import array

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import Label, LabeledGraph
from ..resilience import faults
from ..resilience.errors import ArtifactCorrupt
from .counters import COUNTERS

SITE_SHM_ATTACH = faults.register_site(
    "perf.shm_attach", "mapping a shared-memory flat-database segment"
)

_MAGIC = b"RFLATDB1"
_HEADER = len(_MAGIC) + 8 + 32 + 8  # magic + blob_len + sha256 + meta_len

#: Cap on live plans per FlatDB admit/scan memo (see :class:`FlatDB`).
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
    """CSR form of one :class:`LabeledGraph` (see module docstring).

    The four buffers are ``array('i')`` for locally-compiled graphs and
    ``memoryview('i')`` slices for graphs attached from shared memory;
    the matcher indexes and bisects both identically.
    """

    __slots__ = (
        "n",
        "m",
        "vlab",
        "indptr",
        "nbr",
        "elab",
        "anbr",
        "aelab",
        "by_label",
        "ehist",
        "deg_by_label",
        "runs",
        "deg",
    )

    def __init__(self, n, m, vlab, indptr, nbr, elab, anbr=None, aelab=None) -> None:
        self.n = n
        self.m = m
        self.vlab = vlab
        self.indptr = indptr
        self.nbr = nbr
        self.elab = elab
        # Original adjacency-row order (pre-sort), sharing ``indptr``.
        # The matcher never reads these; :meth:`to_labeled` replays them
        # so a worker-side rebuild iterates neighbors in exactly the
        # source graph's order — mining output stays byte-identical
        # whether the database arrived pickled or via shared memory.
        self.anbr = anbr
        self.aelab = aelab
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
        anbr = array("i")
        aelab = array("i")
        for v in range(n):
            run = []
            for w, el in graph.neighbors(v):
                el_id = intern(el)
                anbr.append(w)
                aelab.append(el_id)
                run.append((el_id, w))
            run.sort()
            for el_id, w in run:
                nbr.append(w)
                elab.append(el_id)
            indptr.append(len(nbr))
        return cls(n, graph.num_edges, vlab, indptr, nbr, elab, anbr, aelab)

    def to_labeled(self, interner: LabelInterner = INTERNER) -> LabeledGraph:
        """Reconstruct an *exact* :class:`LabeledGraph`.

        Vertex ids and labels are preserved, and — when the original
        adjacency order was captured (always, for graphs compiled by
        :meth:`from_labeled` or parsed from a segment) — each adjacency
        row is rebuilt in the source graph's dict insertion order, so
        ``neighbors()`` iterates identically on both sides.  Without it
        (hand-built FlatGraphs) rows come back in CSR-sorted order.
        """
        labels = interner.labels
        graph = LabeledGraph()
        for v in range(self.n):
            graph.add_vertex(labels[self.vlab[v]])
        indptr = self.indptr
        anbr, aelab = self.anbr, self.aelab
        if anbr is not None:
            adj = graph._adj
            for v in range(self.n):
                row = adj[v]
                for k in range(indptr[v], indptr[v + 1]):
                    row[anbr[k]] = labels[aelab[k]]
            graph._num_edges = self.m
            graph.version += self.m
            return graph
        nbr, elab = self.nbr, self.elab
        for v in range(self.n):
            for k in range(indptr[v], indptr[v + 1]):
                w = nbr[k]
                if v < w:
                    graph.add_edge(v, w, labels[elab[k]])
        return graph

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
    :func:`get_flat_db` can detect mutation or replacement; a FlatDB
    attached from shared memory is immutable and carries no stamps.

    ``admit_memo`` caches :func:`repro.perf.fastmatch.flat_admits`
    verdicts per plan (plan -> gid -> reason) and ``scan_memo`` caches
    whole full-database admit passes (plan -> admitted pair list) for
    the batched scan kernel.  Both sides of an admit are immutable — a
    mutated pattern compiles to a *new* plan object and a mutated
    database compiles to a new FlatDB (version stamps) — so entries can
    never go *stale*; they could however *accumulate*: plans retired by
    pattern churn used to survive here forever, pinning their memos for
    the lifetime of the FlatDB.  Both memos are therefore weakly keyed
    (a dead plan's entries vanish with it) and capped at
    :data:`ADMIT_MEMO_PLANS` live plans (both memos are dropped
    wholesale at the cap — they are pure memoization, so correctness is
    unaffected), which bounds memory over long incremental runs.
    """

    __slots__ = (
        "gids", "flats", "admit_memo", "scan_memo", "_stamps", "_segment",
        "_triple_index",
    )

    def __init__(self, gids, flats, stamps=None, segment=None) -> None:
        self.gids = gids
        self.flats = flats
        self.admit_memo: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self.scan_memo: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._stamps = stamps
        self._segment = segment
        self._triple_index = None

    def plan_memo(self, plan) -> dict:
        """The per-gid admit memo of ``plan``, enforcing the plan cap."""
        memo = self.admit_memo.get(plan)
        if memo is None:
            if len(self.admit_memo) >= ADMIT_MEMO_PLANS:
                self.admit_memo.clear()
                self.scan_memo.clear()
            memo = self.admit_memo[plan] = {}
        return memo

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
        ``None`` when only a full compile will do (no stamps or a mapped
        segment, a different gid set, a moved state token).

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
        if stale and self._segment is not None:
            return None  # views into a mapped segment are not carried over
        return stale

    def valid_for(self, database: GraphDatabase) -> bool:
        """True while every compiled graph is still the database's graph."""
        return self.stale_gids(database) == []

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

    def to_database(self) -> GraphDatabase:
        """Materialize a :class:`GraphDatabase` (worker-side rebuild)."""
        return GraphDatabase(
            (gid, self.flats[gid].to_labeled()) for gid in self.gids
        )

    def adopt(self, database: GraphDatabase) -> None:
        """Register this FlatDB as ``database``'s flat compilation.

        For worker processes that rebuilt ``database`` from this very
        FlatDB (:meth:`to_database` over an attached shared-memory
        segment): version stamps are recorded against the rebuilt graph
        instances, so :func:`get_flat_db` serves the zero-copy segment
        views directly and the worker never recompiles CSR buffers it
        already has mapped.  The mapping must outlive the database —
        adopting ties their lifetimes together via the cache entry, and
        an atexit release unmaps in order (views first, then the
        mapping) so interpreter shutdown never tears them down with
        memoryviews still exported.
        """
        self._stamps = [
            (gid, weakref.ref(graph), graph.version)
            for gid, graph in database
        ]
        _FLAT_DBS[database] = self
        atexit.register(self.release)

    def release(self) -> None:
        """Drop the shared-memory mapping backing an attached FlatDB.

        The flat graphs are views into the mapping, so they — and the
        scan memo, which holds ``(gid, FlatGraph)`` pairs — are cleared
        first: ``close`` cannot unmap while exported pointers exist.
        The FlatDB is unusable afterwards.
        """
        segment = self._segment
        if segment is not None:
            self._segment = None
            self.flats = {}
            self.admit_memo.clear()
            self.scan_memo.clear()
            try:
                segment.close()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Serialization (shared-memory wire format)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Self-describing, digest-protected blob of the whole FlatDB."""
        meta = pickle.dumps(
            {
                "gids": list(self.gids),
                "labels": list(INTERNER.labels),
                "shapes": [
                    (self.flats[gid].n, self.flats[gid].m)
                    for gid in self.gids
                ],
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        pad = (-(_HEADER + len(meta))) % 4  # 4-align the int arrays
        chunks = [meta, b"\0" * pad]
        for gid in self.gids:
            fg = self.flats[gid]
            # anbr/aelab ride along so the attach side can rebuild exact
            # adjacency order; hand-built FlatGraphs without them fall
            # back to the (sorted) CSR rows.
            anbr = fg.anbr if fg.anbr is not None else fg.nbr
            aelab = fg.aelab if fg.aelab is not None else fg.elab
            chunks += [
                fg.vlab.tobytes(),
                fg.indptr.tobytes(),
                fg.nbr.tobytes(),
                fg.elab.tobytes(),
                anbr.tobytes(),
                aelab.tobytes(),
            ]
        body = b"".join(chunks)
        blob_len = _HEADER + len(body)
        digest = hashlib.sha256(body).digest()
        header = (
            _MAGIC
            + blob_len.to_bytes(8, "big")
            + digest
            + len(meta).to_bytes(8, "big")
        )
        return header + body


def _parse_blob(data) -> FlatDB:
    """Rebuild a FlatDB from a serialized blob (bytes or memoryview).

    Raises :class:`ArtifactCorrupt` on any malformed or digest-divergent
    input — the caller decides whether that means "retry without shared
    memory".
    """
    view = memoryview(data)
    try:
        if bytes(view[: len(_MAGIC)]) != _MAGIC:
            raise ValueError("bad magic")
        blob_len = int.from_bytes(view[8:16], "big")
        digest = bytes(view[16:48])
        meta_len = int.from_bytes(view[48:56], "big")
        if blob_len < _HEADER + meta_len or blob_len > len(view):
            raise ValueError("bad lengths")
        body = view[_HEADER:blob_len]
        if hashlib.sha256(body).digest() != digest:
            raise ValueError("digest mismatch")
        meta = pickle.loads(body[:meta_len])
        gids = meta["gids"]
        labels = meta["labels"]
        shapes = meta["shapes"]
    except ArtifactCorrupt:
        raise
    except Exception as exc:
        raise ArtifactCorrupt(f"flat segment corrupt: {exc}") from exc

    # Map the publisher's label ids into this process's interner.  For a
    # fresh worker the interner is empty, so ids come out identical and
    # every array below is a zero-copy view into the segment.
    mapping = [INTERNER.intern(label) for label in labels]
    identity = mapping == list(range(len(mapping)))

    pad = (-(_HEADER + meta_len)) % 4
    ints = view[_HEADER + meta_len + pad : blob_len].cast("i")
    flats = {}
    offset = 0
    try:
        for gid, (n, m) in zip(gids, shapes):
            vlab = ints[offset : offset + n]
            offset += n
            indptr = ints[offset : offset + n + 1]
            offset += n + 1
            nbr = ints[offset : offset + 2 * m]
            offset += 2 * m
            elab = ints[offset : offset + 2 * m]
            offset += 2 * m
            anbr = ints[offset : offset + 2 * m]
            offset += 2 * m
            aelab = ints[offset : offset + 2 * m]
            offset += 2 * m
            if len(aelab) != 2 * m:
                raise ValueError("truncated arrays")
            if not identity:
                vlab = array("i", (mapping[x] for x in vlab))
                elab = array("i", (mapping[x] for x in elab))
                aelab = array("i", (mapping[x] for x in aelab))
            flats[gid] = FlatGraph(n, m, vlab, indptr, nbr, elab, anbr, aelab)
    except ArtifactCorrupt:
        raise
    except Exception as exc:
        raise ArtifactCorrupt(f"flat segment corrupt: {exc}") from exc
    return FlatDB(gids, flats)


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


# ----------------------------------------------------------------------
# Shared-memory segments
# ----------------------------------------------------------------------
_LIVE_SEGMENTS: dict[str, "FlatSegment"] = {}


def _attach_untracked(name: str):
    """``SharedMemory(name=...)`` without resource-tracker registration.

    Attaching must not register the segment: the parent owns it, and
    with the fork start method all processes share one tracker whose
    per-name entry is a set — the parent's create-registration and a
    worker's attach-registration collapse into one entry, so the second
    unregister (attach + parent ``unlink``) makes the tracker process
    spew ``KeyError`` tracebacks at exit.  Python 3.13 has
    ``track=False`` for exactly this; on older versions the register
    call is stubbed out for the duration of the constructor (attaches
    happen during single-threaded worker startup).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class FlatSegment:
    """A published read-only shared-memory copy of one :class:`FlatDB`."""

    __slots__ = ("shm", "name")

    def __init__(self, shm) -> None:
        self.shm = shm
        self.name = shm.name

    @classmethod
    def publish(cls, flat: FlatDB) -> "FlatSegment":
        """Write ``flat`` into a fresh segment owned by this process."""
        from multiprocessing import shared_memory

        data = flat.to_bytes()
        shm = shared_memory.SharedMemory(create=True, size=len(data))
        shm.buf[: len(data)] = data
        segment = cls(shm)
        _LIVE_SEGMENTS[segment.name] = segment
        COUNTERS.inc("shm_publishes")
        return segment

    def destroy(self) -> None:
        """Close and unlink the segment (idempotent)."""
        _LIVE_SEGMENTS.pop(self.name, None)
        try:
            self.shm.close()
        except Exception:
            pass
        try:
            self.shm.unlink()
        except Exception:
            pass


def attach_segment(name: str) -> FlatDB:
    """Map the segment ``name`` and rebuild its :class:`FlatDB`.

    The returned FlatDB's arrays are views into the mapping; call
    :meth:`FlatDB.release` when done with them.  Raises
    :class:`ArtifactCorrupt` on integrity failure and whatever the
    platform raises when the segment does not exist.
    """
    faults.fire(SITE_SHM_ATTACH, segment=name)
    shm = _attach_untracked(name)
    try:
        data = shm.buf
        if faults.active_plan() is not None:
            # Chaos path only: materialize the bytes so the plan can
            # corrupt them; production attaches stay zero-copy.
            data = faults.mangle(SITE_SHM_ATTACH, bytes(data), segment=name)
        flat = _parse_blob(data)
    except BaseException:
        shm.close()
        raise
    flat._segment = shm
    COUNTERS.inc("shm_attaches")
    return flat


def live_segments() -> list[str]:
    """Names of segments published by this process and not yet destroyed."""
    return sorted(_LIVE_SEGMENTS)


@atexit.register
def _cleanup_segments() -> None:
    for segment in list(_LIVE_SEGMENTS.values()):
        segment.destroy()
