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

:func:`match_patterns` and :func:`coverage` consult the acceleration
layer (:mod:`repro.perf`) before entering any embedding search: an
edge-triple index plus the kernel's admit prefilter
(:func:`repro.perf.flat_admits`), both read off the database's flat
form, reject most non-supporting graphs outright.  The filters are
sound for both semantics (an induced embedding is in particular a
monomorphism), so results are identical either way; ``use_accel=False``
— or the global ``REPRO_NO_ACCEL`` switch — forces the original full
scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import perf
from .core.join import pattern_edge_triples
from .graph.database import GraphDatabase
from .graph.isomorphism import find_embeddings
from .graph.labeled_graph import LabeledGraph
from .mining.base import Pattern, PatternSet


@dataclass(frozen=True)
class Occurrence:
    """One embedding of a pattern in one database graph."""

    gid: int
    mapping: tuple[tuple[int, int], ...]  # (pattern vertex, graph vertex)

    def graph_vertices(self) -> tuple[int, ...]:
        """The target-graph vertices this occurrence touches."""
        return tuple(gv for _, gv in self.mapping)


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


def _candidate_gids(pattern: LabeledGraph, flat: "perf.FlatDB") -> set[int]:
    """Gids that pass every cheap containment filter for ``pattern``.

    Intersects the edge-triple posting lists, then drops candidates the
    admit prefilter (:func:`repro.perf.flat_admits`) rules out.  Both
    filters are necessary conditions for containment under either
    semantics, so the survivors are a sound candidate set.  An edge-free
    pattern cannot be filtered: every gid comes back.
    """
    triple_index = flat.edge_triple_index()
    candidates: set[int] | None = None
    for triple in pattern_edge_triples(pattern):
        gids = triple_index.get(triple)
        if not gids:
            return set()
        candidates = set(gids) if candidates is None else candidates & gids
        if not candidates:
            return set()
    if candidates is None:
        return set(flat.flats)
    plan = perf.get_flat_plan(pattern)
    return {
        gid
        for gid in candidates
        if perf.flat_admits(plan, flat.flats[gid]) == perf.ADMIT
    }


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
    use_accel: bool = True,
) -> PatternSet:
    """Re-locate a pattern set over ``database``.

    Returns a new :class:`PatternSet` whose supports and TID lists are
    measured against ``database`` (the input set's supports refer to
    whatever database it was mined from).  Patterns falling below
    ``min_support`` (when given) are dropped.

    By default each pattern is searched only in the graphs surviving the
    acceleration layer's candidate filters (edge-triple index + admit
    prefilter); ``use_accel=False`` — or disabling the layer globally
    via ``REPRO_NO_ACCEL`` — scans every graph for every pattern, as the
    original implementation did.  Results are identical either way.
    """
    threshold = (
        database.absolute_support(min_support)
        if min_support is not None
        else 0
    )
    accel = use_accel and perf.enabled()
    flat = perf.get_flat_db(database) if accel else None
    relocated = PatternSet()
    for pattern in patterns:
        if flat is not None:
            gids = _candidate_gids(pattern.graph, flat)
            items = ((gid, database[gid]) for gid in sorted(gids))
        else:
            items = iter(database)
        supporting = set()
        for gid, graph in items:
            for _ in find_embeddings(
                pattern.graph, graph, limit=1, induced=induced
            ):
                supporting.add(gid)
        if len(supporting) >= threshold:
            relocated.add(
                Pattern(
                    graph=pattern.graph,
                    key=pattern.key,
                    support=len(supporting),
                    tids=frozenset(supporting),
                )
            )
    return relocated


def coverage(
    patterns: PatternSet,
    database: GraphDatabase,
    induced: bool = False,
    use_accel: bool = True,
) -> tuple[float, set[int]]:
    """Fraction (and set) of graphs containing at least one pattern."""
    flats = (
        perf.get_flat_db(database).flats
        if use_accel and perf.enabled()
        else None
    )
    covered: set[int] = set()
    for gid, graph in database:
        for pattern in patterns:
            if gid in covered:
                break
            if flats is not None:
                plan = perf.get_flat_plan(pattern.graph)
                if perf.flat_admits(plan, flats[gid]) != perf.ADMIT:
                    continue
            for _ in find_embeddings(
                pattern.graph, graph, limit=1, induced=induced
            ):
                covered.add(gid)
                break
    if not len(database):
        return 0.0, covered
    return len(covered) / len(database), covered
