"""Structural graph operations used by candidate generation.

The merge-join operation (paper Section 4.3) generates ``(k+1)``-edge
candidates by *joining* two ``k``-edge patterns that share a ``(k-1)``-edge
core — the FSG-style join.  This module provides the primitives:

* :func:`edge_deletion_cores` — all connected ``(k-1)``-edge subgraphs
  obtained by removing a single edge (with bookkeeping to re-attach it), and
* :func:`overlay_candidates` — all ways of overlaying two patterns on a
  shared core to form ``(k+1)``-edge candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import CodeKey, canonical_form
from .labeled_graph import Label, LabeledGraph


@dataclass(frozen=True)
class DeletionCore:
    """A connected core obtained from a pattern by deleting one edge.

    Every vertex id is the parent pattern's.  ``orders`` reads the core's
    canonical code ``core_key`` off the parent, one order per automorphism
    of the core: code index ``i`` sits at parent vertex ``order[i]`` (see
    :func:`~repro.graph.canonical.canonical_form`).  The removed edge runs
    from ``anchor``, a core vertex, to ``other`` — a core vertex too, or
    ``None`` if deleting the edge isolated it (in which case
    ``other_label`` carries its vertex label).
    """

    core_key: tuple[CodeKey, ...]
    orders: tuple[tuple[int, ...], ...]
    anchor: int
    other: int | None
    other_label: Label
    edge_label: Label


def edge_deletion_cores(pattern: LabeledGraph) -> list[DeletionCore]:
    """All single-edge-deletion cores of a connected pattern.

    Only connected cores are returned (disconnected remainders cannot serve
    as join cores).  Patterns of size 1 have no non-empty core and yield an
    empty list.
    """
    cores: list[DeletionCore] = []
    if pattern.num_edges < 2:
        return cores
    for u, v, elabel in list(pattern.edges()):
        work = pattern.copy()
        work.remove_edge(u, v)
        keep = [w for w in work.vertices() if work.degree(w) > 0]
        if len(keep) < work.num_vertices - 1:
            continue  # removing one edge can isolate at most one endpoint
        dropped = None
        if len(keep) == work.num_vertices - 1:
            dropped = next(
                w for w in work.vertices() if work.degree(w) == 0
            )
            if dropped not in (u, v):
                continue  # isolated vertex unrelated to the deletion
        core = work.induced_subgraph(keep)
        if not core.is_connected() or core.num_edges != pattern.num_edges - 1:
            continue
        if dropped is None:
            anchor, other = u, v
            other_label = pattern.vertex_label(v)
        else:
            anchor = v if dropped == u else u
            other = None
            other_label = pattern.vertex_label(dropped)
        core_key, orders = canonical_form(core)
        cores.append(
            DeletionCore(
                core_key=core_key,
                orders=tuple(
                    tuple(keep[i] for i in order) for order in orders
                ),
                anchor=anchor,
                other=other,
                other_label=other_label,
                edge_label=elabel,
            )
        )
    return cores


def overlay_candidates(
    donor_core: DeletionCore,
    host_core: DeletionCore,
    host: LabeledGraph,
    seen_signatures: set | None = None,
) -> list[LabeledGraph]:
    """Overlay a donor pattern's removed edge onto a host pattern.

    ``host_core`` must be a deletion core of ``host`` and share its canonical
    key with ``donor_core``.  For every isomorphism between the two cores the
    donor's removed edge is re-attached inside the host, yielding a candidate
    with one more edge than the host.  Overlays where the edge already exists
    in the host (i.e., the two patterns coincide entirely) are skipped.

    A candidate is fully determined by the host plus the attachment of the
    new edge; ``seen_signatures`` (shared across calls targeting the same
    host instance) suppresses duplicates *before* any canonicalization —
    symmetric cores otherwise regenerate the same candidate once per
    automorphism.

    The core isomorphisms need no search: both cores carry their canonical
    orders, and donor order ``i`` followed by host order 0 (code index ->
    host vertex) is one isomorphism per automorphism of the core — all of
    them.
    """
    if donor_core.core_key != host_core.core_key:
        return []
    seen = seen_signatures if seen_signatures is not None else set()
    candidates: list[LabeledGraph] = []
    host_order = host_core.orders[0]
    for donor_order in donor_core.orders:
        anchor_host = host_order[donor_order.index(donor_core.anchor)]
        if donor_core.other is None:
            # The donor edge's far endpoint was dropped with the deletion, so
            # in the overlay it may become a brand-new vertex or coincide
            # with any label-matching host vertex (e.g. self-joining two
            # 2-edge paths must yield both the 3-path and the triangle).
            signature = (
                anchor_host,
                None,
                donor_core.other_label,
                donor_core.edge_label,
            )
            if signature not in seen:
                seen.add(signature)
                candidate = host.copy()
                new_vertex = candidate.add_vertex(donor_core.other_label)
                candidate.add_edge(
                    anchor_host, new_vertex, donor_core.edge_label
                )
                candidates.append(candidate)
            for w in host.vertices():
                if w == anchor_host or host.has_edge(anchor_host, w):
                    continue
                if host.vertex_label(w) != donor_core.other_label:
                    continue
                signature = (
                    min(anchor_host, w),
                    max(anchor_host, w),
                    donor_core.edge_label,
                )
                if signature in seen:
                    continue
                seen.add(signature)
                candidate = host.copy()
                candidate.add_edge(anchor_host, w, donor_core.edge_label)
                candidates.append(candidate)
        else:
            other_host = host_order[donor_order.index(donor_core.other)]
            if host.has_edge(anchor_host, other_host):
                continue  # donor edge coincides with an existing host edge
            signature = (
                min(anchor_host, other_host),
                max(anchor_host, other_host),
                donor_core.edge_label,
            )
            if signature in seen:
                continue
            seen.add(signature)
            candidate = host.copy()
            candidate.add_edge(anchor_host, other_host, donor_core.edge_label)
            candidates.append(candidate)
    return candidates
