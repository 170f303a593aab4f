"""Row encodings for the storage engine.

Graphs are stored as UTF-8 JSON blobs, one row each, with a sha256 hex
digest column computed over the exact payload bytes — the row-level
analogue of :func:`repro.resilience.integrity.frame`.  That digest is
also the graph's content stamp in :mod:`repro.serve.index`.  The
digest is computed *before* the ``storage.write`` fault site mangles the
bytes, so a corrupted write is detected on the next read, exactly like
the file-level framing.

Encoding must be **order-preserving**: mining output is byte-identical
across backends only if a decoded graph iterates ``neighbors()`` in the
same order as the live graph it was encoded from (the same contract a
pickled unit payload honours: pickling keeps dict order).  Graph rows
therefore store the full adjacency
rows — both directions, in dict insertion order — not a ``(u < v)`` edge
list, and the decoder rebuilds ``_adj`` directly.

Decoded graphs carry deterministic ``version`` counters
(``n_vertices + n_edges``, matching a fresh ``add_vertex``/``add_edge``
construction), so version-stamped caches (flat forms, canonical codes,
support cache) behave identically for stored and live graphs.
"""

from __future__ import annotations

import hashlib
import json

from ..graph.labeled_graph import LabeledGraph


def payload_sha(payload: bytes) -> str:
    """Hex sha256 of one row payload (the row's integrity stamp)."""
    return hashlib.sha256(payload).hexdigest()


def encode_graph(graph: LabeledGraph) -> bytes:
    """Serialize ``graph`` with exact adjacency order (see module docs)."""
    record = {
        "v": graph.vertex_labels(),
        "adj": [
            [[w, label] for w, label in graph.neighbors(v)]
            for v in graph.vertices()
        ],
        "m": graph.num_edges,
    }
    return json.dumps(record, separators=(",", ":")).encode("utf-8")


def decode_graph(payload: bytes) -> LabeledGraph:
    """Rebuild a graph encoded by :func:`encode_graph`.

    Adjacency rows are restored verbatim, so ``neighbors()`` iterates in
    the source graph's order; the version counter comes out as
    ``n + m``, the same value a fresh construction produces.  Raises
    :class:`ValueError` on structurally invalid payloads (the caller
    wraps that into the typed corruption failure).
    """
    record = json.loads(payload)
    labels = record["v"]
    adj = record["adj"]
    m = record["m"]
    if len(adj) != len(labels):
        raise ValueError(
            f"adjacency covers {len(adj)} vertices, label list {len(labels)}"
        )
    graph = LabeledGraph()
    for label in labels:
        graph.add_vertex(label)
    rows = graph._adj
    half = 0
    for v, row in enumerate(adj):
        target = rows[v]
        for w, label in row:
            if not isinstance(w, int) or not 0 <= w < len(labels) or w == v:
                raise ValueError(f"bad neighbor {w!r} on vertex {v}")
            target[w] = label
            half += 1
    if half != 2 * m:
        raise ValueError(
            f"adjacency holds {half} directed entries, header says {m} edges"
        )
    graph._num_edges = m
    graph.version += m
    return graph
