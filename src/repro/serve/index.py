"""Inverted fragment index over patterns and database graphs.

The serving layer answers two shapes of question — "which graphs contain
this pattern?" (``match``) and "which patterns occur in this graph?"
(``contains``) — and both reduce to many subgraph-isomorphism tests.  The
classic way to avoid most of them is *feature-based candidate filtering*
(cf. gIndex / FG-index): decompose every graph into small **fragments**
whose presence is *necessary* for containment, index fragment -> posting
list, and run the expensive test only on candidates that pass the filter.

Fragments used here, both containment-monotone under monomorphism (and
therefore under induced embedding, which is in particular a monomorphism):

* **edge triples** — the normalized ``(l_u, l_edge, l_v)`` of every edge
  (exactly :func:`repro.core.join.pattern_edge_triples`'s vocabulary);
* **label paths** — length-2 paths through a center vertex, normalized as
  ``(l_a, e_a, l_center, e_b, l_b)`` with the lexicographically smaller
  side first.  An injective embedding maps two distinct edges at a pattern
  vertex onto two distinct edges at its image, so every pattern path must
  appear in the target.

If pattern ``P`` embeds in graph ``G`` then ``fragments(P) <=
fragments(G)``.  The converse holds only for connected 1- and 2-edge
patterns (:func:`fragments_decide`, cf. FG-index's verification-free
answers), so other candidates are verified by a real search downstream.
The differential tests pin every served answer against the unindexed
:mod:`repro.query` results.

Graph-side posting lists are stamped with each graph's **content
digest**, ``payload_sha(encode_graph(g))`` — the sha the SQLite store
already keeps per row.  A database that differs from the one indexed
(incremental update batches, a relabelled copy loaded in another
process, another backend) stays sound: :meth:`FragmentIndex.stale_gids`
reports every graph whose digest drifted and the query engine treats
those as always-candidates.  A mutation count could not do this: two
graphs of the same shape count alike.

The index serializes to JSON alongside the catalog snapshot
(:meth:`save` / :meth:`load`); fragments are interned into an id table so
posting lists stay compact.
"""

from __future__ import annotations

import json
import weakref
from pathlib import Path
from typing import Iterable, Sequence

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import LabeledGraph
from ..mining.edges import normalize_triple
from ..resilience.errors import ArtifactCorrupt, ArtifactRetired
from ..storage.encoding import encode_graph, payload_sha

#: Format 1 stamped graphs with mutation counts and is refused on load.
INDEX_FORMAT_VERSION = 2

#: A fragment: ("e", lu, le, lv) or ("p", la, ea, lm, eb, lb).
Fragment = tuple

# Per-graph fragment sets are recomputed for every contains() query and
# at every index build; the weak version-stamped cache (the same idiom as
# join._TRIPLES_CACHE) makes each graph pay once per mutation.
_FRAGMENTS_CACHE: "weakref.WeakKeyDictionary[LabeledGraph, tuple]"
_FRAGMENTS_CACHE = weakref.WeakKeyDictionary()
_DIGESTS_CACHE: "weakref.WeakKeyDictionary[LabeledGraph, tuple]"
_DIGESTS_CACHE = weakref.WeakKeyDictionary()


def graph_digest(graph: LabeledGraph) -> str:
    """The content digest ``graph`` is stamped with (memoized)."""
    entry = _DIGESTS_CACHE.get(graph)
    if entry is not None and entry[0] == graph.version:
        return entry[1]
    digest = payload_sha(encode_graph(graph))
    _DIGESTS_CACHE[graph] = (graph.version, digest)
    return digest


def graph_fragments(graph: LabeledGraph) -> frozenset[Fragment]:
    """All edge-triple and label-path fragments of ``graph`` (memoized)."""
    entry = _FRAGMENTS_CACHE.get(graph)
    if entry is not None and entry[0] == graph.version:
        return entry[1]
    fragments: set[Fragment] = set()
    vertex_label = graph.vertex_label
    for u, v, elabel in graph.edges():
        lu, le, lv = normalize_triple(
            vertex_label(u), elabel, vertex_label(v)
        )
        fragments.add(("e", lu, le, lv))
    for center in graph.vertices():
        incident = [
            (vertex_label(w), elabel) for w, elabel in graph.neighbors(center)
        ]
        lm = vertex_label(center)
        for i in range(len(incident)):
            la, ea = incident[i]
            for j in range(i + 1, len(incident)):
                lb, eb = incident[j]
                if (lb, eb) < (la, ea):
                    fragments.add(("p", lb, eb, lm, ea, la))
                else:
                    fragments.add(("p", la, ea, lm, eb, lb))
    result = frozenset(fragments)
    _FRAGMENTS_CACHE[graph] = (graph.version, result)
    return result


def fragments_decide(pattern: LabeledGraph) -> bool:
    """True when every graph holding ``pattern``'s fragments contains it
    (non-induced): ``pattern`` is one edge, or a path ``a–m–b`` (graphs
    are simple, so two edges on three vertices), which is exactly what a
    label-path fragment records — two distinct neighbours of one centre.
    """
    edges = pattern.num_edges
    return edges in (1, 2) and pattern.num_vertices == edges + 1


class FragmentIndex:
    """Fragment -> posting lists over patterns and (optionally) graphs.

    Patterns are addressed by their position ``pid`` in the catalog's
    deterministic order; graphs by their database ``gid``.
    """

    def __init__(
        self,
        pattern_fragments: Sequence[frozenset[Fragment]],
        graph_fragment_sets: dict[int, frozenset[Fragment]] | None = None,
        graph_digests: dict[int, str] | None = None,
    ) -> None:
        self.pattern_fragments: tuple[frozenset[Fragment], ...] = tuple(
            pattern_fragments
        )
        self.graph_fragment_sets = graph_fragment_sets
        self.graph_digests = graph_digests
        self.graph_postings: dict[Fragment, set[int]] | None = None
        if graph_fragment_sets is not None:
            self.graph_postings = {}
            for gid, fragments in graph_fragment_sets.items():
                for fragment in fragments:
                    self.graph_postings.setdefault(fragment, set()).add(gid)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        patterns: Iterable[LabeledGraph],
        database: GraphDatabase | None = None,
    ) -> "FragmentIndex":
        """Index pattern graphs (pid = iteration order) and, when given,
        the database's graphs (with content digests for drift detection)."""
        pattern_fragments = [graph_fragments(p) for p in patterns]
        if database is None:
            return cls(pattern_fragments)
        graph_sets = {gid: graph_fragments(graph) for gid, graph in database}
        return cls(pattern_fragments, graph_sets, database.digests(graph_digest))

    @property
    def num_patterns(self) -> int:
        return len(self.pattern_fragments)

    # ------------------------------------------------------------------
    # Candidate filtering
    # ------------------------------------------------------------------
    def candidate_patterns(
        self, fragments: frozenset[Fragment]
    ) -> list[int]:
        """Pids whose fragment set is contained in ``fragments``, ascending.

        One frozenset subset test per pattern, which runs in C and
        outpaces walking the query's posting lists at catalog sizes in
        the hundreds to thousands.  Fragment-free patterns (single
        vertices) can never be pruned and are always candidates.
        """
        return [
            pid
            for pid, owned in enumerate(self.pattern_fragments)
            if owned <= fragments
        ]

    def candidate_graphs(
        self, fragments: frozenset[Fragment]
    ) -> set[int] | None:
        """Gids (as indexed) that hold every given fragment.

        ``None`` when the index was built without a database.  A pattern
        with no fragments cannot be pruned: every indexed gid comes back.
        """
        if self.graph_postings is None:
            return None
        assert self.graph_digests is not None
        if not fragments:
            return set(self.graph_digests)
        empty: set[int] = set()
        first, *rest = sorted(
            (self.graph_postings.get(f, empty) for f in fragments), key=len
        )
        return first.intersection(*rest)

    def stale_gids(self, database: GraphDatabase) -> set[int]:
        """Gids whose graph content differs from what the index saw.

        A gid is stale when it is missing from the index or its content
        digest no longer matches the live graph's.  Stale graphs have
        unreliable posting lists and must be treated as
        always-candidates by the caller.  Store-backed databases hand
        over the digests their rows keep, so nothing is decoded.
        """
        if self.graph_digests is None:
            return set(database.gids())
        stamps = self.graph_digests
        return {
            gid
            for gid, digest in database.digests(graph_digest).items()
            if stamps.get(gid) != digest
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form: interned fragment table + per-entity fid lists."""
        fragment_ids: dict[Fragment, int] = {}

        def fid(fragment: Fragment) -> int:
            return fragment_ids.setdefault(fragment, len(fragment_ids))

        patterns = [
            sorted(fid(f) for f in fragments)
            for fragments in self.pattern_fragments
        ]
        graphs = None
        if self.graph_fragment_sets is not None:
            assert self.graph_digests is not None
            graphs = {
                str(gid): {
                    "digest": self.graph_digests[gid],
                    "fragments": sorted(fid(f) for f in fragments),
                }
                for gid, fragments in self.graph_fragment_sets.items()
            }
        return {
            "format": INDEX_FORMAT_VERSION,
            "fragments": [list(f) for f in fragment_ids],
            "patterns": patterns,
            "graphs": graphs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FragmentIndex":
        if data.get("format") == 1:
            raise ArtifactRetired(
                "fragment index format 1 stamps graphs with mutation "
                "counts, which cannot tell a relabelled graph from the "
                "one indexed; re-publish the catalog with "
                "`repro serve --patterns`"
            )
        if data.get("format") != INDEX_FORMAT_VERSION:
            raise ValueError(
                f"unsupported fragment-index format {data.get('format')!r}"
            )
        table = [tuple(raw) for raw in data["fragments"]]
        pattern_fragments = [
            frozenset(table[i] for i in fids) for fids in data["patterns"]
        ]
        graph_sets = graph_digests = None
        if data.get("graphs") is not None:
            graph_sets = {}
            graph_digests = {}
            for gid_text, record in data["graphs"].items():
                gid = int(gid_text)
                graph_sets[gid] = frozenset(
                    table[i] for i in record["fragments"]
                )
                graph_digests[gid] = record["digest"]
        return cls(pattern_fragments, graph_sets, graph_digests)

    def save(self, path: str | Path) -> None:
        """Atomically write the index as checksummed JSON."""
        from ..resilience import integrity

        integrity.write_checked(path, json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "FragmentIndex":
        """Load and integrity-verify an index file.

        Checksum misses and structurally-bad JSON both quarantine the
        file and raise :class:`~repro.resilience.errors.ArtifactCorrupt`;
        an intact format-1 file raises
        :class:`~repro.resilience.errors.ArtifactRetired` and stays put.
        """
        from ..resilience import integrity

        path = Path(path)
        text = integrity.read_checked(path)
        try:
            return cls.from_dict(json.loads(text))
        except ArtifactRetired as exc:
            raise ArtifactRetired(f"{path}: {exc}") from None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            corrupt = ArtifactCorrupt(
                f"index {path} is corrupt: {type(exc).__name__}: {exc}",
                path=path,
            )
            corrupt.quarantined = integrity.quarantine(path)
            raise corrupt from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FragmentIndex):
            return NotImplemented
        return (
            self.pattern_fragments == other.pattern_fragments
            and self.graph_fragment_sets == other.graph_fragment_sets
            and self.graph_digests == other.graph_digests
        )

    def __repr__(self) -> str:
        graphs = (
            len(self.graph_digests) if self.graph_digests is not None else 0
        )
        return f"FragmentIndex(patterns={self.num_patterns}, graphs={graphs})"
