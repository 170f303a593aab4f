"""Golden tests: hand-verified expected outputs on a fixed tiny database.

The database below is small enough to reason about on paper; the expected
frequent sets are written out explicitly.  If any algorithm change moves
these results, either the change is wrong or mining semantics changed —
both deserve a loud failure.

Database (vertex labels in parentheses, edge labels on dashes):

  G0:  (A)-x-(B)-y-(C)          a 2-edge path
  G1:  (A)-x-(B)-y-(C) + (B)-x-(A')   (A' is a second A-labeled vertex)
  G2:  (A)-x-(B), (B)-y-(C), (C)-z-(A)   a labeled triangle
  G3:  (B)-y-(C)                a single edge
"""

import contextlib

import pytest

from repro import perf
from repro.core.join import SupportCounter
from repro.core.partminer import PartMiner
from repro.graph.canonical import canonical_code
from repro.graph.database import GraphDatabase
from repro.graph.isomorphism import count_support
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.gaston import GastonMiner
from repro.mining.gspan import GSpanMiner

from .conftest import make_graph


def golden_db() -> GraphDatabase:
    g0 = make_graph(["A", "B", "C"], [(0, 1, "x"), (1, 2, "y")])
    g1 = make_graph(
        ["A", "B", "C", "A"],
        [(0, 1, "x"), (1, 2, "y"), (1, 3, "x")],
    )
    g2 = make_graph(
        ["A", "B", "C"],
        [(0, 1, "x"), (1, 2, "y"), (2, 0, "z")],
    )
    g3 = make_graph(["B", "C"], [(0, 1, "y")])
    return GraphDatabase.from_graphs([g0, g1, g2, g3])


# Expected patterns at support >= 3 (monomorphism semantics), worked out
# by hand:
#   (A)-x-(B): in G0, G1, G2           -> support 3, tids {0,1,2}
#   (B)-y-(C): in G0, G1, G2, G3       -> support 4, tids {0,1,2,3}
#   (A)-x-(B)-y-(C): in G0, G1, G2     -> support 3, tids {0,1,2}
AB = LabeledGraph.from_vertices_and_edges(["A", "B"], [(0, 1, "x")])
BC = LabeledGraph.from_vertices_and_edges(["B", "C"], [(0, 1, "y")])
ABC = LabeledGraph.from_vertices_and_edges(
    ["A", "B", "C"], [(0, 1, "x"), (1, 2, "y")]
)
EXPECTED_SUP3 = {
    canonical_code(AB): (3, frozenset({0, 1, 2})),
    canonical_code(BC): (4, frozenset({0, 1, 2, 3})),
    canonical_code(ABC): (3, frozenset({0, 1, 2})),
}


@pytest.mark.parametrize("miner_factory", [GSpanMiner, GastonMiner])
def test_golden_frequent_set_support3(miner_factory):
    result = miner_factory().mine(golden_db(), 3)
    assert result.keys() == set(EXPECTED_SUP3)
    for key, (support, tids) in EXPECTED_SUP3.items():
        pattern = result.get(key)
        assert pattern.support == support
        assert pattern.tids == tids


def test_golden_partminer_matches():
    result = PartMiner(k=2, unit_support="exact").mine(golden_db(), 3)
    assert result.patterns.keys() == set(EXPECTED_SUP3)


def test_golden_support4():
    """Only (B)-y-(C) survives at support 4."""
    result = GSpanMiner().mine(golden_db(), 4)
    assert result.keys() == {canonical_code(BC)}


def test_golden_support2_adds_the_star_and_az():
    """At support 2, G1's (A)-x-(B)-x-(A) star piece appears (G1 + G2?
    no — only G1 has two A-x-B edges; but (A)-x-(B)-y-(C) subpatterns and
    the z-edge stay below threshold).  Worked out by hand: the additions
    relative to support 3 are exactly none for size >= 2 with support 2
    except... every pattern of EXPECTED_SUP3 plus nothing else reaches 2
    only if it occurs in two graphs: the star A-B-A occurs only in G1
    (support 1), the z-edge only in G2 (support 1)."""
    result = GSpanMiner().mine(golden_db(), 2)
    assert result.keys() == set(EXPECTED_SUP3)


def golden_induced_support(pattern):
    """Induced ``(support, tids)`` of ``pattern`` on :func:`golden_db`.

    Counted both ways the product counts (``count_support`` and a level
    ``SupportCounter``), under the kernel and under the reference
    matcher; all four answers must agree.
    """
    answers = set()
    for mode in (contextlib.nullcontext, perf.disabled):
        with mode():
            db = golden_db()
            support, tids = count_support(pattern, db, induced=True)
            answers.add((support, frozenset(tids)))
            answers.add(SupportCounter(db).count(pattern, induced=True))
    assert len(answers) == 1, answers
    return answers.pop()


def test_golden_induced_mining():
    """Induced semantics (``repro query --induced``), by hand:

    edges (induced == plain for 2-vertex patterns on these graphs):
      (A)-x-(B) -> 3;  (B)-y-(C) -> 4.
    (A)-x-(B)-y-(C) as INDUCED 3-vertex pattern: in G0 yes, in G1 yes
    (vertices 0,1,2 — vertex 3 not selected), in G2 NO (the z-edge closes
    the triangle).  -> support 2, below threshold 3, though its
    monomorphic support is 3.
    """
    assert golden_induced_support(AB) == (3, frozenset({0, 1, 2}))
    assert golden_induced_support(BC) == (4, frozenset({0, 1, 2, 3}))
    assert golden_induced_support(ABC)[0] == 2  # below threshold 3
    assert count_support(ABC, golden_db())[0] == 3  # monomorphic


def test_golden_induced_at_support2_includes_the_path():
    assert golden_induced_support(ABC) == (2, frozenset({0, 1}))
