"""Update frequencies (the ``ufreq`` values of Section 4.1).

The paper associates every vertex with ``v.ufreq``, its update frequency,
which the GraphPart weight function uses to corral frequently-updated
vertices into few units.  :func:`hot_vertex_assignment` fabricates
*a-priori* frequencies with a hot-set model (a fraction of vertices
receives high frequency) — the predictive knowledge a deployment would
have about its update distribution; the update generator samples
accordingly.  :class:`~repro.core.incremental.IncrementalPartMiner` keeps
the map current as batches add vertices.
"""

from __future__ import annotations

import random

from ..graph.database import GraphDatabase
from ..partition.units import UfreqMap


def hot_vertex_assignment(
    database: GraphDatabase,
    hot_fraction: float = 0.2,
    hot_ufreq: float = 1.0,
    cold_ufreq: float = 0.05,
    seed: int = 0,
) -> UfreqMap:
    """Assign high ufreq to a random ``hot_fraction`` of each graph's vertices."""
    if not 0 <= hot_fraction <= 1:
        raise ValueError(f"hot_fraction must be in [0, 1]: {hot_fraction}")
    rng = random.Random(seed)
    assignment: UfreqMap = {}
    for gid, graph in database:
        n = graph.num_vertices
        num_hot = max(1, round(hot_fraction * n)) if n else 0
        hot = set(rng.sample(range(n), num_hot)) if n else set()
        assignment[gid] = tuple(
            hot_ufreq if v in hot else cold_ufreq for v in range(n)
        )
    return assignment
