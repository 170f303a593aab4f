"""Global-support phase: merge shard candidates, recount exactly.

The per-shard miners work at the doubly pigeonhole-reduced threshold
(see :mod:`repro.coord.plan`), so the union of their locally-frequent
sets is a complete candidate *superset* of the globally frequent
patterns — but the local supports and TID lists are partial (a shard
only sees its own gids).  This phase restores exactness:

1. **union** the shard results by canonical key, unioning the TID
   lists each shard proved (a free lower bound on global support);
2. **recount** every merged candidate against the *full* database
   through the batched flat kernels with the real threshold as the
   early-exit bound — infrequent border candidates abort their scan as
   soon as they provably miss, frequent ones come back with complete
   supports and TID lists;
3. keep the candidates meeting the root threshold.

The result is exactly the frequent pattern set of the whole database —
the same set, supports and TIDs whole-database Gaston produces, which is
what makes the sharded run's output byte-identical to it.  No merge-join
runs here.
"""

from __future__ import annotations

from .. import perf
from ..graph.database import GraphDatabase
from ..mining.base import PatternSet
from ..query import match_patterns


def merge_candidates(shard_results: list[PatternSet]) -> PatternSet:
    """Key-union of the per-shard locally-frequent sets."""
    merged = PatternSet()
    for result in shard_results:
        for pattern in result:
            merged.add_union(pattern)
    return merged


def global_support(
    candidates: PatternSet,
    database: GraphDatabase,
    threshold: int,
) -> tuple[PatternSet, dict]:
    """Exact recount of ``candidates`` against the full database.

    Returns ``(frequent patterns, phase digest)``.  Counting is
    :func:`repro.query.match_patterns` with ``min_support=threshold`` —
    on the kernel path a hopeless candidate aborts its scan early, while
    every *kept* pattern carries its complete TID list.
    """
    frequent = match_patterns(candidates, database, min_support=threshold)
    digest = {
        "candidates": len(candidates),
        "frequent": len(frequent),
        "rejected": len(candidates) - len(frequent),
        "accel": perf.enabled(),
    }
    return frequent, digest
