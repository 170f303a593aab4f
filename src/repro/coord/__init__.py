"""Sharded mining coordinator (DESIGN.md §15).

Splits a graph database into density-balanced shards, mines each in a
supervised worker process under a heartbeat lease, survives worker
kills and corrupted shard artifacts, and recounts the merged candidate
set to the exact global answer — the sharded run's output is
byte-identical to whole-database Gaston's.  It is not PartMiner: no
merge-join runs (``repro mine --shards`` calls :class:`Coordinator`).

Public surface::

    from repro.coord import CoordConfig, Coordinator, ShardPlan

    coord = Coordinator(CoordConfig(shards=4), run_dir="runs/demo")
    result = coord.mine(database, 0.1)
    result.patterns             # exact frequent PatternSet
    result.telemetry.coord      # leases, retries, reassignments
"""

from .coordinator import (  # noqa: F401
    CoordConfig,
    Coordinator,
    CoordResult,
    SITE_HEARTBEAT,
    SITE_LEASE,
    SITE_SHARD_RESULT,
)
from .lease import ShardRecord  # noqa: F401
from .merge import global_support, merge_candidates  # noqa: F401
from .plan import ShardPlan  # noqa: F401
from .worker import mine_shard  # noqa: F401
