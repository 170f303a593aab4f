"""Fault-tolerant parallel unit-mining runtime.

Public surface::

    from repro.runtime import (
        RuntimeConfig,        # workers / timeout / retries / start method
        MiningRuntime,        # the one process supervisor, over unit tasks
        run_unit_mining,      # high-level: units + thresholds -> results
        CheckpointStore,      # per-unit persistence under a run directory
        RunTelemetry,         # structured execution record
        UnitMiningError,      # raised when a unit fails with no fallback
    )
"""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".checkpoint": "CheckpointMismatch CheckpointStore",
    ".config": "RuntimeConfig",
    ".engine": """MiningRuntime RuntimeResult UnitMiningError UnitTask
                  decode_patterns encode_patterns mine_unit_worker
                  run_unit_mining""",
    ".telemetry": "AttemptRecord RunTelemetry UnitRecord",
})
