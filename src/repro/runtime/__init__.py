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

from .checkpoint import CheckpointMismatch, CheckpointStore
from .config import RuntimeConfig
from .engine import (
    MiningRuntime,
    RuntimeResult,
    UnitMiningError,
    UnitTask,
    decode_patterns,
    encode_patterns,
    mine_unit_worker,
    run_unit_mining,
)
from .telemetry import AttemptRecord, RunTelemetry, UnitRecord

__all__ = [
    "AttemptRecord",
    "CheckpointMismatch",
    "CheckpointStore",
    "MiningRuntime",
    "RunTelemetry",
    "RuntimeConfig",
    "RuntimeResult",
    "UnitMiningError",
    "UnitRecord",
    "UnitTask",
    "decode_patterns",
    "encode_patterns",
    "mine_unit_worker",
    "run_unit_mining",
]
