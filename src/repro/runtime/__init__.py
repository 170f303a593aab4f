"""Fault-tolerant parallel unit-mining runtime.

Public surface::

    from repro.runtime import (
        RuntimeConfig,        # timeouts / retries / backoff / fallback
        Supervisor, Task,     # the one process supervisor + its task API
        MiningRuntime,        # unit tasks (generic over worker callables)
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
    UnitTask,
    decode_patterns,
    encode_patterns,
    mine_unit_worker,
    run_unit_mining,
)
from .supervisor import Supervisor, Task, UnitMiningError
from .telemetry import AttemptRecord, RunTelemetry, UnitRecord

__all__ = [
    "AttemptRecord",
    "CheckpointMismatch",
    "CheckpointStore",
    "MiningRuntime",
    "RunTelemetry",
    "RuntimeConfig",
    "RuntimeResult",
    "Supervisor",
    "Task",
    "UnitMiningError",
    "UnitRecord",
    "UnitTask",
    "decode_patterns",
    "encode_patterns",
    "mine_unit_worker",
    "run_unit_mining",
]
