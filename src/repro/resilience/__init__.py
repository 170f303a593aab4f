"""End-to-end integrity & chaos layer (DESIGN.md §10).

Four pieces, threaded through every layer that touches disk,
subprocesses or sockets:

* :mod:`~repro.resilience.integrity` — sha256-footer framed atomic
  writes/reads with quarantine of corrupt artifacts;
* :mod:`~repro.resilience.faults` — deterministic, seedable fault
  injection over a registry of named sites (the chaos suite's engine);
* :mod:`~repro.resilience.health` — circuit breakers and request
  deadlines for the serving layer;
* :mod:`~repro.resilience.errors` — the typed failure classes and their
  documented CLI exit codes.
"""

from .errors import (
    EXIT_BUDGET_EXCEEDED,
    EXIT_CORRUPT_ARTIFACT,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    ArtifactCorrupt,
    ArtifactRetired,
    BudgetExceeded,
    CircuitOpen,
    DeadlineExceeded,
    ResilienceError,
    exit_code_for,
)
from .faults import (
    FaultPlan,
    InjectedFault,
    active_plan,
    register_site,
    registered_sites,
)
from .health import CircuitBreaker, Deadline
from .integrity import (
    atomic_write_json,
    atomic_write_text,
    frame,
    quarantine,
    read_checked,
    unframe,
    write_checked,
)

__all__ = [
    "EXIT_BUDGET_EXCEEDED",
    "EXIT_CORRUPT_ARTIFACT",
    "EXIT_ERROR",
    "EXIT_OK",
    "EXIT_PARSE_ERROR",
    "ArtifactCorrupt",
    "ArtifactRetired",
    "BudgetExceeded",
    "CircuitBreaker",
    "CircuitOpen",
    "Deadline",
    "DeadlineExceeded",
    "FaultPlan",
    "InjectedFault",
    "ResilienceError",
    "active_plan",
    "atomic_write_json",
    "atomic_write_text",
    "exit_code_for",
    "frame",
    "quarantine",
    "read_checked",
    "register_site",
    "registered_sites",
    "unframe",
    "write_checked",
]
