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

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".errors": """EXIT_BUDGET_EXCEEDED EXIT_CORRUPT_ARTIFACT EXIT_ERROR EXIT_OK
                  EXIT_PARSE_ERROR ArtifactCorrupt ArtifactRetired
                  BudgetExceeded CircuitOpen DeadlineExceeded
                  ResilienceError exit_code_for""",
    ".faults": """FaultPlan InjectedFault active_plan register_site
                  registered_sites""",
    ".health": "CircuitBreaker Deadline",
    ".integrity": """atomic_write_json atomic_write_text frame quarantine
                     read_checked unframe write_checked""",
})
