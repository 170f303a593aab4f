"""Typed failure classes and their documented CLI exit codes.

The resilience layer's contract is that *every* detected fault surfaces
as one of a small set of typed exceptions, each mapped to a stable CLI
exit code — a supervisor (or the chaos suite) can tell corruption from
bad input from an exhausted budget without parsing stderr.

====  =======================  ========================================
code  exception                meaning
====  =======================  ========================================
0     —                        success
1     anything else            unclassified error
2     (argparse)               usage error
3     :class:`ArtifactCorrupt` a stored artifact failed its checksum or
                               structural validation; the bad bytes were
                               quarantined to ``<name>.corrupt/``
4     ``GraphParseError``      a ``t/v/e`` input failed strict parsing
                               (:mod:`repro.graph.io`)
5     :class:`BudgetExceeded`  a resource budget was exhausted — request
                               deadline (:class:`DeadlineExceeded`)
====  =======================  ========================================
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2  # argparse's own convention; listed for completeness
EXIT_CORRUPT_ARTIFACT = 3
EXIT_PARSE_ERROR = 4
EXIT_BUDGET_EXCEEDED = 5


class ResilienceError(Exception):
    """Base class of every typed failure the resilience layer raises."""


class ArtifactCorrupt(ResilienceError, ValueError):
    """A stored artifact's bytes failed integrity verification.

    ``ValueError`` is kept in the MRO so pre-existing callers that treat
    "file didn't parse" as ``ValueError`` still catch corruption.
    """

    def __init__(
        self,
        message: str,
        *,
        path=None,
        quarantined=None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.quarantined = quarantined  # where the bad bytes were moved


class ArtifactRetired(ResilienceError):
    """A stored artifact is intact but in a format this library refuses
    to serve; the message names the step that rewrites it.

    Not a ``ValueError``: nothing is quarantined, and catalog fallback
    does not mistake a retired format for corruption.
    """


class BudgetExceeded(ResilienceError, RuntimeError):
    """A resource budget (time) was exhausted."""


class DeadlineExceeded(BudgetExceeded):
    """A request deadline expired before the work finished."""


class CircuitOpen(ResilienceError, RuntimeError):
    """A circuit breaker refused the call (dependency deemed down)."""

    def __init__(self, name: str, message: str | None = None) -> None:
        super().__init__(message or f"circuit {name!r} is open")
        self.name = name


def exit_code_for(exc: BaseException) -> int:
    """The documented CLI exit code for ``exc`` (see module docs)."""
    from ..graph.io import GraphParseError  # local: io imports nothing back

    if isinstance(exc, ArtifactCorrupt):
        return EXIT_CORRUPT_ARTIFACT
    if isinstance(exc, GraphParseError):
        return EXIT_PARSE_ERROR
    if isinstance(exc, BudgetExceeded):
        return EXIT_BUDGET_EXCEEDED
    return EXIT_ERROR
