"""Fault injection for the chaos suite: a seeded plan over the product's
I/O boundaries, each wrapped from the test side.

A *site* names one boundary where a fault may enter; :data:`SITES` maps
each to the product function it wraps.  A test arms sites on a
:class:`FaultPlan` and activates it around the code under test::

    plan = FaultPlan(seed=7)
    plan.inject("artifact.write", corrupt="flip")      # bit-flip the bytes
    plan.inject("runtime.worker_start", OSError("no fork"), times=2)
    with plan.active():
        run_the_pipeline()
    assert plan.fired  # the faults actually happened

``exc`` is raised at the boundary; ``corrupt`` (``"flip"``,
``"truncate"`` or any ``fn(data, rng) -> data``) damages the stored
bytes the product's own reader then sees, so its digest check is what
must catch the damage.  Corruption positions draw from the plan's one
``random.Random(seed)``: the same seed replays the same faults.  Worker
processes are out of reach; in-child faults go through worker shims
(``tests/test_runtime_faults.py``).
"""

from __future__ import annotations

import functools
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro import cli
from repro.graph import io as graph_io
from repro.resilience import integrity
from repro.runtime import engine
from repro.serve import service
from repro.storage import sqlite


class InjectedFault(RuntimeError):
    """Default exception type for ``inject(site)`` with no explicit exc."""


def flip_bit(data: bytes, rng: random.Random) -> bytes:
    """Flip one bit at a position drawn from ``rng``."""
    if not data:
        return b"\xff"
    mutated = bytearray(data)
    mutated[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(mutated)


def truncate(data: bytes, rng: random.Random) -> bytes:
    """Cut the bytes off at a position drawn from ``rng``."""
    return data[: rng.randrange(len(data))] if data else data


CORRUPTIONS = {"flip": flip_bit, "truncate": truncate}


@dataclass
class _Arm:
    site: str
    exc: BaseException | None
    corrupt: object | None  # a CORRUPTIONS name, or fn(bytes, rng) -> bytes
    times: int  # firings left


@dataclass
class FiredFault:
    """One injection that actually happened (for test assertions)."""

    site: str
    kind: str  # "exc" | "corrupt"
    detail: str
    context: dict = field(default_factory=dict)


class FaultPlan:
    """A seeded set of armed fault sites (see module docs)."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.fired: list[FiredFault] = []
        self._arms: list[_Arm] = []
        self._lock = threading.Lock()

    def inject(self, site, exc=None, *, corrupt=None, times=1) -> FaultPlan:
        """Arm ``site`` for ``times`` firings; returns self for chaining.

        With neither ``exc`` nor ``corrupt``, an :class:`InjectedFault`
        is raised at the site; an exception class is instantiated.
        """
        if exc is None and corrupt is None:
            exc = InjectedFault
        if isinstance(exc, type):
            exc = exc(f"injected fault at {site}")
        self._arms.append(_Arm(site, exc, corrupt, times))
        return self

    def _take(self, site: str, corrupting: bool) -> _Arm | None:
        """Consume one firing of an arm at ``site`` (caller holds the lock)."""
        for arm in self._arms:
            if (arm.site == site and arm.times > 0
                    and (arm.corrupt is not None) == corrupting):
                arm.times -= 1
                return arm
        return None

    def fire(self, site: str, **context) -> None:
        """Raise the exception armed at ``site``, if one is."""
        with self._lock:
            arm = self._take(site, corrupting=False)
            if arm is None:
                return
            self.fired.append(
                FiredFault(site, "exc", type(arm.exc).__name__, context)
            )
        raise arm.exc

    def mangle(self, site: str, data: bytes, **context) -> bytes:
        """``data`` damaged by the corruption armed at ``site``; ``data``
        itself when none is."""
        with self._lock:
            arm = self._take(site, corrupting=True)
            if arm is None:
                return data
            named = isinstance(arm.corrupt, str)
            self.fired.append(FiredFault(
                site, "corrupt", arm.corrupt if named else "custom", context
            ))
            corrupt = CORRUPTIONS[arm.corrupt] if named else arm.corrupt
            return corrupt(data, self.rng)

    @contextmanager
    def active(self):
        """Wrap every boundary in :data:`SITES` while the block runs."""
        with pytest.MonkeyPatch.context() as patch:
            for site, (_, _, call) in SITES.items():
                owner, name = target(site)
                original = getattr(owner, name)
                patch.setattr(owner, name, _bind(call, self, site, original))
            yield self


# ----------------------------------------------------------------------
# Boundary wrappers: ``call(plan, site, original, *args, **kwargs)``
# ----------------------------------------------------------------------
def _bind(call, plan, site, original):
    def wrapper(*args, **kwargs):
        return call(plan, site, original, *args, **kwargs)

    return wrapper


def _raising(plan, site, original, *args, **kwargs):
    plan.fire(site)
    return original(*args, **kwargs)


def _damage_file(plan, site, path: Path) -> None:
    """Corrupt the file at ``path`` in place if ``site`` has a
    corruption armed."""
    data = path.read_bytes()
    mutated = plan.mangle(site, data, path=str(path))
    if mutated is not data:
        path.write_bytes(mutated)


def _damage_row(plan, site, backend, gid: int) -> None:
    """Corrupt graph row ``gid``'s payload, keeping its stored sha, if
    ``site`` has a corruption armed."""
    row = backend._execute(
        "SELECT payload FROM graphs WHERE gid=?", (gid,)
    ).fetchone()
    if row is None:
        return
    mutated = plan.mangle(site, row[0], key=gid)
    if mutated is not row[0]:
        backend._execute(
            "UPDATE graphs SET payload=? WHERE gid=?", (mutated, gid)
        )


def _artifact_write(plan, site, original, path, text, **kwargs):
    plan.fire(site, path=str(path))
    written = original(path, text, **kwargs)
    _damage_file(plan, site, written)
    return written


def _artifact_read(plan, site, original, path, **kwargs):
    plan.fire(site, path=str(path))
    _damage_file(plan, site, Path(path))
    return original(path, **kwargs)


def _graph_parse(plan, site, original, lines, **kwargs):
    def checked():
        for number, line in enumerate(lines, start=1):
            plan.fire(site, line=number)
            yield line

    return original(checked(), **kwargs)


def _task_fallback(plan, site, original, *args, fallback=None, **kwargs):
    if fallback is not None:
        fallback = _bind(_raising, plan, site, fallback)
    return original(*args, fallback=fallback, **kwargs)


def _storage_write(plan, site, original, backend, gid, graph):
    plan.fire(site, key=gid)
    written = original(backend, gid, graph)
    if written:
        _damage_row(plan, site, backend, gid)
    return written


def _storage_read(plan, site, original, backend, gid):
    plan.fire(site, key=gid)
    _damage_row(plan, site, backend, gid)
    return original(backend, gid)


#: site -> (product module, dotted name of what it wraps there, wrapper).
#: The serve and runtime wrappers raise inside the product's own ``try``,
#: so its 500 path, circuit breaker, retries and fallback handle them.
SITES = {
    "artifact.write": (integrity, "atomic_write_text", _artifact_write),
    "artifact.read": (integrity, "read_checked", _artifact_read),
    "graph.parse": (graph_io, "iter_graphs", _graph_parse),
    "runtime.worker_start": (engine, "MiningRuntime._spawn", _raising),
    "runtime.fallback": (engine, "UnitTask", _task_fallback),
    "cli.run": (cli, "cmd_stats", _raising),
    "serve.request": (service, "_RequestHandler._count", _raising),
    "serve.reload": (service, "PatternCatalog.current_version", _raising),
    "obs.metrics_scrape": (
        service, "PatternService.metrics_payload", _raising
    ),
    "storage.write": (sqlite, "SQLiteBackend.write_graph", _storage_write),
    "storage.read": (sqlite, "SQLiteBackend.read_graph", _storage_read),
}


def target(site: str):
    """``(owner, name)`` of the product attribute ``site`` wraps."""
    module, dotted, _ = SITES[site]
    *owners, name = dotted.split(".")
    return functools.reduce(getattr, owners, module), name
