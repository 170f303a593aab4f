"""Shared configuration of the micro benches (``bench_*.py``).

The paper's figures are not pytest benches: ``benchmarks/figures.py``
runs them.  Each micro bench here runs its workload exactly once under
``benchmark.pedantic`` (the workload takes and reports its own timings),
gates on what it measured, and persists JSON under
``benchmarks/results/`` through the figure driver's experiment record.
"""

from __future__ import annotations

import os

import pytest

from .figures import RESULTS as RESULTS_DIR  # also puts src/ on sys.path
from .figures import Experiment, markdown_table


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="scale bench workloads down (fewer update batches and "
        "recount passes) for CI smoke runs; gates loosen accordingly",
    )


@pytest.fixture(scope="session")
def quick(request):
    """True when ``--quick`` (or ``REPRO_BENCH_QUICK=1``) is in effect."""
    return bool(
        request.config.getoption("--quick")
        or os.environ.get("REPRO_BENCH_QUICK")
    )


def finish(experiment: Experiment) -> None:
    """Print the table and save the series, with the run's work counters
    (a :mod:`repro.obs.metrics` snapshot) under ``notes['metrics']``."""
    from repro.obs import metrics

    print(f"\n== {experiment.exp_id}: {experiment.title}")
    print(markdown_table(experiment))
    experiment.notes["metrics"] = metrics.registry().snapshot()
    experiment.save(RESULTS_DIR)


def run_once(benchmark, fn):
    """Run a workload exactly once under pytest-benchmark accounting."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
