"""Observability overhead: mining with the obs layer off, on, and traced.

The same seeded PartMiner workload runs in three modes:

* ``off``    — kill switch down (``repro mine --no-obs``): every hook is
  a no-op branch;
* ``on``     — switch up but no tracer active, the default production
  state (metric observations land in the registry, ``span()`` hands back
  the null span);
* ``traced`` — switch up plus an active tracer whose spans are saved
  to a sealed JSONL file after the run, i.e. ``repro mine --trace``.

All three must mine identical pattern sets — the obs layer may never
change mined bytes.  Timing is best-of-N (min of ``REPEATS`` runs; the
min is the noise-robust estimator for a fixed workload) and the figure
of merit is the ``on``/``off`` ratio: the always-on hooks are designed
to cost < 3 %.  The ratio is *recorded*, not CI-gated — wall-clock on a
loaded CI box is too noisy to gate on; the behaviour-preservation
assertions are the hard part of this bench.

Persists ``benchmarks/results/BENCH_obs.json``.
"""

import time

from repro import obs
from repro.core.partminer import PartMiner
from repro.datagen.synthetic import generate_dataset
from repro.obs import Tracer, load_spans
from repro.obs import trace as obs_trace

from .conftest import RESULTS_DIR, finish, run_once
from .figures import Experiment

DATASET = "D80T10N12L20I4"
MINSUP = 0.1
REPEATS = 5


def _mine_once(db):
    miner = PartMiner(k=4, max_size=5)
    result = miner.mine(db, MINSUP)
    return result.patterns


def _timed_mode(db, setup, teardown):
    """(best seconds, last pattern set) for REPEATS runs of one mode."""
    best = float("inf")
    patterns = None
    for _ in range(REPEATS):
        state = setup()
        start = time.perf_counter()
        patterns = _mine_once(db)
        elapsed = time.perf_counter() - start
        teardown(state)
        best = min(best, elapsed)
    return best, patterns


def test_obs_overhead(benchmark, tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("obs_overhead")

    def sweep():
        db = generate_dataset(DATASET, seed=13)

        def _off_setup():
            obs.set_enabled(False)

        def _off_teardown(_):
            obs.set_enabled(True)

        off_time, off_patterns = _timed_mode(
            db, _off_setup, _off_teardown
        )

        on_time, on_patterns = _timed_mode(
            db, lambda: None, lambda _: None
        )

        run_counter = iter(range(REPEATS))

        def _traced_setup():
            tracer = Tracer()
            obs_trace.activate(tracer)
            return tracer

        def _traced_teardown(tracer):
            obs_trace.activate(None)
            path = trace_dir / f"trace_{next(run_counter)}.jsonl"
            assert len(load_spans(tracer.save(path))) == len(tracer) > 0

        traced_time, traced_patterns = _timed_mode(
            db, _traced_setup, _traced_teardown
        )

        # Behaviour preservation: identical pattern sets in every mode.
        for got in (on_patterns, traced_patterns):
            assert got.keys() == off_patterns.keys()
            for p in got:
                assert p.support == off_patterns.get(p.key).support

        exp = Experiment(
            "BENCH_obs",
            f"Observability overhead ({DATASET}, minsup={MINSUP}, "
            f"best of {REPEATS})",
            "mode (0=off, 1=on, 2=traced)",
            "seconds",
        )
        series = exp.new_series("mine wall time")
        for x, t in enumerate((off_time, on_time, traced_time)):
            series.add(x, round(t, 4))
        exp.notes["workload"] = {
            "dataset": DATASET,
            "minsup": MINSUP,
            "k": 4,
            "repeats": REPEATS,
        }
        exp.notes["overhead_on_vs_off"] = round(
            on_time / off_time - 1.0, 4
        )
        exp.notes["overhead_traced_vs_off"] = round(
            traced_time / off_time - 1.0, 4
        )
        exp.notes["patterns"] = len(off_patterns)
        return exp

    exp = run_once(benchmark, sweep)
    finish(exp)
    saved = RESULTS_DIR / "BENCH_obs.json"
    assert saved.exists()
