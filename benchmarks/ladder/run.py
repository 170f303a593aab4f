"""One workload, one seed: the entry point the benchmark driver calls.

    python3 benchmarks/ladder/run.py --workload tx-merge --seed 3 \\
        --seconds 13 --trace 0

``--trace 0`` runs untraced reps for ``--seconds`` seconds (at least three)
and prints the end-to-end metrics; ``--trace 1`` runs traced passes for as
long and prints the per-layer metrics.  The timings (``wall_s``, ``cpu_s``,
``ops_per_s``, ``setup_s``) are taken from the run's best rep or set-up,
every other metric is the median; the per-rep values go to standard error.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A per-layer metric
whose layer does not run on the workload, or whose span could not be
recorded, prints as 0; the reasons go to standard error.  Exits non-zero,
printing no result, when there is nothing to measure (no ``src/`` beside the
benchmark, or every rep failed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent))

#: On a shared host the neighbours only ever add time to a rep, in spells
#: that can outlast a run, so the median of a run's reps moves with them
#: and its best rep much less (ten-run quartile spreads of 5-8 % against
#: 2-4 %, same reps).  The driver refuses a benchmark that spreads past its
#: bound; the timings are reported from the best rep, or set-up.
BEST_OF_REPS = ("wall_s", "cpu_s", "ops_per_s", "setup_s")


def headline(metric: dict, cell: dict):
    """The one value of a metric that a run reports."""
    if metric["name"] in BEST_OF_REPS:
        return cell["min" if metric["better"] == "lower" else "max"]
    return cell["median"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    from benchmarks.ladder import harness, spec

    try:
        import repro  # noqa: F401 - the program under test must be here
    except ImportError as exc:
        print(f"ladder: nothing to measure: {exc}", file=sys.stderr)
        return 2
    if args.workload not in spec.WORKLOADS:
        print(f"ladder: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    contract = spec.load_contract()
    with harness.Workspace() as workdir:
        if args.trace:
            outcome = harness.trace(
                args.workload, args.seed, passes=None, seconds=args.seconds,
                workdir=workdir,
            )
            declared, measured = contract["per_layer"], outcome["per_layer"]
            for name, reason in outcome["null_reasons"].items():
                print(f"ladder: {name}: null ({reason})", file=sys.stderr)
            values = {m["name"]: measured[m["name"]] or 0 for m in declared}
        else:
            outcome = harness.measure(
                args.workload, args.seed, seconds=args.seconds, workdir=workdir
            )
            declared = contract["end_to_end"]
            values = {
                m["name"]: headline(m, outcome["end_to_end"][m["name"]])
                for m in declared
            }
            for name in BEST_OF_REPS:
                reps = outcome["end_to_end"][name]["reps"]
                print(f"ladder: {name} reps {reps}", file=sys.stderr)
    for failure in outcome["failures"]:
        print(f"ladder: failed: {failure}", file=sys.stderr)
    if any(value is None for value in values.values()):
        print("ladder: no rep succeeded; no result", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
