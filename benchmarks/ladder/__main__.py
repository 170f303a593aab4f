"""Run the whole ladder: ``python -m benchmarks.ladder --seed 1``.

Every workload gets ``--reps`` untraced reps and one traced pass, every
metric is printed by name with its unit, outputs are verified, and one
result JSON is written (default ``benchmarks/ladder/.work/result.json``).
``--reps`` is the only flag that changes how much is measured, and the
result records it; ``--quick`` runs the self-test sizes instead, and the
result records that too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from . import harness, spec


def environment(seed: int, reps: int, quick: bool) -> dict:
    """What a reader needs to judge how far to trust this run."""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.REPO_ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a plain checkout, not a repository
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
        "reps": reps,
        "scale": "quick" if quick else "full",
        "loadavg_1m": load,
        # Timings taken while other work holds the cores are not evidence.
        "noisy": load > nproc,
    }


def run_ladder(seed: int, reps: int, quick: bool, keep_spans: bool = False) -> dict:
    """Every workload: ``reps`` untraced reps, then one traced pass."""
    result = {
        "schema": 1,
        "claim": None,
        "env": environment(seed, reps, quick),
        "workloads": {},
    }
    for name in spec.WORKLOADS:
        with harness.Workspace() as workdir:
            measured = harness.measure(
                name, seed, quick=quick, reps=reps, workdir=workdir / "m"
            )
            wall = measured["end_to_end"]["wall_s"]["median"]
            traced = harness.trace(
                name, seed, quick=quick, passes=1, workdir=workdir / "t",
                facade=wall and {"wall_s": wall, "digest": measured["digest"]},
            )
        if not keep_spans:
            traced.pop("spans")
        failures = measured.pop("failures") + traced.pop("failures")
        if traced.pop("failed"):
            # A staged digest mismatch fails the workload, not just the pass.
            measured["failed"] = measured["attempted"]
            measured["end_to_end"]["failed_ratio"].update(
                median=1.0, min=1.0, max=1.0, reps=[1.0]
            )
        traced.pop("attempted")
        result["workloads"][name] = {**measured, **traced, "failures": failures}
        report(name, result["workloads"][name])
    return result


def report(name: str, outcome: dict) -> None:
    """Print every metric of one workload by name, with its unit."""
    print(f"== {name}")
    for metric in spec.end_to_end_metrics():
        cell = outcome["end_to_end"][metric["name"]]
        if cell["median"] is None:
            print(f"  {metric['name']:<28} n/a")
            continue
        spread = ""
        if len(cell["reps"]) > 1:
            spread = (f"  (min {cell['min']:.4g}, max {cell['max']:.4g}, "
                      f"{len(cell['reps'])} reps)")
        print(f"  {metric['name']:<28} {cell['median']:.6g} {metric['unit']}{spread}")
    for metric in spec.per_layer_metrics():
        value = outcome["per_layer"][metric["name"]]
        if value is not None:
            print(f"  {metric['name']:<28} {value:.6g} {metric['unit']}")
    shares = ", ".join(
        f"{stage} {share:.0%}" for stage, share in outcome["shares"].items()
    )
    print(f"  shares of the traced pass: {shares}")
    for failure in outcome["failures"]:
        print(f"  FAILED: {failure}")
    if outcome["degraded"]:
        print(f"  traced pass degraded: {outcome['degraded']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ladder", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5,
                        help="timed reps per workload (odd, default 5)")
    parser.add_argument("--quick", action="store_true",
                        help="self-test sizes (~D100); not comparable to full")
    parser.add_argument("--out", default=str(spec.WORK_DIR / "result.json"))
    args = parser.parse_args(argv)
    if args.reps < 1 or args.reps % 2 == 0:
        parser.error("--reps must be odd")

    result = run_ladder(args.seed, args.reps, args.quick)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(result, out, indent=1)
        out.write("\n")
    print(f"result written to {args.out}")
    if result["env"]["noisy"]:
        print("NOISY: load average exceeded nproc at start", file=sys.stderr)
    failed = [n for n, w in result["workloads"].items() if w["failed"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
