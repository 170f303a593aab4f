"""Compare two ladder results: ``python -m benchmarks.ladder.compare A B``.

One row per workload x end-to-end metric: both medians, the ratio B/A (A is
the base), and a verdict against the bound BENCHMARK.json fixes:

* ``within``     — B is no worse than A by more than the bound;
* ``better``     — B is better than A by more than the bound;
* ``worse``      — B is worse than A by more than the bound;
* ``unresolved`` — the reps of either side spread wider than the bound
  (distance between their quartiles, as a share of the median), so the
  medians cannot settle it — unless every rep of one side beats every rep
  of the other, which is reported as better or worse.

Exit code 1 when any row is ``worse`` or a ``failed_ratio`` went up, 2 when
the two files cannot be compared (different scale or rep count), else 0.
"""

from __future__ import annotations

import json
import statistics
import sys

from .spec import end_to_end_metrics


def spread(cell: dict) -> float:
    """Interquartile range of a metric's reps over their median.

    Quartiles are taken inclusively, so with five reps the lowest and the
    highest do not count: one rep that caught a noisy neighbour does not
    make a metric unresolved.  0 for a single value.
    """
    if not cell["median"] or len(cell["reps"]) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(cell["reps"], n=4, method="inclusive")
    return (high - low) / abs(cell["median"])


def verdict(metric: dict, a: dict, b: dict) -> str:
    """Judge one metric of one workload, ``a`` being the base."""
    if a["median"] is None or b["median"] is None:
        return "worse" if b["median"] is None and a["median"] is not None else "n/a"
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    base = abs(a["median"])
    delta = (b["median"] - a["median"]) * (1 if lower else -1)  # > 0: worse
    worse_by = delta / base if base else (1.0 if delta > 0 else 0.0)
    if max(spread(a), spread(b)) > bound:
        a_reps, b_reps = a["reps"], b["reps"]
        if lower:
            a_reps, b_reps = [-x for x in a_reps], [-x for x in b_reps]
        if min(b_reps) > max(a_reps):
            return "better"
        if max(b_reps) < min(a_reps) and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def compare(a: dict, b: dict) -> tuple[list[dict], int]:
    """``(rows, exit code)`` for two loaded result documents."""
    for key in ("scale", "reps"):
        if a["env"][key] != b["env"][key]:
            print(f"cannot compare: {key} {a['env'][key]!r} vs {b['env'][key]!r}",
                  file=sys.stderr)
            return [], 2
    rows, code = [], 0
    for name, base in a["workloads"].items():
        other = b["workloads"].get(name)
        if other is None:
            rows.append({"workload": name, "metric": "*", "verdict": "missing"})
            code = 1
            continue
        for metric in end_to_end_metrics():
            cell_a = base["end_to_end"][metric["name"]]
            cell_b = other["end_to_end"][metric["name"]]
            result = verdict(metric, cell_a, cell_b)
            ratio = None
            if cell_a["median"] and cell_b["median"] is not None:
                ratio = cell_b["median"] / cell_a["median"]
            rows.append({
                "workload": name, "metric": metric["name"],
                "a": cell_a["median"], "b": cell_b["median"], "ratio": ratio,
                "bound": metric["bound"], "verdict": result,
            })
            if result == "worse":
                code = 1
    return rows, code


def _cell(value) -> str:
    return "n/a" if value is None else f"{value:.4g}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    rows, code = compare(*documents)
    print(f"{'workload':<11} {'metric':<13} {'A':>10} {'B':>10} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for row in rows:
        if row["metric"] == "*":
            print(f"{row['workload']:<11} missing from B")
            continue
        print(f"{row['workload']:<11} {row['metric']:<13} {_cell(row['a']):>10} "
              f"{_cell(row['b']):>10} {_cell(row['ratio']):>7} "
              f"{row['bound']:>6.2f}  {row['verdict']}")
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return code


if __name__ == "__main__":
    sys.exit(main())
