#!/usr/bin/env python
"""Worker-kill drill over the real sharded-mining CLI.

The CI gate for the coordinator's supervision story, run end to end
through ``python -m repro``:

1. generate a fixture database;
2. mine it with whole-database Gaston (``--algorithm gaston``, the
   exact baseline artifact the coordinator must reproduce);
3. mine it again with ``--shards`` while this script SIGKILLs the
   coordinator's worker processes from the outside, mid-shard;
4. require: exit code 0, a pattern artifact **byte-identical** to the
   baseline (headers stripped), and — when a kill landed on a live
   worker — telemetry recording the lease expiries and reassignments
   that recovered it.

Anything else (a crash surfacing to the CLI, a diverging artifact, a
recovery that telemetry failed to record) exits 1.

Usage::

    PYTHONPATH=src python scripts/shard_chaos_drill.py [--seed N]
        [--spec D80T8N8L12I4] [--support 0.1] [--shards 4] [--kills 2]

The default spec keeps transactions small (T8): chunk-local thresholds
bottom out at support 1, and support-1 enumeration is only bounded when
the per-graph edge count is.  ``--max-size`` caps both runs identically,
so byte-identity is preserved.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MINE_TIMEOUT = 600.0


def run_cli(args, **kwargs):
    command = [sys.executable, "-m", "repro", *args]
    return subprocess.run(command, check=True, **kwargs)


def live_children(pid: int) -> list[int]:
    """Direct live children of ``pid`` (worker processes), via /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().split()
            if int(fields[3]) == pid:
                children.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return children


def stripped(path: Path) -> list[str]:
    """Pattern records only: no comments, no header (footer is a '#')."""
    lines = path.read_text().splitlines()
    return [
        line
        for line in lines
        if not line.startswith("#") and '"header"' not in line
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spec", default="D80T8N8L12I4")
    parser.add_argument("--support", default="0.1")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--kills", type=int, default=2,
                        help="workers to SIGKILL while the run is live")
    parser.add_argument("--max-size", type=int, default=5,
                        help="edge cap applied to BOTH runs")
    args = parser.parse_args()
    rng = random.Random(args.seed)

    with tempfile.TemporaryDirectory(prefix="shard-drill-") as tmp:
        tmp_path = Path(tmp)
        fixture = tmp_path / "fixture.tve"
        exact_out = tmp_path / "exact.jsonl"
        sharded_out = tmp_path / "sharded.jsonl"
        telemetry_out = tmp_path / "telemetry.json"

        run_cli(
            ["generate", args.spec, str(fixture), "--seed", str(args.seed)]
        )
        run_cli(
            ["mine", str(fixture), args.support, "--algorithm", "gaston",
             "--max-size", str(args.max_size),
             "--output", str(exact_out)]
        )

        mine = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "mine",
                str(fixture), args.support,
                "--max-size", str(args.max_size),
                "--shards", str(args.shards),
                "--shard-chunk", "5",
                "--shard-mem-budget", "2",
                "--heartbeat-interval", "0.05",
                "--retries", "6",
                "--run-dir", str(tmp_path / "run"),
                "--output", str(sharded_out),
                "--telemetry", str(telemetry_out),
            ]
        )

        landed = 0
        killed: set[int] = set()
        deadline = time.monotonic() + MINE_TIMEOUT
        while mine.poll() is None and time.monotonic() < deadline:
            if landed < args.kills:
                victims = [
                    pid
                    for pid in live_children(mine.pid)
                    if pid not in killed
                ]
                if victims:
                    victim = rng.choice(victims)
                    killed.add(victim)
                    try:
                        os.kill(victim, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    else:
                        landed += 1
                        print(f"drill: SIGKILLed worker {victim} "
                              f"({landed}/{args.kills})")
                        time.sleep(0.3)  # let the survivors make progress
                        continue
            time.sleep(0.05)
        if mine.poll() is None:
            mine.kill()
            print("drill: FAIL - the sharded mine timed out", file=sys.stderr)
            return 1
        if mine.returncode != 0:
            print(f"drill: FAIL - sharded mine exited {mine.returncode}",
                  file=sys.stderr)
            return 1

        want = stripped(exact_out)
        got = stripped(sharded_out)
        if want != got:
            print(f"drill: FAIL - artifacts diverge "
                  f"({len(want)} vs {len(got)} records)", file=sys.stderr)
            return 1

        coord = json.loads(telemetry_out.read_text())["coord"]
        counters = coord["counters"]
        print(f"drill: {len(got)} identical records, kills landed: "
              f"{landed}, counters: {counters}")
        if landed and counters["lease_expiries"] < 1:
            print("drill: FAIL - workers were killed but telemetry "
                  "records no lease expiry", file=sys.stderr)
            return 1
        if landed and counters["reassignments"] + counters["degraded"] < 1:
            print("drill: FAIL - lost shards were neither reassigned "
                  "nor degraded", file=sys.stderr)
            return 1
    print("drill: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
