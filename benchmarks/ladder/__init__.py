"""The workload ladder: seven workloads, eight end-to-end metrics, and a
traced per-layer pass.  See README.md in this directory.

``python -m benchmarks.ladder --seed 1`` runs the whole ladder;
``python benchmarks/ladder/run.py`` is the one-workload entry the benchmark
driver calls (see BENCHMARK.json).
"""

import sys
from pathlib import Path

# The ladder measures the checkout it sits in, installed or not.
_SRC = str(Path(__file__).resolve().parent.parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
