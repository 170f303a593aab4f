"""Smoke tests: every shipped example runs cleanly end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    # -W error::ResourceWarning: an example leaking a handle (SQLite
    # connection, run-dir file) is a bug, not a warning.
    proc = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "frequent patterns" in out
        assert "recall=1.000" in out

    def test_chemical_fragments(self):
        out = run_example("chemical_fragments.py")
        assert "carboxyl group" in out
        assert "acetic acid" in out

    def test_spatiotemporal_updates(self):
        out = run_example("spatiotemporal_updates.py")
        assert "epoch 0" in out
        assert "IncPartMiner:" in out
        assert "recall vs exact: 1.000" in out

    def test_parallel_units(self):
        out = run_example("parallel_units.py")
        assert "process-pool mining" in out
        assert "recall vs direct mining: 1.000" in out

    def test_resumable_mining(self):
        out = run_example("resumable_mining.py")
        assert "simulating crash" in out
        assert "checkpoints on disk: units [0, 1]" in out
        assert "2 checkpoint, 2 ok" in out
        assert "verified against direct mining" in out

    def test_disk_based_mining(self):
        out = run_example("disk_based_mining.py")
        assert "page reads" in out
        assert "index builds: 2" in out

    def test_pattern_warehouse(self):
        out = run_example("pattern_warehouse.py")
        assert "validation: OK" in out
        assert "warehouse updated; contents:" in out

    def test_pattern_explorer(self):
        out = run_example("pattern_explorer.py")
        assert "pattern team" in out
        assert "month 2: 2 update batches applied" in out
        assert "month 1 -> month 2" in out

    def test_serve_and_query(self):
        out = run_example("serve_and_query.py")
        assert "published snapshot v1" in out
        assert "hot-reload: service now at snapshot v2" in out
        assert "verified against direct engine" in out
        assert "service shut down cleanly" in out

    def test_every_example_file_is_covered(self):
        scripts = {p.name for p in EXAMPLES.glob("*.py")}
        covered = {
            "quickstart.py",
            "chemical_fragments.py",
            "spatiotemporal_updates.py",
            "parallel_units.py",
            "disk_based_mining.py",
            "pattern_warehouse.py",
            "pattern_explorer.py",
            "resumable_mining.py",
            "serve_and_query.py",
        }
        assert scripts == covered, "new example missing a smoke test"
