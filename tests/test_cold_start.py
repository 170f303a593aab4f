"""Cold start: a ``repro`` process imports only what its command runs.

Every check runs in a fresh interpreter, since this one has imported
most of the package already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every package whose public names load on first use.
PACKAGES = [
    "repro", "repro.biggraph", "repro.core", "repro.datagen", "repro.graph",
    "repro.mining", "repro.mining.adi", "repro.obs", "repro.partition",
    "repro.resilience", "repro.runtime", "repro.serve", "repro.storage",
    "repro.updates",
]

#: What ``import repro.cli`` must leave alone: the subsystems of commands
#: it is not running, and the stdlib servers and pools they bring.
NOT_AT_CLI_IMPORT = [
    "repro.core", "repro.serve", "repro.runtime", "repro.storage",
    "repro.biggraph", "repro.datagen", "repro.query", "repro.mining.adi",
    "http", "ssl", "socket", "multiprocessing", "sqlite3",
]


def _fresh(code: str):
    """Run ``code`` in a new interpreter; returns its JSON stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def _modules_after(statement: str) -> set[str]:
    return set(_fresh(
        f"import json, sys\n{statement}\nprint(json.dumps(list(sys.modules)))"
    ))


def test_import_repro_loads_only_the_package():
    loaded = _modules_after("import repro")
    assert {m for m in loaded if m.startswith("repro")} == {"repro"}


def test_import_cli_leaves_other_commands_unloaded():
    loaded = _modules_after("import repro.cli")
    assert "repro.graph.io" in loaded  # every command reads t/v/e
    unexpected = {
        name for name in loaded
        for top in NOT_AT_CLI_IMPORT
        if name == top or name.startswith(top + ".")
    }
    assert unexpected == set()


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    """``__all__`` names resolve through ``getattr``, are listed by
    ``dir()``, and only the two subpackage exports are modules."""
    report = _fresh(f"""
import importlib, json, types
pkg = importlib.import_module({package!r})
listed = set(dir(pkg))
print(json.dumps({{
    "missing": [n for n in pkg.__all__ if n not in listed],
    "modules": [n for n in pkg.__all__
                if isinstance(getattr(pkg, n), types.ModuleType)],
    "unknown": hasattr(pkg, "no_such_name"),
    "count": len(pkg.__all__),
}}))
""")
    assert report["count"] > 0
    assert report["missing"] == []
    subpackages = ["perf", "serve"] if package == "repro" else []
    assert report["modules"] == subpackages
    assert report["unknown"] is False

