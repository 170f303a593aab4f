"""Differential tests: the SQLite backend vs the in-memory baseline.

Three layers of "observationally identical", strongest last:

1. **Property round-trips** (hypothesis): any graph encodes to
   the store's row format and decodes back label- and order-exact, so a
   database pushed through SQLite iterates exactly like the dict it came
   from;
2. **In-process mining**: every miner run over a stored database
   produces byte-identical pattern dumps to the same run over the
   in-memory database;
3. **The accel matrix, end to end**: the CLI mines the same dataset with
   the database on disk under every acceleration mode (off / kernel /
   kernel behind parallel units) and all pattern records are
   byte-identical to the in-memory baseline's.  Only the header's
   ``backend`` tag and the integrity footer (which hashes the header)
   may differ.
"""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.database import GraphDatabase
from repro.mining.gaston import GastonMiner
from repro.mining.gspan import GSpanMiner
from repro.mining.store import dump_patterns
from repro.core.partminer import PartMiner
from repro.storage import decode_graph, encode_graph, open_backend

from .conftest import random_database
from .test_properties import connected_graphs


def pattern_text(patterns):
    buffer = io.StringIO()
    dump_patterns(patterns, buffer)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# 1. Property round-trips
# ----------------------------------------------------------------------
class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_vertices=7))
    def test_graph_round_trip(self, graph):
        back = decode_graph(encode_graph(graph))
        assert back.vertex_labels() == graph.vertex_labels()
        assert back.num_edges == graph.num_edges
        for v in graph.vertices():
            # Adjacency *order* must survive, not just the edge set —
            # downstream canonical codes and flat-array compiles walk
            # neighbors in dict insertion order.
            assert list(back.neighbors(v)) == list(graph.neighbors(v))
        assert encode_graph(back) == encode_graph(graph)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(connected_graphs(max_vertices=6), min_size=1, max_size=6)
    )
    def test_database_through_sqlite_is_identical(
        self, tmp_path_factory, graphs
    ):
        db = GraphDatabase.from_graphs(graphs)
        with open_backend(
            "sqlite",
            tmp_path_factory.mktemp("prop") / "prop.db",
            cache_graphs=2,
        ) as backend:
            backend.import_database(db)
            view = backend.database()
            assert view.gids() == db.gids()
            for gid, graph in db:
                got = view[gid]
                assert got.vertex_labels() == graph.vertex_labels()
                for v in graph.vertices():
                    assert list(got.neighbors(v)) == list(
                        graph.neighbors(v)
                    )


# ----------------------------------------------------------------------
# 2. In-process mining differentials
# ----------------------------------------------------------------------
MINERS = [
    pytest.param(lambda: GSpanMiner(), id="gspan"),
    pytest.param(lambda: GastonMiner(), id="gaston"),
    pytest.param(lambda: PartMiner(k=2), id="partminer"),
]


class TestMiningDifferential:
    @pytest.mark.parametrize("make_miner", MINERS)
    def test_stored_database_mines_identical_bytes(
        self, make_miner, tmp_path
    ):
        db = random_database(seed=31, num_graphs=12, n=6, extra_edges=1)
        baseline = make_miner().mine(db, 3)
        base_text = pattern_text(
            getattr(baseline, "patterns", baseline)
        )
        with open_backend(
            "sqlite", tmp_path / "mine.db", cache_graphs=3
        ) as backend:
            backend.import_database(db)
            mined = make_miner().mine(backend.database(), 3)
            got = pattern_text(getattr(mined, "patterns", mined))
        assert got == base_text

    def test_cache_smaller_than_database_still_identical(self, tmp_path):
        db = random_database(seed=32, num_graphs=16, n=6)
        baseline = pattern_text(GastonMiner().mine(db, 4))
        with open_backend(
            "sqlite", tmp_path / "small.db", cache_graphs=2
        ) as backend:
            backend.import_database(db)
            got = pattern_text(
                GastonMiner().mine(backend.database(), 4)
            )
            assert got == baseline
            # The cache was genuinely undersized, not silently grown.
            assert backend.cache.stats()["max_cached"] <= 2


# ----------------------------------------------------------------------
# 3. The accel matrix through the CLI, database on disk
# ----------------------------------------------------------------------
#: (id, global flags, mine flags) — one per acceleration mode.
ACCEL_MATRIX = [
    ("off", ["--no-accel"], []),
    ("kernel", [], []),
    ("kernel+parallel", [], ["--parallel", "--workers", "1"]),
]


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=Path(__file__).resolve().parent.parent,
    )
    assert result.returncode == 0, (args, result.stderr)
    return result.stdout


def pattern_records(path: Path) -> list[str]:
    """The pattern lines of a dump — header and footer stripped."""
    lines = path.read_text().splitlines()
    return [
        line
        for line in lines
        if line and not line.startswith("#") and '"header"' not in line
    ]


def test_accel_matrix_byte_identical_on_disk(tmp_path):
    dataset = tmp_path / "db.tve"
    run_cli("generate", "D40T8N10L10I4", str(dataset), "--seed", "9")
    baseline = tmp_path / "memory.jsonl"
    run_cli("mine", str(dataset), "0.2", "--output", str(baseline))
    want = pattern_records(baseline)
    assert want, "baseline mined nothing — dataset too sparse"
    for mode, global_flags, mine_flags in ACCEL_MATRIX:
        out = tmp_path / f"{mode}.jsonl"
        stdout = run_cli(
            *global_flags,
            "mine",
            str(dataset),
            "0.2",
            *mine_flags,
            "--backend",
            "sqlite",
            "--db-path",
            str(tmp_path / f"{mode}.db"),
            "--graph-cache",
            "6",
            "--output",
            str(out),
        )
        assert pattern_records(out) == want, mode
        # Every sqlite run ends by reporting its read pattern; the
        # default kernel stays on the pass budget (2 passes over the 40
        # graphs, see tests/test_storage_outofcore.py).
        summary = re.fullmatch(
            r"storage: (\d+) graph reads, cache (\d+) hits / (\d+) misses, "
            r"decode cache \d+/6 graphs",
            stdout.splitlines()[-1],
        )
        assert summary, (mode, stdout)
        if mode == "kernel":
            assert int(summary[3]) <= 3 * 40
