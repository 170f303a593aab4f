"""The mining path leaves no reference cycles; the CLI pauses the cyclic
collector around ``mine`` / ``mine-big`` only, and the incremental miner
around each update batch.

Cycle-freedom is what makes the pause safe: with the collector off, a
cycle is never freed.  Each case runs with ``gc.DEBUG_SAVEALL``, which
keeps every unreachable object in ``gc.garbage`` instead of freeing it,
and requires that none of them is the program's: no ``repro.*`` instance
and no function, generator or frame whose code lives in the package.
(argparse's parser is itself cyclic garbage; it is not the program's.)
"""

from __future__ import annotations

import collections
import contextlib
import gc
import os
import sqlite3
import types

import pytest

import repro
from repro import perf
from repro.cli import main

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _ours(obj) -> str | None:
    """What ``obj`` is if the program made it, else ``None``."""
    module = type(obj).__module__ or ""
    if module == "repro" or module.startswith("repro."):
        return f"{module}.{type(obj).__qualname__}"
    if isinstance(obj, types.FunctionType):
        code = obj.__code__
    elif isinstance(obj, types.GeneratorType):
        code = obj.gi_code
    elif isinstance(obj, types.FrameType):
        code = obj.f_code
    else:
        return None
    if os.path.abspath(code.co_filename).startswith(PACKAGE_DIR):
        return f"{type(obj).__name__} {code.co_qualname}"
    return None


@contextlib.contextmanager
def no_cycles_of_ours():
    """Fail if the block leaves a reference cycle the program made."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
        gc.collect()
        found = collections.Counter(
            what for what in map(_ours, gc.garbage) if what is not None
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not found, f"cyclic garbage: {found.most_common(6)}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cycles")
    db, big = root / "db.tve", root / "big.tve"
    assert main(["generate", "D40T10N8L10I4", str(db), "--seed", "3"]) == 0
    assert main([
        "generate-big", str(big), "--vertices", "300", "--labels", "6",
        "--communities", "3", "--seed", "4",
    ]) == 0
    return root


MINES = {
    "serial": ["mine", "{db}", "0.15", "-k", "4"],
    "no-accel": ["--no-accel", "mine", "{db}", "0.15", "-k", "4"],
    "sqlite": ["mine", "{db}", "0.15", "-k", "4", "--backend", "sqlite",
               "--db-path", "{root}/graphs.db"],
    "parallel": ["mine", "{db}", "0.15", "-k", "4", "--parallel",
                 "--workers", "2"],
    "trace": ["mine", "{db}", "0.15", "-k", "4",
              "--trace", "{root}/trace.jsonl"],
    "mine-big": ["mine-big", "{big}", "8", "--max-size", "3"],
}


@pytest.mark.parametrize("case", sorted(MINES))
def test_a_mine_leaves_no_cycles(inputs, tmp_path, case):
    argv = [
        arg.format(db=inputs / "db.tve", big=inputs / "big.tve",
                   root=tmp_path)
        for arg in MINES[case]
    ]
    argv += ["--output", str(tmp_path / "out.jsonl")]
    try:
        with no_cycles_of_ours():
            assert main(argv) == 0
    finally:
        os.environ.pop("REPRO_NO_ACCEL", None)
        perf.set_enabled(True)


def test_an_incremental_session_leaves_no_cycles():
    from repro import IncrementalPartMiner, UpdateGenerator, generate_dataset
    from repro.updates.tracker import hot_vertex_assignment

    db = generate_dataset("D30T8N6L8I4", seed=5)
    with no_cycles_of_ours():
        inc = IncrementalPartMiner(k=2)
        ufreq = hot_vertex_assignment(db, 0.3, seed=1)
        inc.initial_mine(db, 0.15, ufreq=ufreq)
        gen = UpdateGenerator(6, 8, seed=2)
        for _ in range(2):
            inc.apply_updates(
                gen.generate(inc.database, inc.ufreq, 0.3, 1, "mixed")
            )
        del inc


def test_a_query_engine_pass_leaves_no_cycles():
    from repro import GSpanMiner, generate_dataset
    from repro.serve import CatalogSnapshot, FragmentIndex, QueryEngine
    from repro.serve.catalog import catalog_order

    db = generate_dataset("D30T8N6L8I4", seed=6)
    patterns = GSpanMiner().mine(db, 6)
    with no_cycles_of_ours():
        index = FragmentIndex.build(
            (p.graph for p in catalog_order(patterns)), db
        )
        engine = QueryEngine(CatalogSnapshot(1, patterns, index, {}), db)
        engine.relocate(patterns)
        for gid in db.gids()[:10]:
            engine.contains(db[gid])
        for pattern in list(patterns)[:10]:
            engine.match(pattern.graph)
        del engine, index


class CollectionCounter:
    """Counts the collections the collector starts (automatic or not)."""

    def __init__(self) -> None:
        self.started = 0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self.started += 1

    def __enter__(self) -> "CollectionCounter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class TestCollectorPause:
    """``mine`` and ``mine-big`` run with automatic collection paused,
    and the collector is handed back however the command ends."""

    def test_a_mine_runs_without_collections(
        self, inputs, tmp_path, monkeypatch
    ):
        from repro import cli

        # Count inside the command: parsing the argv happens first and
        # may well be collected.
        counter = CollectionCounter()
        command = cli.cmd_mine

        def counted(args):
            with counter:
                return command(args)

        monkeypatch.setattr(cli, "cmd_mine", counted)
        assert gc.isenabled()
        assert main(["mine", str(inputs / "db.tve"), "0.15", "-k", "4",
                     "--output", str(tmp_path / "p.jsonl")]) == 0
        assert counter.started == 0
        assert gc.isenabled()
        with CollectionCounter() as after:
            kept = [[i] for i in range(20 * gc.get_threshold()[0])]
        assert after.started > 0
        del kept

    def test_handed_back_after_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tve"
        bad.write_text("t # 0\nv 0 1\ne 0\n")
        assert main(["mine", str(bad), "1"]) == 4
        assert "parse error" in capsys.readouterr().err
        assert gc.isenabled()

    def test_handed_back_after_a_corrupt_artifact(self, inputs, tmp_path):
        store = tmp_path / "graphs.db"
        argv = ["mine", str(inputs / "db.tve"), "0.15",
                "--backend", "sqlite", "--db-path", str(store)]
        assert main(argv) == 0
        con = sqlite3.connect(store)
        (payload,) = con.execute(
            "SELECT payload FROM graphs WHERE gid=3"
        ).fetchone()
        con.execute(
            "UPDATE graphs SET payload=? WHERE gid=3",
            (bytes([payload[0] ^ 0xFF]) + payload[1:],),
        )
        con.commit()
        con.close()
        assert main(argv) == 3
        assert gc.isenabled()

    def test_a_caller_that_paused_it_keeps_it_paused(self, inputs, tmp_path):
        gc.disable()
        try:
            assert main(["mine", str(inputs / "db.tve"), "0.15",
                         "--output", str(tmp_path / "p.jsonl")]) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestIncrementalBatchPause:
    """``IncrementalPartMiner.apply_updates`` runs a batch with the
    collector paused and hands back the caller's state, also when the
    batch raises."""

    @pytest.fixture
    def session(self):
        from repro import IncrementalPartMiner, UpdateGenerator
        from repro import generate_dataset
        from repro.updates.tracker import hot_vertex_assignment

        db = generate_dataset("D60T12N6L8I4", seed=5)
        inc = IncrementalPartMiner(k=2)
        ufreq = hot_vertex_assignment(db, 0.3, seed=1)
        inc.initial_mine(db, 0.1, ufreq=ufreq)
        return inc, UpdateGenerator(6, 8, seed=2)

    def test_a_batch_runs_no_full_collection(self, session):
        inc, gen = session
        full = []

        def count(phase, info):
            if phase == "start" and info["generation"] == 2:
                full.append(info)

        batch = gen.generate(inc.database, inc.ufreq, 0.5, 1, "mixed")
        gc.collect()
        assert gc.isenabled()
        # Thresholds low enough that an unpaused batch would collect
        # generation 2 many times over.
        thresholds = gc.get_threshold()
        gc.set_threshold(50, 2, 2)
        gc.callbacks.append(count)
        try:
            inc.apply_updates(batch)
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*thresholds)
        assert full == []
        assert gc.isenabled()

    def test_a_raising_batch_hands_the_collector_back(self, session):
        from repro.updates.model import RelabelVertex

        inc, _gen = session
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                with pytest.raises(Exception):
                    inc.apply_updates([RelabelVertex(12345, 0, 1)])
                assert gc.isenabled() is enabled
            finally:
                gc.enable()
