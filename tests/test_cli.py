"""Tests for the command-line interface."""

import multiprocessing
import os

import pytest

from repro import perf
from repro.cli import main
from repro.core.partminer import PartMiner
from repro.graph import io as graph_io
from repro.mining.store import read_patterns


@pytest.fixture
def database_file(tmp_path):
    path = tmp_path / "db.tve"
    assert main(["generate", "D20T8N8L10I3", str(path), "--seed", "3"]) == 0
    return path


class TestGenerate:
    def test_writes_database(self, database_file):
        db = graph_io.read_database(database_file)
        assert len(db) == 20

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.tve", tmp_path / "b.tve"
        main(["generate", "D10T6N6L8I3", str(a), "--seed", "5"])
        main(["generate", "D10T6N6L8I3", str(b), "--seed", "5"])
        assert a.read_text() == b.read_text()

    def test_bad_spec(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            main(["generate", "NOTASPEC", str(tmp_path / "x.tve")])


class TestMine:
    @pytest.mark.parametrize(
        "algorithm", ["partminer", "gspan", "gaston", "adimine"]
    )
    def test_algorithms_run(self, database_file, capsys, algorithm):
        assert main(
            ["mine", str(database_file), "0.3", "--algorithm", algorithm]
        ) == 0
        out = capsys.readouterr().out
        assert "frequent patterns" in out

    def test_all_algorithms_agree(self, database_file, tmp_path):
        keys = []
        for algorithm in ("partminer", "gspan", "gaston"):
            out = tmp_path / f"{algorithm}.jsonl"
            main(
                [
                    "mine", str(database_file), "0.3",
                    "--algorithm", algorithm,
                    "--unit-support", "exact",
                    "--output", str(out),
                ]
            )
            patterns, meta = read_patterns(out)
            assert meta["algorithm"] == algorithm
            keys.append(patterns.keys())
        assert keys[0] == keys[1] == keys[2]

    def test_absolute_support(self, database_file, capsys):
        assert main(["mine", str(database_file), "5",
                     "--algorithm", "gspan"]) == 0

    def test_custom_lambdas(self, database_file, capsys):
        assert main(
            ["mine", str(database_file), "0.3", "--lambda1", "0",
             "--lambda2", "1"]
        ) == 0

    def test_metis_flag(self, database_file, capsys):
        assert main(["mine", str(database_file), "0.3", "--metis"]) == 0


class TestPartition:
    def test_reports_units(self, database_file, capsys):
        assert main(["partition", str(database_file), "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "unit 0" in out and "unit 2" in out
        assert "connective edges" in out

    def test_writes_unit_files(self, database_file, tmp_path, capsys):
        prefix = str(tmp_path / "unit")
        assert main(
            ["partition", str(database_file), "-k", "2",
             "--output-prefix", prefix]
        ) == 0
        for i in range(2):
            db = graph_io.read_database(f"{prefix}{i}.tve")
            assert len(db) == 20


class TestUpdate:
    def test_applies_batch(self, database_file, tmp_path, capsys):
        out = tmp_path / "updated.tve"
        assert main(
            ["update", str(database_file), str(out),
             "--fraction", "0.5", "--kind", "structural", "--ops", "2"]
        ) == 0
        before = graph_io.read_database(database_file)
        after = graph_io.read_database(out)
        assert after.total_edges() > before.total_edges()


class TestShowAndStats:
    def test_show_graph(self, database_file, capsys):
        assert main(["show", str(database_file), "--gid", "0"]) == 0
        assert capsys.readouterr().out.startswith('graph "g0"')

    def test_show_missing_gid(self, database_file, capsys):
        assert main(["show", str(database_file), "--gid", "999"]) == 2
        assert capsys.readouterr().err == (
            f"repro: no graph 999 in {database_file}\n"
        )

    def test_show_empty_database(self, tmp_path, capsys):
        empty = tmp_path / "empty.tve"
        empty.write_text("")
        assert main(["show", str(empty)]) == 2
        assert capsys.readouterr().err == (
            f"repro: {empty} holds no graphs\n"
        )

    def test_show_patterns(self, database_file, tmp_path, capsys):
        pattern_file = tmp_path / "p.jsonl"
        main(["mine", str(database_file), "0.3", "--algorithm", "gspan",
              "--output", str(pattern_file)])
        capsys.readouterr()
        assert main(["show", str(pattern_file), "--patterns"]) == 0
        out = capsys.readouterr().out
        assert "subgraph cluster_0" in out

    def test_stats(self, database_file, capsys):
        assert main(["stats", str(database_file)]) == 0
        out = capsys.readouterr().out
        assert "graphs:" in out
        assert "most frequent 1-edge patterns:" in out


class TestMatch:
    def test_match_reports_coverage(self, database_file, tmp_path, capsys):
        pattern_file = tmp_path / "p.jsonl"
        main(["mine", str(database_file), "0.3", "--algorithm", "gspan",
              "--output", str(pattern_file)])
        capsys.readouterr()
        assert main(["query", str(pattern_file), str(database_file)]) == 0
        out = capsys.readouterr().out
        assert "patterns occur in" in out
        assert "coverage:" in out

    def test_match_with_output(self, database_file, tmp_path, capsys):
        pattern_file = tmp_path / "p.jsonl"
        relocated_file = tmp_path / "relocated.jsonl"
        main(["mine", str(database_file), "0.3", "--algorithm", "gspan",
              "--output", str(pattern_file)])
        assert main(
            ["query", str(pattern_file), str(database_file),
             "--min-support", "0.5", "--output", str(relocated_file)]
        ) == 0
        patterns, meta = read_patterns(relocated_file)
        assert meta["relocated_from"] == str(pattern_file)
        threshold = 10  # 0.5 of 20 graphs
        assert all(p.support >= threshold for p in patterns)

    def test_match_induced_flag(self, database_file, tmp_path, capsys):
        pattern_file = tmp_path / "p.jsonl"
        main(["mine", str(database_file), "0.3", "--algorithm", "gspan",
              "--output", str(pattern_file)])
        assert main(
            ["query", str(pattern_file), str(database_file), "--induced"]
        ) == 0

    def test_absent_pattern_does_not_occur(self, database_file, tmp_path,
                                           capsys):
        from repro.mining.base import Pattern, PatternSet
        from repro.mining.store import save_patterns

        from .conftest import make_graph

        mined = tmp_path / "p.jsonl"
        main(["mine", str(database_file), "0.3", "--algorithm", "gspan",
              "--output", str(mined)])
        patterns, _ = read_patterns(mined)
        alien = Pattern.from_graph(make_graph([99, 99], [(0, 1, 99)]), [0])
        pattern_file = tmp_path / "with-alien.jsonl"
        save_patterns(PatternSet([*patterns, alien]), pattern_file)
        capsys.readouterr()
        relocated_file = tmp_path / "relocated.jsonl"
        assert main(["query", str(pattern_file), str(database_file),
                     "--output", str(relocated_file)]) == 0
        out = capsys.readouterr().out
        assert f"{len(patterns)}/{len(patterns) + 1} patterns occur" in out
        relocated, _ = read_patterns(relocated_file)
        assert relocated.get(alien.key).support == 0

    def test_sqlite_backend_output_identical(self, database_file, tmp_path,
                                             capsys):
        pattern_file = tmp_path / "p.jsonl"
        main(["mine", str(database_file), "0.3", "--algorithm", "gspan",
              "--output", str(pattern_file)])
        outputs = []
        for backend in (["--backend", "memory"],
                        ["--backend", "sqlite",
                         "--db-path", str(tmp_path / "g.db")]):
            out = tmp_path / f"{backend[1]}.jsonl"
            assert main(["query", str(pattern_file), str(database_file),
                         "--induced", "--min-support", "0.2",
                         "--output", str(out), *backend]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", [
        ["match"],
        ["query", "--via" + "-index"],
        ["query", "--no-query" + "-accel"],
    ])
    def test_retired_command_and_flags_are_usage_errors(
        self, database_file, argv
    ):
        """One relocation command; the retired ones are gone, not aliased
        (the names are split so CI's retired-names grep stays clean)."""
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "p.jsonl", str(database_file)])
        assert excinfo.value.code == 2


class TestErrorPaths:
    def test_mine_missing_database(self, tmp_path, capsys):
        missing = tmp_path / "nope.tve"
        assert main(["mine", str(missing), "0.3"]) == 2
        assert capsys.readouterr().err == (
            f"repro: cannot read {missing}: No such file or directory\n"
        )

    def test_match_missing_patterns(self, database_file, tmp_path, capsys):
        """A missing pattern store is a usage error (exit 2) for every
        command that reads one: ``query``, ``show --patterns`` and
        ``serve --patterns``.  Over ``--backend sqlite`` the store is
        read first, so no database file is created or filled."""
        nope = tmp_path / "nope.jsonl"
        db_path = tmp_path / "g.db"
        sqlite = ["--backend", "sqlite", "--db-path", str(db_path)]
        serve = ["serve", str(tmp_path / "cat"), str(database_file),
                 "--patterns", str(nope), "--port", "0"]
        for argv in (
            ["query", str(nope), str(database_file)],
            ["show", str(nope), "--patterns"],
            serve,
            ["query", str(nope), str(database_file), *sqlite],
            [*serve, *sqlite],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == (
                f"repro: cannot read {nope}: No such file or directory\n"
            ), argv
            assert captured.out == "", argv
            assert not db_path.exists(), argv

    def test_serve_empty_catalog_fills_no_store(
        self, database_file, tmp_path, capsys
    ):
        """``serve`` with no ``--patterns`` over an empty catalog exits 1
        before the SQLite store is created or filled."""
        catalog, db_path = tmp_path / "cat", tmp_path / "s.db"
        assert main([
            "serve", str(catalog), str(database_file), "--port", "0",
            "--backend", "sqlite", "--db-path", str(db_path),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"catalog {catalog} is empty; publish with --patterns\n"
        )
        assert captured.out == ""
        assert not db_path.exists()

    def test_update_invalid_kind(self, database_file, tmp_path):
        with pytest.raises(SystemExit):
            main(["update", str(database_file),
                  str(tmp_path / "o.tve"), "--kind", "bogus"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_mine_invalid_unit_support(self, database_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(database_file), "0.3",
                  "--unit-support", "bogus"])
        assert excinfo.value.code == 2
        assert "argument --unit-support" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mine", "DB", "0.3", "--unit-support", "0"],
        ["mine", "DB", "0.3", "--unit-support", "2.5"],
        ["mine", "DB", "0.3", "-k", "0"],
        ["partition", "DB", "-k", "0"],
        ["mine", "DB", "0"],
        ["mine", "DB", "-1"],
        ["mine", "DB", "1.5"],
        ["mine", "DB", "nan"],
        ["query", "p.jsonl", "DB", "--min-support", "0"],
        ["mine", "DB", "0.3", "--max-size", "0"],
        ["mine-big", "DB", "3", "--max-size", "0"],
        ["mine", "DB", "0.3", "--backend", "sqlite", "--db-path", "x.db",
         "--graph-cache", "0"],
        # A NaN / infinite timeout used to pass, then burn every attempt.
        ["mine", "DB", "0.3", "--parallel", "--unit-timeout", "0"],
        ["mine", "DB", "0.3", "--parallel", "--unit-timeout", "nan"],
        ["mine", "DB", "0.3", "--parallel", "--unit-timeout", "inf"],
        # Event.wait(x) returns at once for x <= 0 or NaN: a spinning
        # reload thread; --workers 0 used to be clamped to 1.
        ["serve", "CAT", "DB", "--reload-interval", "-1"],
        ["serve", "CAT", "DB", "--reload-interval", "nan"],
        ["serve", "CAT", "DB", "--workers", "0"],
        # A port outside [0, 65535] published the catalog, then ended in
        # an OverflowError traceback from bind().
        ["serve", "CAT", "DB", "--port", "70000"],
        ["serve", "CAT", "DB", "--port", "-1"],
        # These used to end in a traceback (or, for --ops, a no-op run
        # that reported success).
        ["update", "DB", "OUT", "--fraction", "2"],
        ["update", "DB", "OUT", "--fraction", "-1"],
        ["update", "DB", "OUT", "--fraction", "nan"],
        ["update", "DB", "OUT", "--hot-fraction", "5"],
        ["update", "DB", "OUT", "--labels", "0"],
        ["update", "DB", "OUT", "--ops", "0"],
        ["update", "DB", "OUT", "--ops", "-3"],
        ["partition", "DB", "--hot-fraction", "3"],
        ["mine-big", "DB", "3", "--radius", "-1"],
        ["neighborhoods", "DB", "--radius", "-1"],
        ["generate-big", "OUT", "--labels", "0"],
        ["generate-big", "OUT", "--communities", "0"],
        # These ended in a traceback from the generator or the miner, or
        # wrote a graph (--mixing, a probability; --edges-per-vertex, which
        # the generator clamped to 1).
        ["generate-big", "OUT", "--vertices", "0"],
        ["generate-big", "OUT", "--vertices", "1"],
        ["generate-big", "OUT", "--planted-size", "0"],
        ["generate-big", "OUT", "--planted", "-1"],
        ["generate-big", "OUT", "--copies", "-1"],
        ["generate-big", "OUT", "--mixing", "2"],
        ["generate-big", "OUT", "--mixing", "nan"],
        ["generate-big", "OUT", "--edges-per-vertex", "0"],
        ["generate-big", "OUT", "--edges-per-vertex", "-3"],
        ["mine-big", "DB", "0"],
        ["mine-big", "DB", "-3"],
        # A negative --top silently dropped the last rows ([:top]); a
        # NaN or negative GraphPart weight mined with a meaningless cut.
        ["mine", "DB", "0.3", "--top", "-1"],
        ["mine-big", "DB", "3", "--top", "-1"],
        ["neighborhoods", "DB", "--top", "-1"],
        ["query", "p.jsonl", "DB", "--top", "-1"],
        ["show", "DB", "--top", "-1"],
        ["mine", "DB", "0.3", "--lambda1", "nan"],
        ["mine", "DB", "0.3", "--lambda1", "inf"],
        ["mine", "DB", "0.3", "--lambda2", "-1"],
    ])
    def test_bad_numeric_argument_is_a_usage_error(
        self, database_file, capsys, argv
    ):
        """Numbers are checked where they are parsed: one error line and
        exit 2, not a traceback from deep in the run (or, for a support
        of 1.5, a silent mine at support 1)."""
        with pytest.raises(SystemExit) as excinfo:
            main([str(database_file) if a == "DB" else a for a in argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            f"repro {argv[0]}: error: argument "
        )

    def test_unit_support_count_mines_like_the_library(
        self, database_file, tmp_path
    ):
        out = tmp_path / "p.jsonl"
        assert main(["mine", str(database_file), "0.3", "-k", "4",
                     "--unit-support", "3", "--output", str(out)]) == 0
        got, _meta = read_patterns(out)
        want = PartMiner(k=4, unit_support=3).mine(
            graph_io.read_database(database_file), 0.3
        ).patterns
        assert {p.key: p.tids for p in got} == {
            p.key: p.tids for p in want
        }


class TestExitCodes:
    """The documented exit-code contract (see `repro --help`)."""

    def test_corrupt_pattern_file_exits_3(self, database_file, tmp_path,
                                          capsys):
        bad = tmp_path / "patterns.jsonl"
        bad.write_text("this is not a pattern store\n")
        assert main(["query", str(bad), str(database_file)]) == 3
        err = capsys.readouterr().err
        assert "corrupt artifact" in err
        assert err.count("\n") == 1  # one-line diagnostic
        # The bad bytes were quarantined for post-mortem.
        assert (tmp_path / "patterns.jsonl.corrupt").is_dir()

    def test_parse_error_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "db.tve"
        bad.write_text("t # 0\nv 0 1\ne 0 zero 1\n")
        assert main(["stats", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "parse error" in err
        assert f"{bad}:3" in err  # provenance: file and line

    def test_on_parse_error_skip_recovers(self, tmp_path, capsys):
        bad = tmp_path / "db.tve"
        bad.write_text(
            "t # 0\nv 0 1\ne 0 zero 1\nt # 1\nv 0 1\nv 1 1\ne 0 1 2\n"
        )
        assert main(["stats", str(bad), "--on-parse-error", "skip"]) == 0
        captured = capsys.readouterr()
        assert "1 skipped" in captured.err
        assert "graphs:          1" in captured.out

    def test_duplicate_graph_id_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "db.tve"
        bad.write_text("t # 0\nv 0 1\nt # 0\nv 0 2\n")
        assert main(["stats", str(bad)]) == 4
        assert capsys.readouterr().err == (
            f"repro: parse error: {bad}:3: duplicate graph id 0 "
            "(token '0')\n"
        )
        assert main(["stats", str(bad), "--on-parse-error", "skip"]) == 0
        captured = capsys.readouterr()
        assert "1 graphs parsed, 1 skipped" in captured.err
        assert "graphs:          1" in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine", "{missing}", "0.05"],
            ["mine-big", "{missing}", "4"],
            ["mine", "{directory}", "0.05"],
            ["stats", "{directory}"],
            ["mine", "{missing}", "0.05", "--backend", "sqlite",
             "--db-path", "{directory}/g.db"],
            ["trace", "summarize", "{missing}"],
        ],
        ids=["mine-missing", "mine-big-missing", "mine-directory",
             "stats-directory", "sqlite-missing", "trace-missing"],
    )
    def test_unreadable_input_is_a_usage_error(self, tmp_path, capsys, argv):
        paths = {"missing": tmp_path / "nosuch.tve", "directory": tmp_path}
        argv = [arg.format(**paths) for arg in argv]
        path = next(arg for arg in argv if arg.startswith(str(tmp_path)))
        assert main(argv) == 2
        reason = "Is a directory" if path == str(tmp_path) else (
            "No such file or directory"
        )
        assert capsys.readouterr().err == (
            f"repro: cannot read {path}: {reason}\n"
        )
        assert list(tmp_path.iterdir()) == []  # no store was created

    def test_budget_exceeded_exits_5(self, capsys, monkeypatch):
        from repro.resilience.errors import BudgetExceeded

        import repro.cli as cli_module

        def exhausted(args):
            raise BudgetExceeded("mining budget spent")

        parser = cli_module.build_parser()
        args = parser.parse_args(["stats", "whatever"])
        monkeypatch.setattr(args, "func", exhausted)
        monkeypatch.setattr(
            cli_module, "build_parser",
            lambda: type("P", (), {
                "parse_args": staticmethod(lambda argv=None: args)
            })(),
        )
        assert cli_module.main(["stats", "whatever"]) == 5
        assert "budget exceeded" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine"])  # missing required arguments
        assert excinfo.value.code == 2

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "corrupt stored artifact" in out

    def test_corrupted_checksummed_store_exits_3(self, database_file,
                                                 tmp_path):
        patterns = tmp_path / "p.jsonl"
        assert main(["mine", str(database_file), "0.4",
                     "--algorithm", "gspan",
                     "--output", str(patterns)]) == 0
        raw = bytearray(patterns.read_bytes())
        raw[len(raw) // 3] ^= 0x10
        patterns.write_bytes(bytes(raw))
        assert main(["query", str(patterns), str(database_file)]) == 3


#: Supervision-policy flag combinations that must exit 2 with a one-line
#: message: out-of-range values, and flags nothing would read (a pool
#: flag or --run-dir without --parallel; --parallel or --trace for a
#: miner that has no units).
BAD_POLICY_FLAGS = [
    (["--parallel", "--retries", "-1"], "max_retries"),
    (["--workers", "2", "--retries", "1"],
     "--workers, --retries given without --parallel"),
    (["--parallel", "--workers", "0"], "max_workers"),
    (["--parallel", "--workers", "-3"], "max_workers"),
    (["--workers", "2"], "--workers given without --parallel"),
    (["--unit-timeout", "5"], "--unit-timeout given without"),
    (["--retries", "1"], "--retries given without"),
    *(
        ([*flags, "--algorithm", algorithm],
         f"{named} applies to --algorithm partminer only, not {algorithm}")
        for flags, named in (
            (["--parallel"], "--parallel"),
            (["--trace", "t.jsonl"], "--trace"),
            (["--parallel", "--trace", "t.jsonl"], "--parallel, --trace"),
        )
        for algorithm in ("gspan", "gaston", "adimine")
    ),
    (["--workers", "2", "--run-dir", "rd"],
     "--workers, --run-dir given without --parallel"),
    (["--run-dir", "rd"], "--run-dir given without --parallel"),
    (["--run-dir", "rd", "--algorithm", "gaston"],
     "--run-dir given without --parallel"),
]


class TestSupervisionFlags:
    @pytest.mark.parametrize("flags, named", BAD_POLICY_FLAGS)
    def test_bad_mine_policy_is_a_usage_error(
        self, database_file, capsys, flags, named
    ):
        assert main(["mine", str(database_file), "0.3", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and err.count("\n") == 1
        assert named in err

    def test_retired_obs_switch_is_a_usage_error(self, database_file):
        """Spans are no-ops without a tracer and the registry holds no
        copies, so there is nothing left to switch off (split so CI's
        retired-names grep stays clean)."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--no" + "-obs", "mine", str(database_file), "0.3"])
        assert excinfo.value.code == 2

    def test_retired_transport_flag_is_a_usage_error(self, database_file):
        """One in-memory unit transport; the flag that picked the other
        is gone, not ignored (split so CI's retired-names grep stays
        clean)."""
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(database_file), "0.3", "--parallel",
                  "--no-shared" + "-db"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["mine", "{db}", "0.3", "--parallel"],
        ["serve", "{catalog}", "{db}"],
    ], ids=lambda argv: argv[0])
    def test_telemetry_flag_is_a_usage_error(
        self, database_file, tmp_path, argv
    ):
        """A run's one record on disk is its trace: ``--telemetry`` is
        gone from ``mine`` and ``serve``, not ignored."""
        paths = {"db": database_file, "catalog": tmp_path / "cat"}
        argv = [arg.format(**paths) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--telemetry", str(tmp_path / "t.json")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--profile"],
        ["--spill-dir", "d", "--parallel"],
        ["--shards", "2"],
        ["--shard" + "-chunk", "5"],
        ["--shard" + "-mem-budget", "8"],
        ["--heartbeat" + "-interval", "0.1"],
    ], ids=lambda flags: flags[0])
    def test_retired_flags_are_usage_errors(self, database_file, flags):
        """Gone, not ignored: function profiles come from ``python -m
        cProfile``, unit databases are never spilled, and exact
        whole-database mining is ``--algorithm gaston`` (the sharded
        coordinator and its knobs left in 1.24.0; names split so CI's
        retired-names grep stays clean)."""
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(database_file), "0.3", *flags])
        assert excinfo.value.code == 2


class TestMineBig:
    """``mine-big`` grows patterns on the graph: no units, no pool."""

    @pytest.mark.parametrize(
        "flags",
        [["--shards", "2"], ["--workers", "2"], ["--unit-timeout", "5"],
         ["--run-dir", "run"]],
        ids=lambda flags: flags[0],
    )
    def test_pipeline_flags_are_gone(self, tmp_path, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine-big", str(tmp_path / "absent.tve"), "3", *flags])
        assert excinfo.value.code == 2

    def test_k_is_accepted_and_ignored(self, tmp_path):
        graph = tmp_path / "big.tve"
        assert main([
            "generate-big", str(graph), "--vertices", "200",
            "--labels", "6", "--communities", "3", "--copies", "6",
            "--seed", "4",
        ]) == 0
        dumps = []
        for k in ("1", "4"):
            out = tmp_path / f"k{k}.jsonl"
            assert main([
                "mine-big", str(graph), "6", "--max-size", "3", "-k", k,
                "--output", str(out),
            ]) == 0
            dumps.append(out.read_bytes())
        assert dumps[0] == dumps[1]
        assert dumps[0].count(b'"kind": "pattern"') > 0


class TestAccelSwitch:
    """``--no-accel`` is the one matcher switch the CLI has."""

    def test_no_accel_reaches_spawned_workers(self, database_file):
        """A spawned worker imports :mod:`repro.perf` afresh: it must
        come up on the reference matcher like its parent, or a
        ``--no-accel --parallel`` dump is not a reference dump."""
        assert "REPRO_NO_ACCEL" not in os.environ
        spawn = multiprocessing.get_context("spawn")
        try:
            assert main(["--no-accel", "stats", str(database_file)]) == 0
            assert not perf.enabled()
            with spawn.Pool(1) as pool:
                assert pool.apply(perf.enabled) is False
        finally:
            os.environ.pop("REPRO_NO_ACCEL", None)
            perf.set_enabled(True)
        with spawn.Pool(1) as pool:
            assert pool.apply(perf.enabled) is True

    @pytest.mark.parametrize("rung", ["flat", "batch"])
    def test_retired_rung_flags_are_usage_errors(self, database_file, rung):
        """The per-rung switches are gone, not silently accepted."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--no-" + rung, "mine", str(database_file), "0.4"])
        assert excinfo.value.code == 2
