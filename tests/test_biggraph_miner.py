"""End-to-end tests for BigGraphMiner, the large-graph datagen and CLI."""

from __future__ import annotations

import io
import random

import pytest

from repro.biggraph import BigGraphMiner
from repro.cli import main
from repro.datagen.large_graph import (
    LargeGraphSpec,
    generate_large_graph,
    planted_star,
)
from repro.graph.canonical import canonical_code
from repro.mining.store import dump_patterns, read_patterns

from .conftest import random_graph


def small_spec(**overrides) -> LargeGraphSpec:
    defaults = dict(
        vertices=300,
        edges_per_vertex=2,
        num_labels=6,
        communities=3,
        planted=2,
        copies=8,
        planted_size=3,
        seed=4,
    )
    defaults.update(overrides)
    return LargeGraphSpec(**defaults)


def dump_text(patterns) -> str:
    buffer = io.StringIO()
    dump_patterns(patterns, buffer)
    return buffer.getvalue()


class TestLargeGraphDatagen:
    def test_seed_deterministic(self):
        a = generate_large_graph(small_spec())
        b = generate_large_graph(small_spec())
        from repro.graph.io import write_graph

        out_a, out_b = io.StringIO(), io.StringIO()
        write_graph(a.graph, 0, out_a)
        write_graph(b.graph, 0, out_b)
        assert out_a.getvalue() == out_b.getvalue()

    def test_planted_patterns_use_reserved_labels(self):
        result = generate_large_graph(small_spec())
        spec = result.spec
        for planted in result.planted:
            assert all(
                label >= spec.num_labels
                for label in planted.graph.vertex_labels()
            )
            assert planted.copies == spec.copies

    def test_planted_stars_are_distinct(self):
        keys = {
            canonical_code(planted_star(i, num_labels=6))
            for i in range(4)
        }
        assert len(keys) == 4

    def test_graph_grows_by_planted_copies(self):
        with_planted = generate_large_graph(small_spec())
        without = generate_large_graph(small_spec(planted=0))
        spec = small_spec()
        grown = spec.planted * spec.copies * (spec.planted_size + 1)
        assert (
            with_planted.graph.num_vertices
            == without.graph.num_vertices + grown
        )


class TestBigGraphMiner:
    def test_recovers_every_planted_pattern_at_exact_mni(self):
        result = generate_large_graph(small_spec())
        mined = BigGraphMiner(radius=1, max_size=3).mine(
            result.graph, small_spec().copies
        )
        for planted in result.planted:
            pattern = mined.patterns.get(canonical_code(planted.graph))
            assert pattern is not None
            # Automorphism-free disjoint copies: MNI == copies exactly,
            # and the TID list is the minimum image set.
            assert pattern.support == planted.copies
            assert len(pattern.tids) == planted.copies

    def test_rejects_fractional_support(self):
        rng = random.Random(2)
        graph = random_graph(rng, 10)
        with pytest.raises(ValueError, match="absolute count"):
            BigGraphMiner().mine(graph, 0.5)

    def test_support_mode_is_gone(self):
        with pytest.raises(TypeError, match="support_mode"):
            BigGraphMiner(support_mode="mni")

    def test_pivot_labels_anchor_patterns(self):
        result = generate_large_graph(small_spec())
        spec = result.spec
        # Pivot only on planted centers' labels: the planted stars stay
        # visible, with far fewer neighborhoods to mine.
        centers = frozenset(
            planted.graph.vertex_label(0) for planted in result.planted
        )
        mined = BigGraphMiner(
            radius=1, max_size=3, pivot_labels=centers
        ).mine(result.graph, spec.copies)
        assert mined.pivots == spec.planted * spec.copies
        for planted in result.planted:
            assert (
                canonical_code(planted.graph) in mined.patterns.keys()
            )


class TestBigGraphCLI:
    @pytest.fixture
    def big_files(self, tmp_path):
        graph = tmp_path / "big.tve"
        planted = tmp_path / "planted.tve"
        assert main([
            "generate-big", str(graph),
            "--vertices", "300", "--labels", "6", "--communities", "3",
            "--planted", "2", "--copies", "8",
            "--planted-out", str(planted), "--seed", "4",
        ]) == 0
        return graph, planted

    def test_generate_big_deterministic(self, tmp_path):
        a, b = tmp_path / "a.tve", tmp_path / "b.tve"
        for path in (a, b):
            main([
                "generate-big", str(path),
                "--vertices", "120", "--seed", "9",
            ])
        assert a.read_text() == b.read_text()

    def test_mine_big_recall_and_artifact(self, big_files, tmp_path, capsys):
        graph, planted = big_files
        out = tmp_path / "patterns.jsonl"
        assert main([
            "mine-big", str(graph), "8", "--radius", "1",
            "--max-size", "3", "--output", str(out),
            "--check-planted", str(planted),
        ]) == 0
        assert "planted recall: 2/2" in capsys.readouterr().out
        patterns, meta = read_patterns(out)
        assert meta["workload"] == "biggraph"
        assert meta["support_mode"] == "mni"
        assert len(patterns) > 0

    def test_mine_big_trace_has_one_grow_span_per_level(
        self, big_files, tmp_path, capsys
    ):
        graph, _planted = big_files
        trace = tmp_path / "trace.jsonl"
        assert main([
            "mine-big", str(graph), "8", "--max-size", "3",
            "--trace", str(trace),
        ]) == 0
        assert main([
            "trace", "summarize", str(trace),
        ]) == 0
        text = capsys.readouterr().out
        assert text.count("biggraph.grow") == 3
        assert "lower_bound_patterns=0" in text
        assert "0 orphan(s)" in text

    def test_mine_big_missing_planted_fails(self, big_files, tmp_path, capsys):
        graph, _planted = big_files
        absent = tmp_path / "absent.tve"
        from repro.graph.io import write_graph

        with open(absent, "w", encoding="utf-8") as handle:
            write_graph(planted_star(7, num_labels=6), 0, handle)
        assert main([
            "mine-big", str(graph), "8", "--radius", "1",
            "--max-size", "3", "--check-planted", str(absent),
        ]) == 1
        assert "planted recall: 0/1" in capsys.readouterr().out

    def test_mine_big_rejects_multi_graph_input(self, tmp_path, capsys):
        multi = tmp_path / "multi.tve"
        assert main([
            "generate", "D5T5N5L5I2", str(multi), "--seed", "1"
        ]) == 0
        assert main(["mine-big", str(multi), "2"]) == 2
        assert "single large graph" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--backend", "sqlite"],
        ["--db-path", "g.db"],
        ["--graph-cache", "4"],
        ["--support-mode", "neighborhood"],
    ], ids=lambda flags: flags[0])
    def test_mine_big_retired_flags_are_usage_errors(
        self, big_files, flags, capsys
    ):
        graph, _planted = big_files
        with pytest.raises(SystemExit) as excinfo:
            main(["mine-big", str(graph), "8", *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_neighborhoods_summary_and_export(
        self, big_files, tmp_path, capsys
    ):
        graph, _ = big_files
        out = tmp_path / "units.tve"
        assert main([
            "neighborhoods", str(graph), "--radius", "1",
            "--output", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "neighborhoods at radius 1" in text
        with pytest.raises(SystemExit) as excinfo:
            main(["neighborhoods", str(graph), "--shards", "2"])
        assert excinfo.value.code == 2
        from repro.graph.io import read_database

        units = read_database(out)
        assert len(units) > 0
