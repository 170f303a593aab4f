"""Tests for the figure driver's report: tables, series lookup, render."""

import pytest

from benchmarks.figures import (
    Experiment,
    Figure,
    below,
    markdown_table,
    render_report,
)


def build_experiment():
    exp = Experiment("figx", "demo", "minsup", "runtime (s)")
    a = exp.new_series("PartMiner")
    a.add(1, 2.0)
    a.add(2, 1.0)
    a.add(3, 1.0)
    b = exp.new_series("ADIMINE")
    b.add(1, 1.0)
    b.add(2, 2.0)
    b.add(3, 4.0)
    return exp


class TestMarkdownTable:
    def test_contains_all_cells(self):
        table = markdown_table(build_experiment())
        assert "| minsup | PartMiner | ADIMINE |" in table
        assert "| 1 | 2.000 | 1.000 |" in table
        assert "| 3 | 1.000 | 4.000 |" in table

    def test_missing_values_rendered(self):
        exp = Experiment("e", "t", "x", "y")
        exp.new_series("a").add(1, 1.0)
        exp.new_series("b").add(2, 2.0)
        assert "| 1 | 1.000 | — |" in markdown_table(exp)


class TestFindSeries:
    def test_missing_raises(self):
        exp = build_experiment()
        assert exp.values("ADIMINE") == {1: 1.0, 2: 2.0, 3: 4.0}
        with pytest.raises(KeyError):
            exp.values("Gaston")
        with pytest.raises(KeyError):
            exp.values("adimine")  # names match exactly


class TestLoadAndRender:
    def test_roundtrip_directory(self, tmp_path):
        exp = build_experiment()
        exp.notes["wall_s"] = 1.5
        exp.check(False, "x=2: sound")
        saved = Experiment.load(exp.save(tmp_path))
        fig = Figure(
            "figx", "demo", "minsup", "runtime (s)", "minsup", {}, [1, 2, 3],
            [1], {}, "PartMiner is below ADIMINE",
            lambda e: below(e, "PartMiner", "ADIMINE"),
        )
        report = render_report([fig], {"figx": saved}, tmp_path,
                               tmp_path / "EXPERIMENTS.md", quick=False)
        assert "| figx | PartMiner is below ADIMINE | no |" in report
        assert "### figx: demo" in report
        assert "![figx](figx.svg)" in report
        assert "| minsup | PartMiner | ADIMINE |" in report
        assert "checks: 0 of 1 passed; **failed:** x=2: sound" in report
        assert "- wall time: 1.5 s" in report
