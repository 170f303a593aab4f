"""Tests for the figure driver's result record: series, JSON, table."""

from benchmarks.figures import Experiment, Series, markdown_table


class TestSeries:
    def test_add_and_ys(self):
        s = Series("pm")
        s.add(1, 10.0)
        s.add(2, 20.0)
        assert s.ys() == [10.0, 20.0]
        assert s.points == [(1, 10.0), (2, 20.0)]


class TestExperiment:
    def build(self):
        exp = Experiment("fig_x", "demo", "minsup", "runtime (s)")
        a = exp.new_series("PartMiner")
        a.add(1, 1.5)
        a.add(2, 1.0)
        b = exp.new_series("ADIMINE")
        b.add(1, 2.0)
        b.add(2, 3.0)
        return exp

    def test_format_table_contains_values(self):
        assert markdown_table(self.build()).splitlines() == [
            "| minsup | PartMiner | ADIMINE |", "| --- | --- | --- |",
            "| 1 | 1.500 | 2.000 |", "| 2 | 1.000 | 3.000 |",
        ]

    def test_format_handles_missing_points(self):
        exp = Experiment("e", "t", "x", "y")
        exp.new_series("a").add(1, 1.0)
        exp.new_series("b").add(2, 2.0)
        assert markdown_table(exp).splitlines()[2:] == [
            "| 1 | 1.000 | — |", "| 2 | — | 2.000 |",
        ]

    def test_save_and_load_roundtrip(self, tmp_path):
        exp = self.build()
        exp.notes["dataset"] = "D10T5N5L5I2"
        exp.check(True, "sound")
        path = exp.save(tmp_path)
        assert path == tmp_path / "fig_x.json"
        back = Experiment.load(path)
        assert back == exp
        assert [s.name for s in back.series] == ["PartMiner", "ADIMINE"]
        assert back.series[0].points == [(1, 1.5), (2, 1.0)]
        assert back.values("ADIMINE") == {1: 2.0, 2: 3.0}
        assert back.failed_checks() == []
