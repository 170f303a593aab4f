"""Tests for the benchmark harness."""

from repro.bench.harness import Experiment, Series, dominates, load_experiment


class TestSeries:
    def test_add_and_ys(self):
        s = Series("pm")
        s.add(1, 10.0)
        s.add(2, 20.0)
        assert s.ys() == [10.0, 20.0]


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
        table = self.build().format_table()
        assert "PartMiner" in table
        assert "ADIMINE" in table
        assert "1.500" in table
        assert "fig_x" in table

    def test_format_handles_missing_points(self):
        exp = Experiment("e", "t", "x", "y")
        a = exp.new_series("a")
        a.add(1, 1.0)
        b = exp.new_series("b")
        b.add(2, 2.0)
        table = exp.format_table()
        assert "-" in table

    def test_save_and_load_roundtrip(self, tmp_path):
        exp = self.build()
        exp.notes["dataset"] = "D10T5N5L5I2"
        path = exp.save(tmp_path)
        back = load_experiment(path)
        assert back.exp_id == exp.exp_id
        assert back.notes == exp.notes
        assert [s.name for s in back.series] == ["PartMiner", "ADIMINE"]
        assert back.series[0].points == [(1, 1.5), (2, 1.0)]


class TestDominates:
    def test_dominates(self):
        fast = Series("fast", [(1, 1.0), (2, 1.0)])
        slow = Series("slow", [(1, 2.0), (2, 2.0)])
        assert dominates(fast, slow)
        assert not dominates(slow, fast)

    def test_no_shared_points(self):
        a = Series("a", [(1, 1.0)])
        b = Series("b", [(2, 2.0)])
        assert not dominates(a, b)
