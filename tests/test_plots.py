"""Tests for the SVG chart renderer."""

import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from benchmarks.figures import FIGURES, Experiment
from benchmarks.plots import SERIES_COLORS, _nice_ticks, render_line_chart


def build_experiment(series_specs):
    exp = Experiment("figx", "Demo figure", "minsup", "runtime (s)")
    for name, points in series_specs:
        s = exp.new_series(name)
        for x, y in points:
            s.add(x, y)
    return exp


def parse(svg_text):
    return ET.fromstring(svg_text)


def geometry_ok(svg_text):
    """No mark or text outside the canvas; end labels don't collide."""
    root = parse(svg_text)
    width = float(root.get("width"))
    height = float(root.get("height"))
    labels = []
    for el in root.iter():
        tag = el.tag.split("}")[-1]
        if tag == "circle":
            cx, cy = float(el.get("cx")), float(el.get("cy"))
            assert 0 <= cx <= width and 0 <= cy <= height, (cx, cy)
        elif tag == "text":
            x, y = float(el.get("x")), float(el.get("y"))
            assert 0 <= x <= width and 0 <= y <= height, el.text
            if x > width - 170 and y > 50:
                labels.append(y)
        elif tag == "polyline":
            for point in el.get("points").split():
                px, py = map(float, point.split(","))
                assert -1 <= px <= width + 1 and -1 <= py <= height + 1
    labels.sort()
    for a, b in zip(labels, labels[1:]):
        assert b - a >= 12, "direct labels collide"
    return True


class TestNiceTicks:
    def test_covers_range(self):
        for low, high in [(0, 1.445), (0, 104.8), (0.1, 0.9), (0, 5)]:
            ticks = _nice_ticks(low, high)
            assert ticks[0] <= low
            assert ticks[-1] >= high - 1e-9
            diffs = [b - a for a, b in zip(ticks, ticks[1:])]
            assert all(abs(d - diffs[0]) < 1e-9 for d in diffs)

    def test_degenerate_range(self):
        ticks = _nice_ticks(2.0, 2.0)
        assert ticks[0] <= 2.0 <= ticks[-1]


class TestRenderLineChart:
    def test_valid_svg_with_expected_parts(self):
        exp = build_experiment(
            [
                ("PartMiner", [(1, 0.5), (2, 0.8), (3, 1.4)]),
                ("ADIMINE", [(1, 1.2), (2, 1.1), (3, 1.0)]),
            ]
        )
        svg = render_line_chart(exp)
        root = parse(svg)  # well-formed XML
        assert root.tag.endswith("svg")
        assert svg.count("<polyline") == 2
        assert "PartMiner" in svg and "ADIMINE" in svg
        assert "Demo figure" in svg
        assert SERIES_COLORS[0] in svg and SERIES_COLORS[1] in svg
        assert geometry_ok(svg)

    def test_log_scale_for_wide_ranges(self):
        exp = build_experiment(
            [("PartMiner", [(1, 0.1), (2, 0.5), (3, 110.0)])]
        )
        svg = render_line_chart(exp)
        assert "log scale" in svg
        assert geometry_ok(svg)

    def test_linear_scale_for_narrow_ranges(self):
        exp = build_experiment([("a", [(1, 1.0), (2, 2.0)])])
        assert "log scale" not in render_line_chart(exp)

    def test_tooltips_present_per_point(self):
        exp = build_experiment([("a", [(1, 1.0), (2, 2.0)])])
        svg = render_line_chart(exp)
        assert svg.count("<title>") == 2

    def test_text_escaping(self):
        exp = build_experiment([("a <b> & c", [(1, 1.0), (2, 2.0)])])
        svg = render_line_chart(exp)
        parse(svg)
        assert "a &lt;b&gt; &amp; c" in svg

    def test_fixed_color_assignment(self):
        """Colors follow series position, never get cycled or reshuffled."""
        one = build_experiment([("x", [(1, 1.0), (2, 2.0)])])
        two = build_experiment(
            [("y", [(1, 3.0), (2, 1.0)]), ("x", [(1, 1.0), (2, 2.0)])]
        )
        assert SERIES_COLORS[0] in render_line_chart(one)
        svg = render_line_chart(two)
        assert SERIES_COLORS[0] in svg and SERIES_COLORS[1] in svg

    def test_too_many_series_rejected(self):
        exp = build_experiment(
            [(f"s{i}", [(1, i), (2, i)]) for i in range(1, 8)]
        )
        with pytest.raises(ValueError, match="fixed palette"):
            render_line_chart(exp)

    def test_empty_experiment_rejected(self):
        exp = Experiment("e", "t", "x", "y")
        exp.new_series("empty")
        with pytest.raises(ValueError, match="no data"):
            render_line_chart(exp)

    def test_collision_nudging(self):
        """Series ending at the same value get separated labels."""
        exp = build_experiment(
            [
                ("alpha", [(1, 1.0), (2, 2.0)]),
                ("beta", [(1, 3.0), (2, 2.0)]),
                ("gamma", [(1, 0.5), (2, 2.0)]),
            ]
        )
        assert geometry_ok(render_line_chart(exp))


class TestSavePlots:
    def test_renders_saved_experiments(self, tmp_path):
        exp = build_experiment([("a", [(1, 1.0), (2, 2.0)])])
        saved = Experiment.load(exp.save(tmp_path))
        assert saved == exp
        svg = render_line_chart(saved)
        assert parse(svg).tag.endswith("svg")
        assert geometry_ok(svg)

    def test_real_results_render_cleanly(self):
        """Every figure the driver saved must chart without geometry
        faults (the permanent form of the eyeball pass)."""
        results = Path(__file__).resolve().parent.parent / (
            "benchmarks/results"
        )
        for fig in FIGURES:
            experiment = Experiment.load(results / f"{fig.id}.json")
            assert geometry_ok(render_line_chart(experiment)), fig.id
