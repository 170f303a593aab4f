"""The figure driver: its claim predicates, the result record, the report."""

import pytest

from benchmarks.figures import (
    FIGURES,
    Experiment,
    Figure,
    below,
    run,
)
from benchmarks.plots import SERIES_COLORS

BY_ID = {fig.id: fig for fig in FIGURES}


def experiment(exp_id, series):
    """An experiment from ``{series name: {x: y}}``."""
    exp = Experiment(exp_id, "demo", "x", "runtime (s)")
    for name, points in series.items():
        line = exp.new_series(name)
        for x, y in points.items():
            line.add(x, y)
    return exp


def flat(value, xs=(1, 2)):
    return {x: value for x in xs}


FIG13 = {"ADIMINE": flat(5), "METIS": flat(3), "Partition1": flat(2),
         "Partition2": flat(1), "Partition3": flat(1.5)}
FIG14A = {"ADIMINE": {0.015: 2, 0.02: 2, 0.06: 1},
          "PartMiner": {0.015: 90, 0.02: 1, 0.06: 0.5}}
FIG15A = {"ADIMINE": flat(9, (2, 3)), "PartMiner aggregate": {2: 1, 3: 2},
          "PartMiner parallel": {2: 1, 3: 1.5}}

#: (figure, series the paper's claim holds on, what breaks it)
CLAIMS = [
    ("fig13a", FIG13, {"Partition3": flat(0.5)}),
    ("fig13a", FIG13, {"METIS": {1: 3, 2: 6}}),
    ("fig13b", {**FIG13, "Partition3": flat(0.5)}, {"Partition3": flat(2)}),
    ("fig14a", FIG14A, {"PartMiner": {0.015: 1, 0.02: 1, 0.06: 0.5}}),
    ("fig14a", FIG14A, {"PartMiner": {0.015: 90, 0.02: 1, 0.06: 1.5}}),
    ("fig14a", FIG14A, {"ADIMINE": {0.06: 2}, "PartMiner": {0.06: 1}}),
    ("fig14b", {"ADIMINE": flat(3), "PartMiner (full re-run)": flat(2),
                "IncPartMiner": flat(1)},
     {"PartMiner (full re-run)": flat(0.5)}),
    ("fig15a", FIG15A, {"PartMiner aggregate": {2: 2, 3: 1.9}}),
    ("fig15a", FIG15A, {"PartMiner parallel": {2: 1, 3: 2.5}}),
    ("fig15a", FIG15A, {"ADIMINE": flat(1.8, (2, 3))}),
    ("fig15b", {"ADIMINE": flat(3), "IncPartMiner aggregate": flat(2),
                "IncPartMiner parallel": flat(1)},
     {"IncPartMiner aggregate": {1: 2, 2: 4}}),
    ("fig16a", {"ADIMINE": flat(2), "PartMiner": flat(1)},
     {"PartMiner": {1: 1, 2: 2}}),
    ("fig16b", {"ADIMINE": flat(2), "PartMiner": flat(1)},
     {"PartMiner": {1: 3, 2: 1}}),
    ("fig17a", {"ADIMINE": flat(2), "IncPartMiner": flat(1)},
     {"IncPartMiner": {1: 1, 2: 2.5}}),
    ("fig17b", {"ADIMINE": flat(2), "IncPartMiner": flat(1)},
     {"IncPartMiner": flat(2)}),
]


@pytest.mark.parametrize(
    "fig_id, holds, breaks", CLAIMS, ids=[c[0] for c in CLAIMS]
)
def test_claim_predicates(fig_id, holds, breaks):
    fig = BY_ID[fig_id]
    assert fig.holds(experiment(fig_id, holds))
    assert not fig.holds(experiment(fig_id, {**holds, **breaks}))


THREE, FOUR = "recall (paper's 3 joins)", "recall (+ P(S0) x P(S1) join)"
#: (ablation, series its sweep checks pass on, what fails one)
SWEEP_CHECKS = [
    ("abl1", {"recall": {0: 1.0, 1: 1.0, 2: 0.9}},
     {"recall": {0: 1.0, 1: 0.8, 2: 0.9}}),
    ("abl2", {THREE: flat(1.0), FOUR: flat(1.0)}, {FOUR: {1: 1.0, 2: 0.9}}),
    ("abl2", {THREE: flat(0.9), FOUR: flat(1.0)}, {THREE: {1: 1.0, 2: 0.9},
                                                  FOUR: {1: 0.95, 2: 1.0}}),
    ("abl3", {"FSG runtime (s)": flat(3), "gSpan runtime (s)": flat(1)},
     {"FSG runtime (s)": flat(0.5)}),
]


@pytest.mark.parametrize(
    "fig_id, passes, fails", SWEEP_CHECKS, ids=[c[0] for c in SWEEP_CHECKS]
)
def test_sweep_checks(fig_id, passes, fails):
    verify = BY_ID[fig_id].verify
    assert all(ok for ok, _ in verify(experiment(fig_id, passes)))
    assert not all(ok for ok, _ in verify(
        experiment(fig_id, {**passes, **fails})
    ))


def test_the_table_is_the_papers_evaluation():
    assert [fig.id for fig in FIGURES] == [
        "fig13a", "fig13b", "fig14a", "fig14b", "fig15a", "fig15b",
        "fig16a", "fig16b", "fig17a", "fig17b", "tbl1",
        "abl1", "abl2", "abl3", "abl4",
    ]
    for fig in FIGURES:
        assert len(fig.series) <= len(SERIES_COLORS), fig.id
        assert set(fig.quick) <= set(fig.full), fig.id
    # Every claim has a case above, holding and broken.
    assert {fig.id for fig in FIGURES if fig.claim} == {c[0] for c in CLAIMS}


def test_run_saves_charts_renders_the_report_and_fails_on_a_check(tmp_path):
    def halved(pt):
        pt.check(pt.x < 2, "x stays below 2")
        return pt.once("step", lambda: -1.0) / 2  # doubled's step, reused

    fig = Figure(
        "demo", "Demo ({dataset})", "x", "y", "x", {"dataset": "D1"},
        [1, 2], [1],
        {"doubled": lambda pt: pt.once("step", lambda: pt.x * 2.0),
         "halved": halved,
         "base": lambda pt: pt.once("base", lambda: 9.0 + pt.x, shared=True)},
        "doubled is below base", lambda e: below(e, "doubled", "base"),
    )
    report = tmp_path / "EXPERIMENTS.md"
    assert run([fig], True, tmp_path, report) == 0
    assert Experiment.load(tmp_path / "demo.json").title == "Demo (D1)"
    assert (tmp_path / "demo.svg").read_text().startswith("<svg")
    text = report.read_text()
    assert "| demo | doubled is below base | yes |" in text
    assert "| 1 | 2.000 | 1.000 | 10.000 |" in text
    assert "checks: 1 of 1 passed" in text

    assert run([fig], False, tmp_path, report) == 1
    saved = Experiment.load(tmp_path / "demo.json")
    assert saved.values("halved") == {1: 1.0, 2: 2.0}  # once per point
    assert saved.values("base") == {1: 10.0, 2: 10.0}  # once per sweep
    assert "**failed:** x=2: x stays below 2" in report.read_text()


def test_a_figure_that_raises_stops_the_run(tmp_path):
    def broken(pt):
        raise ValueError("no data")

    fig = Figure("broken", "Broken", "x", "y", "x", {}, [1], [1],
                 {"y": broken})
    with pytest.raises(RuntimeError, match="broken: its child exited 1"):
        run([fig], True, tmp_path, tmp_path / "EXPERIMENTS.md")
