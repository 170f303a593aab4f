"""The paper's evaluation (Section 5: Figs 13-17, Table 1) and four ablations.

    python benchmarks/figures.py          # ~6 min: results/, EXPERIMENTS.md
    python benchmarks/figures.py --quick  # ~40 s: short sweeps into .quick/

``FIGURES`` is the one table of figure specs: id, title, axes, dataset
parameters, a ``full`` and a ``quick`` sweep, one callable per series and
the paper's claim.  One loop runs every spec, saves its series and chart,
and renders EXPERIMENTS.md from the saved files.  A *check* is an
exactness fact (soundness against a whole-database miner, lossless recall,
generator ranges): a failed one fails the run.  A *claim* is the paper's
expected shape (DESIGN.md section 5), a predicate over the saved series
whose verdict fills the "Reproduced?" column; it never fails the run.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.plots import render_line_chart  # noqa: E402
from repro.core.incremental import IncrementalPartMiner  # noqa: E402
from repro.core.partminer import PartMiner  # noqa: E402
from repro.datagen.synthetic import (  # noqa: E402
    DatasetSpec, SyntheticGenerator, generate_dataset,
)
from repro.mining.adi.adimine import ADIMiner  # noqa: E402
from repro.mining.fsg import FSGMiner  # noqa: E402
from repro.mining.gaston import GastonMiner  # noqa: E402
from repro.mining.gspan import GSpanMiner  # noqa: E402
from repro.partition.graphpart import GraphPartitioner  # noqa: E402
from repro.partition.metis import MetisPartitioner  # noqa: E402
from repro.partition.weights import (  # noqa: E402
    PARTITION1, PARTITION2, PARTITION3,
)
from repro.resilience import integrity  # noqa: E402
from repro.updates.generator import UpdateGenerator  # noqa: E402
from repro.updates.stream import UpdateStream  # noqa: E402
from repro.updates.tracker import hot_vertex_assignment  # noqa: E402

RESULTS = ROOT / "benchmarks" / "results"
QUICK_RESULTS = ROOT / "benchmarks" / ".quick"


@dataclass
class Series:
    """One line of a figure: ``(x, y)`` points plus a legend name."""

    name: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    def ys(self) -> list[float]:
        return [y for _, y in self.points]


@dataclass
class Experiment:
    """A reproduced figure or table: id, axes, series and notes."""

    exp_id: str
    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def new_series(self, name: str) -> Series:
        series = Series(name)
        self.series.append(series)
        return series

    def values(self, name: str) -> dict[float, float]:
        """The named series as ``{x: y}``."""
        for series in self.series:
            if series.name == name:
                return dict(series.points)
        raise KeyError(f"{self.exp_id} has no series {name!r}")

    def check(self, ok: bool, what: str) -> None:
        """Record one check; a failed one fails the run."""
        self.notes.setdefault("checks", []).append([what, bool(ok)])

    def failed_checks(self) -> list[str]:
        return [what for what, ok in self.notes.get("checks", []) if not ok]

    def save(self, directory: str | Path) -> Path:
        """Write ``<directory>/<exp_id>.json`` atomically (a crash mid-dump
        must not leave a truncated file for the report to read)."""
        path = Path(directory) / f"{self.exp_id}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        integrity.atomic_write_json(path, {
            "exp_id": self.exp_id, "title": self.title,
            "x_label": self.x_label, "y_label": self.y_label,
            "notes": self.notes,
            "series": [{"name": s.name, "points": s.points}
                       for s in self.series],
        })
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Experiment":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        series = [Series(raw["name"], [tuple(xy) for xy in raw["points"]])
                  for raw in data.pop("series")]
        return cls(**data, series=series)


def markdown_table(experiment: Experiment) -> str:
    """One Markdown table: the x column, then one column per series."""
    columns = [dict(s.points) for s in experiment.series]
    rows = [[experiment.x_label] + [s.name for s in experiment.series],
            ["---"] * (len(columns) + 1)]
    rows += [[f"{x:g}"] + ["—" if x not in c else f"{c[x]:.3f}"
                           for c in columns]
             for x in sorted({x for c in columns for x in c})]
    return "\n".join("| " + " | ".join(row) + " |" for row in rows)


# ADIMINE's disk model: 1 ms per uncached page read over a 16-page buffer
# restores the disk-bound regime of the paper's evaluation (multi-GB
# database, 2006 commodity disk) at these database sizes (DESIGN.md).
ADI_READ_DELAY = 0.001
ADI_CACHE_PAGES = 16


def timed(run: Callable, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = run(*args, **kwargs)
    return time.perf_counter() - start, result


def adimine(db, minsup, updated=None):
    """``(seconds, patterns)`` of a cold ADIMINE mine or, given ``updated``,
    of its rebuild + re-mine after the batch (the first mine is warm-up)."""
    with ADIMiner(cache_pages=ADI_CACHE_PAGES,
                  read_delay=ADI_READ_DELAY) as miner:
        if updated is None:
            return timed(miner.mine, db, minsup)
        miner.mine(db, minsup)
        return timed(miner.mine_updated, updated, minsup)


PARTITIONERS = {
    "METIS": MetisPartitioner,
    "Partition1": lambda: GraphPartitioner(PARTITION1),
    "Partition2": lambda: GraphPartitioner(PARTITION2),
    "Partition3": lambda: GraphPartitioner(PARTITION3),
}


class Point:
    """One x of a sweep: ``p`` is the spec's parameters with the swept one
    set to ``x``.  :meth:`once` runs a step the first time a series asks
    for it, whatever the legend order; ``shared`` keeps it for the sweep
    (a dataset, or a baseline the swept parameter does not change)."""

    def __init__(self, fig, experiment, x, sweep_memo):
        self.exp, self.x, self.vary = experiment, x, fig.vary
        self.p = {**fig.params, fig.vary: x}
        self._memo, self._sweep_memo = {}, sweep_memo

    def once(self, key, step: Callable, shared: bool = False):
        memo = self._sweep_memo if shared else self._memo
        if key not in memo:
            memo[key] = step()
        return memo[key]

    def check(self, ok: bool, what: str) -> None:
        self.exp.check(ok, f"x={self.x:g}: {what}")

    def dataset(self, name: str, seed: int):
        return self.once(name, lambda: generate_dataset(name, seed=seed),
                         shared=True)

    @property
    def db(self):
        return self.dataset(self.p["dataset"].format(**self.p),
                            self.p["seed"])

    @property
    def ufreq(self):
        return self.once(("ufreq", self.p["dataset"]), lambda: (
            hot_vertex_assignment(self.db, 0.2, seed=self.p["ufreq_seed"])
        ), shared=True)


def per_point(step: Callable) -> Callable:
    """Run ``step(pt, *args)`` once per point and arguments (a ``None``
    argument and an omitted one are the same run)."""
    return lambda pt, *args: pt.once(
        (step.__name__, *(a for a in args if a is not None)),
        lambda: step(pt, *args),
    )


def adimine_static(pt: Point):
    # ADIMINE and Gaston do not depend on k: one run serves a k sweep.
    return pt.once("adimine", lambda: adimine(pt.db, pt.p["minsup"]),
                   shared=pt.vary == "k")


@per_point
def partminer(pt: Point, partitioner: str | None = None):
    factory = PARTITIONERS.get(partitioner)
    return PartMiner(
        k=pt.p.get("k", 2), partitioner=factory and factory(),
    ).mine(pt.db, pt.p["minsup"], ufreq=factory and pt.ufreq)


def gaston_static(pt: Point) -> float:
    """Whole-database Gaston; checks ADIMINE and PartMiner against it."""
    seconds, truth = pt.once(
        "gaston", lambda: timed(GastonMiner().mine, pt.db, pt.p["minsup"]),
        shared=pt.vary == "k",
    )
    pm = partminer(pt).patterns
    pt.check(adimine_static(pt)[1].keys() == truth.keys(),
             "ADIMINE's pattern keys equal Gaston's")
    pt.check(all(p.key in truth and truth.get(p.key).support == p.support
                 for p in pm),
             "PartMiner's patterns are Gaston's, with equal supports")
    recall = len(pm.keys() & truth.keys()) / max(1, len(truth))
    pt.exp.notes.setdefault("partminer_recall_vs_gaston", []).append(
        [pt.x, round(recall, 4)]
    )
    return seconds


@per_point
def session(pt: Point, partitioner: str | None = None):
    """Initial PartMiner run (untimed), then one timed update batch:
    ``(seconds, IncrementalResult, miner)``."""
    factory = PARTITIONERS.get(partitioner)
    inc = IncrementalPartMiner(
        k=pt.p.get("k", 2), partitioner=factory and factory()
    )
    inc.initial_mine(pt.db, pt.p["minsup"], ufreq=pt.ufreq)
    amount = pt.p.get("amount")
    updates = UpdateGenerator(
        num_vertex_labels=15, num_edge_labels=15,
        seed=77 if amount is None else int(amount * 100),
    ).generate(inc.database, inc.ufreq, amount or 0.4, 1,
               pt.p.get("kind", "mixed"))
    return (*timed(inc.apply_updates, updates), inc)


def adimine_after(pt: Point, partitioner=None, shared=False) -> float:
    """ADIMINE on the updated database of one update session (the first
    point's, for the whole sweep, when ``shared``)."""
    return pt.once("adimine", lambda: adimine(
        pt.db, pt.p["minsup"], updated=session(pt, partitioner)[2].database
    ), shared=shared)[0]


def partminer_rerun(pt: Point) -> float:
    """A full PartMiner re-run over the session's updated database."""
    inc = session(pt)[2]
    return PartMiner(k=2).mine(
        inc.database, pt.p["minsup"], ufreq=inc.ufreq
    ).aggregate_time


@per_point
def generated(pt: Point):
    generator = SyntheticGenerator(DatasetSpec(
        num_graphs=60, avg_edges=pt.x, num_labels=20, num_kernels=30,
        kernel_avg_edges=5, seed=31,
    ))
    db = generator.generate()
    pt.check(len(db) == 60, "the generator delivers D=60 graphs")
    pt.check(all(0 <= graph.vertex_label(v) < 20
                 for graph in db.graphs() for v in graph.vertices()),
             "vertex labels lie in 0..N-1 (N=20)")
    average = db.average_size()
    pt.check(0.8 * pt.x <= average <= 1.6 * pt.x,
             "delivered size within 0.8T..1.6T")
    kernels = generator.kernels
    return average, sum(k.num_edges for k in kernels) / len(kernels)


def truth_keys(pt: Point, db, shared: bool):
    return pt.once("truth", lambda: GSpanMiner().mine(db, pt.p["minsup"]),
                   shared=shared).keys()


@per_point
def unit_support_run(pt: Point):
    threshold = pt.db.absolute_support(pt.p["minsup"])
    pt.exp.notes["strategies"] = ["exact", "paper", f"fixed={threshold}"]
    strategy = ["exact", "paper", threshold][pt.x]
    truth = truth_keys(pt, pt.db, shared=True)
    seconds, result = timed(PartMiner(k=2, unit_support=strategy).mine,
                            pt.db, pt.p["minsup"])
    got = result.patterns.keys()
    pt.check(got <= truth, f"unit support {strategy!r} is sound")
    recall = len(got & truth) / max(1, len(truth))
    if strategy == "exact":
        pt.check(recall == 1.0, "exact unit support is lossless")
    return seconds, recall


@per_point
def joins_run(pt: Point, strict: bool):
    name = pt.p["datasets"][pt.x]
    if strict:  # the first of the point's two runs
        pt.exp.notes.setdefault("datasets", []).append(name)
    db = pt.dataset(name, 51 + pt.x)
    truth = truth_keys(pt, db, shared=False)
    seconds, result = timed(PartMiner(
        k=2, unit_support="exact", strict_paper_joins=strict,
    ).mine, db, pt.p["minsup"])
    got = result.patterns.keys()
    pt.check(got <= truth,
             f"{'3 paper joins' if strict else '4 joins'} are sound")
    return seconds, len(got & truth) / max(1, len(truth))


@per_point
def family_run(pt: Point, family: str):
    miner = {"FSG": FSGMiner, "gSpan": GSpanMiner,
             "Gaston": GastonMiner}[family]()
    seconds, patterns = timed(miner.mine, pt.db, pt.p["minsup"])
    if family == "Gaston":  # the last of the point's three runs
        gspan = family_run(pt, "gSpan")[1].keys()
        pt.check(family_run(pt, "FSG")[1].keys() == gspan,
                 "FSG and gSpan mine the same keys")
        pt.check(patterns.keys() == gspan,
                 "Gaston and gSpan mine the same keys")
    return seconds, patterns, miner.stats


@per_point
def drift_run(pt: Point):
    miner = IncrementalPartMiner(k=pt.p["k"])
    miner.initial_mine(pt.db, pt.p["minsup"], ufreq=pt.ufreq)
    stream = UpdateStream(
        miner.database, pt.ufreq, num_labels=15, fraction_graphs=0.25,
        ops_per_graph=1, kind="mixed", drift=pt.x, seed=73,
    )
    pairs = updated = total = 0
    for _, batch in stream.batches(pt.p["epochs"]):
        stats = miner.apply_updates(batch).stats
        pairs += stats.changed_piece_pairs
        updated += stats.updated_graphs
        total += stats.total_time
    locality = pairs / max(1, updated)
    pt.check(1.0 <= locality <= pt.p["k"],
             "units touched per updated graph in 1..k")
    return locality, total / pt.p["epochs"]


def below(e: Experiment, a: str, b: str, strict: bool = True) -> bool:
    """``a`` is below ``b`` (or equal, unless ``strict``) at every x."""
    ys, other = e.values(a), e.values(b)
    return bool(ys) and all(
        ys[x] < other[x] or (not strict and ys[x] == other[x]) for x in ys
    )


def lowest(e: Experiment, name: str, among) -> bool:
    """``name`` has the smallest total over the sweep among ``among``."""
    totals = {n: sum(e.values(n).values()) for n in among}
    return min(totals, key=totals.get) == name


def fig13_holds(best: str) -> Callable[[Experiment], bool]:
    return lambda e: lowest(e, best, PARTITIONERS) and all(
        below(e, name, "ADIMINE") for name in PARTITIONERS
    )


def fig14a_holds(e: Experiment) -> bool:
    pm, adi = e.values("PartMiner"), e.values("ADIMINE")
    return 0.015 in pm and pm[0.015] > adi[0.015] and all(
        pm[x] < adi[x] for x in pm if x >= 0.02
    )


def fig15a_holds(e: Experiment) -> bool:
    aggregate = [y for _, y in sorted(e.values(AGGREGATE).items())]
    return (all(a <= b for a, b in zip(aggregate, aggregate[1:]))
            and below(e, PARALLEL, AGGREGATE, strict=False)
            and below(e, AGGREGATE, "ADIMINE")
            and below(e, PARALLEL, "ADIMINE"))


@dataclass(frozen=True)
class Figure:
    id: str
    title: str  # formatted with ``params``
    x_label: str
    y_label: str
    vary: str  # the parameter the sweep sets
    params: dict  # dataset, seeds and the fixed parameters
    full: list  # the sweep
    quick: list  # the --quick sweep: a subset of ``full``
    series: dict[str, Callable[[Point], float]]
    claim: str | None = None
    holds: Callable[[Experiment], bool] | None = None
    #: Checks over the whole sweep: ``[(ok, what), ...]``.
    verify: Callable[[Experiment], list] = lambda e: []


SMALL = {"dataset": "D120T12N15L30I5", "seed": 1, "ufreq_seed": 11}
# Stand-ins for the paper's D50kT20N20L200I5 (SMALL) and D100kT20N20L200I9
# (LARGE, the k sweep).  LARGE keeps I5: heavier kernels put Python
# merge-join cost, not ADIMINE's disk, in charge and hide fig15's ordering.
# minsup keeps sup/k >= 2: at 1, unit mining is exhaustive enumeration.
LARGE = {"dataset": "D150T12N15L30I5", "seed": 2, "ufreq_seed": 12,
         "minsup": 0.06}
MINSUPS = [0.02, 0.03, 0.04, 0.05, 0.06]
AMOUNTS = [0.2, 0.4, 0.6, 0.8]
UPDATE_TIME = "update-handling runtime (s)"
AGGREGATE, PARALLEL = "PartMiner aggregate", "PartMiner parallel"
THREE_JOINS = "recall (paper's 3 joins)"
FOUR_JOINS = "recall (+ P(S0) x P(S1) join)"
GASTON = "Gaston (whole database)"
STATIC = {"ADIMINE": lambda pt: adimine_static(pt)[0],
          "PartMiner": lambda pt: partminer(pt).aggregate_time,
          GASTON: gaston_static}


def below_adimine(name: str) -> Callable[[Experiment], bool]:
    return lambda e: below(e, name, "ADIMINE")


FIGURES = [
    Figure(
        "fig13a", "Partitioning criteria, static ({dataset}, k=2)",
        "minsup", "runtime (s)", "minsup", SMALL, MINSUPS, [0.06],
        {"ADIMINE": STATIC["ADIMINE"], **{
            name: lambda pt, name=name: partminer(pt, name).aggregate_time
            for name in PARTITIONERS}},
        "Every partitioned run is below ADIMINE; Partition2 has the "
        "lowest total on static data", fig13_holds("Partition2"),
    ),
    Figure(
        "fig13b", "Partitioning criteria, dynamic ({dataset}, 40% updated)",
        "minsup", UPDATE_TIME, "minsup", SMALL, MINSUPS, [0.06],
        {"ADIMINE": lambda pt: adimine_after(pt, "Partition3"), **{
            name: lambda pt, name=name: session(pt, name)[0]
            for name in PARTITIONERS}},
        "Every partitioned run is below ADIMINE; Partition3 has the "
        "lowest total on dynamic data", fig13_holds("Partition3"),
    ),
    Figure(
        # The 1.5 % point sits below the paper's crossover, where
        # PartMiner's candidate explosion makes ADIMINE the better choice.
        "fig14a", "Runtime vs minsup, static ({dataset}, k=2)",
        "minsup", "runtime (s)", "minsup", SMALL,
        [0.015, 0.02, 0.03, 0.045, 0.06], [0.06], STATIC,
        "PartMiner is above ADIMINE at 1.5% support and below it at every "
        "point from 2%", fig14a_holds,
    ),
    Figure(
        "fig14b", "Runtime vs minsup, dynamic ({dataset}, 40% updated, k=2)",
        "minsup", UPDATE_TIME, "minsup", SMALL, MINSUPS, [0.06],
        {"ADIMINE": adimine_after, "PartMiner (full re-run)": partminer_rerun,
         "IncPartMiner": lambda pt: session(pt)[0]},
        "IncPartMiner is below both ADIMINE and the full PartMiner re-run",
        lambda e: below(e, "IncPartMiner", "ADIMINE")
        and below(e, "IncPartMiner", "PartMiner (full re-run)"),
    ),
    Figure(
        "fig15a",
        "Runtime vs number of units, static ({dataset}, minsup={minsup})",
        "k", "runtime (s)", "k", LARGE, [2, 3, 4, 5, 6], [2, 3],
        {"ADIMINE": STATIC["ADIMINE"],
         AGGREGATE: STATIC["PartMiner"],
         PARALLEL: lambda pt: partminer(pt).parallel_time,
         GASTON: gaston_static},
        "Aggregate time is non-decreasing in k, parallel <= aggregate, and "
        "both are below ADIMINE", fig15a_holds,
    ),
    Figure(
        "fig15b",
        "Runtime vs number of units, dynamic ({dataset}, 40% updated, "
        "minsup={minsup})",
        "k", UPDATE_TIME, "k", LARGE, [2, 3, 4, 5, 6], [2, 3],
        {"ADIMINE": lambda pt: adimine_after(pt, shared=True),
         "IncPartMiner aggregate": lambda pt: session(pt)[0],
         "IncPartMiner parallel":
             lambda pt: session(pt)[1].stats.parallel_time},
        "IncPartMiner is below ADIMINE in both modes",
        lambda e: below(e, "IncPartMiner aggregate", "ADIMINE")
        and below(e, "IncPartMiner parallel", "ADIMINE"),
    ),
    Figure(
        # Paper: T = 10..25, scaled to 8..20.
        "fig16a", "Scalability in T (D100N15L30I5, minsup=4%)",
        "T (avg edges)", "runtime (s)", "T",
        {"dataset": "D100T{T}N15L30I5", "seed": 21, "minsup": 0.04},
        [8, 12, 16, 20], [8, 12], STATIC,
        "PartMiner is below ADIMINE at every T", below_adimine("PartMiner"),
    ),
    Figure(
        # Paper: 50k..1000k graphs, scaled to 100..400.  Below ~100 graphs
        # ceil(0.04 D) drops to 2, the pattern-explosion regime of fig14a.
        "fig16b", "Scalability in D (T12N15L30I5, minsup=4%)",
        "D (graphs)", "runtime (s)", "D",
        {"dataset": "D{D}T12N15L30I5", "seed": 22, "minsup": 0.04},
        [100, 200, 300, 400], [100], STATIC,
        "PartMiner is below ADIMINE at every D", below_adimine("PartMiner"),
    ),
    *(
        Figure(
            fig_id, f"{title} ({{dataset}}, minsup={{minsup}}, k=2)",
            "amount of updates (fraction of graphs)", UPDATE_TIME, "amount",
            {**SMALL, "minsup": 0.04, "k": 2, "kind": kind}, AMOUNTS, [0.2],
            {"ADIMINE": adimine_after,
             "IncPartMiner": lambda pt: session(pt)[0]},
            "IncPartMiner is below ADIMINE at every amount",
            below_adimine("IncPartMiner"),
        )
        for fig_id, title, kind in (
            ("fig17a", "Update vertex/edge labels", "relabel"),
            ("fig17b", "Add new vertices/edges", "structural"),
        )
    ),
    Figure(
        "tbl1", "Data generator: requested T vs delivered average size",
        "T (requested)", "avg edges (delivered)", "T", {},
        [8, 12, 16, 20, 25], [8, 25],
        {"avg edges": lambda pt: generated(pt)[0],
         "avg kernel edges (I=5)": lambda pt: generated(pt)[1]},
    ),
    Figure(
        # exact: units at support 1; paper: sup / 2^depth; fixed: the
        # undivided threshold the paper's reduction protects against.
        "abl1", "Unit support strategy ({dataset}, minsup={minsup}, k=2)",
        "strategy (0=exact, 1=paper, 2=fixed)", "value", "strategy",
        {"dataset": "D60T8N10L15I4", "seed": 41, "minsup": 0.05},
        [0, 1, 2], [0, 1, 2],
        {"runtime (s)": lambda pt: unit_support_run(pt)[0],
         "recall": lambda pt: unit_support_run(pt)[1]},
        verify=lambda e: [(
            e.values("recall")[1] >= e.values("recall")[2],
            "the paper's sup/k recalls at least the undivided threshold",
        )],
    ),
    Figure(
        "abl2", "Strict paper joins vs completeness fix (minsup={minsup}, "
        "k=2, exact units)", "dataset index", "value", "index",
        {"datasets": ["D50T8N8L12I4", "D60T10N10L15I4", "D70T10N8L15I5"],
         "minsup": 0.06}, [0, 1, 2], [0],
        {THREE_JOINS: lambda pt: joins_run(pt, True)[1],
         FOUR_JOINS: lambda pt: joins_run(pt, False)[1],
         "runtime strict (s)": lambda pt: joins_run(pt, True)[0],
         "runtime full (s)": lambda pt: joins_run(pt, False)[0]},
        verify=lambda e: [
            (set(e.values(FOUR_JOINS).values()) == {1.0},
             "the fourth join makes exact units lossless"),
            (below(e, THREE_JOINS, FOUR_JOINS, strict=False),
             "the fourth join never lowers recall"),
        ],
    ),
    Figure(
        "abl3", "Miner families: candidates and runtime ({dataset})",
        "minsup", "value", "minsup",
        {"dataset": "D100T12N15L30I5", "seed": 61},
        [0.04, 0.06, 0.08], [0.08],
        {"FSG runtime (s)": lambda pt: family_run(pt, "FSG")[0],
         "gSpan runtime (s)": lambda pt: family_run(pt, "gSpan")[0],
         "Gaston runtime (s)": lambda pt: family_run(pt, "Gaston")[0],
         "FSG candidates":
             lambda pt: family_run(pt, "FSG")[2].total_candidates,
         "gSpan candidates":
             lambda pt: family_run(pt, "gSpan")[2].candidates_generated},
        verify=lambda e: [(
            sum(e.values("gSpan runtime (s)").values())
            <= sum(e.values("FSG runtime (s)").values()),
            "gSpan out-runs FSG over the sweep",
        )],
    ),
    Figure(
        "abl4",
        "Hot-set drift vs update locality ({dataset}, k={k}, {epochs} epochs)",
        "drift probability", "value", "drift",
        {"dataset": "D100T12N15L30I5", "seed": 71, "ufreq_seed": 72,
         "minsup": 0.05, "k": 4, "epochs": 3},
        [0.0, 0.3, 0.6, 1.0], [0.0, 1.0],
        {"units touched per updated graph (1..k)": lambda pt: drift_run(pt)[0],
         "avg update-handling time (s)": lambda pt: drift_run(pt)[1]},
    ),
]


def run_figure(fig: Figure, quick: bool) -> Experiment:
    """Every series of ``fig`` at every x of its sweep, plus its checks."""
    experiment = Experiment(
        fig.id, fig.title.format(**fig.params), fig.x_label, fig.y_label
    )
    lines = [(experiment.new_series(name), measure)
             for name, measure in fig.series.items()]
    sweep_memo: dict = {}
    start = time.perf_counter()
    for x in fig.quick if quick else fig.full:
        point = Point(fig, experiment, x, sweep_memo)
        for series, measure in lines:
            series.add(x, measure(point))
    for ok, what in fig.verify(experiment):
        experiment.check(ok, what)
    experiment.notes["wall_s"] = round(time.perf_counter() - start, 3)
    return experiment


PREAMBLE = """\
# EXPERIMENTS — paper vs. reproduction

Reproduction of the evaluation of *A Partition-Based Approach to Graph
Mining* (Wang, Hsu, Lee, Sheng — ICDE 2006), Section 5, plus four
ablations.

**Setup.** The paper ran C++ against 50k–1000k graphs; this is pure
Python against scaled databases of the same generator family (DESIGN.md
§3), so figure *shapes* are the target, not seconds.  ADIMINE charges
{delay:g} ms per uncached page read over a {pages}-page buffer, the
paper's disk-bound regime at this scale.  Whole-database Gaston runs last
at each static point, as Aridhi et al. (arXiv 1212.0017) report
partitioned against whole-database mining.

Every number, verdict and check below comes from the series that `python
benchmarks/figures.py{flag}` saved under `{results}`.  A claim is a
predicate over them (`FIGURES` in that script): "below" is strictly below
at every x of the sweep, "lowest" the smallest total over it.

## Summary of shape checks

| Figure | Paper's claim | Reproduced? |
|---|---|---|
"""


#: Heading of EXPERIMENTS.md's hand-recorded section (CLI timings that
#: are not figure sweeps); ``run`` carries it over when it re-renders.
MEASURED = "## Measured outside the figure sweeps\n"


def render_report(figures: list[Figure], experiments: dict, results: Path,
                  report: Path, quick: bool) -> str:
    """EXPERIMENTS.md from saved experiments: claims, tables, checks."""
    flag = " --quick" if quick else ""
    verdicts = {fig.id: "yes" if fig.holds(experiments[fig.id]) else "no"
                for fig in figures if fig.claim is not None}
    text = [PREAMBLE.format(delay=ADI_READ_DELAY * 1000,
                            pages=ADI_CACHE_PAGES, flag=flag,
                            results=os.path.relpath(results, ROOT))]
    text += [f"| {fig.id} | {fig.claim} | {verdicts[fig.id]} |\n"
             for fig in figures if fig.id in verdicts]
    text.append("\n## Per-figure results\n")
    for fig in figures:
        experiment = experiments[fig.id]
        text.append(f"\n### {fig.id}: {experiment.title}\n\n")
        if fig.id in verdicts:
            text.append(f"**Claim:** {fig.claim}. "
                        f"**Reproduced:** {verdicts[fig.id]}.\n\n")
        svg = os.path.relpath(results / f"{fig.id}.svg", report.parent)
        text.append(f"*y = {experiment.y_label}*; ![{fig.id}]({svg})\n\n"
                    + markdown_table(experiment) + "\n\n")
        notes = dict(experiment.notes)
        checks, wall = notes.pop("checks", []), notes.pop("wall_s")
        text += [f"- {key}: `{json.dumps(value)}`\n"
                 for key, value in notes.items()]
        if checks:
            failed = "".join(f"; **failed:** {what}"
                             for what in experiment.failed_checks())
            text.append(f"- checks: {sum(ok for _, ok in checks)} of "
                        f"{len(checks)} passed{failed}\n")
        text.append(f"- wall time: {wall:.1f} s\n")
    total = sum(e.notes["wall_s"] for e in experiments.values())
    text.append(f"\n*Generated {date.today().isoformat()} by `python "
                f"benchmarks/figures.py{flag}`; the sweeps took "
                f"{total:.0f} s.*\n")
    return "".join(text)


def run(figures: list[Figure], quick: bool, results: Path,
        report: Path) -> int:
    """Run, save and chart every figure, then render the report; 1 if any
    check failed.

    Each figure runs in a forked child, as each figure once ran in its
    own pytest process: fig14a's 1.5 % point leaves a ~1 GB heap and a
    full shape table behind, which slowed the update figures after it
    ~2x in one process.  Fork, not spawn, because the specs hold lambdas
    and a forked child needs nothing pickled; the driver starts no thread.
    """
    fork, experiments = multiprocessing.get_context("fork"), {}
    for fig in figures:
        print(f"== {fig.id}", flush=True)
        child = fork.Process(
            target=lambda: run_figure(fig, quick).save(results)
        )
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"{fig.id}: its child exited {child.exitcode}")
        saved = Experiment.load(results / f"{fig.id}.json")
        (results / f"{fig.id}.svg").write_text(render_line_chart(saved),
                                               encoding="utf-8")
        print(markdown_table(saved), f"{saved.notes['wall_s']:.1f} s",
              sep="\n", flush=True)
        experiments[fig.id] = saved
    # Hand-recorded measurements below MEASURED survive a re-render.
    kept = ""
    if report.exists():
        _, marker, tail = report.read_text(encoding="utf-8").partition(
            MEASURED)
        kept = "\n" + marker + tail if marker else ""
    report.write_text(render_report(figures, experiments, results, report,
                                    quick) + kept, encoding="utf-8")
    print(f"wrote {report}")
    failed = [f"{exp_id}: {what}" for exp_id, e in experiments.items()
              for what in e.failed_checks()]
    for line in failed:
        print(f"FAILED CHECK {line}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short sweeps into benchmarks/.quick/ (CI)")
    quick = parser.parse_args(argv).quick
    results = QUICK_RESULTS if quick else RESULTS
    return run(FIGURES, quick, results, (results if quick else ROOT)
               / "EXPERIMENTS.md")


if __name__ == "__main__":
    sys.exit(main())
