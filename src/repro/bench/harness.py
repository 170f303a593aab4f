"""Experiment harness: series, experiments, and result persistence.

Each paper figure is reproduced as an :class:`Experiment` holding one
:class:`Series` per plotted line; the benchmarks print the same rows the
paper plots and persist JSON under ``benchmarks/results/`` for
EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


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
    """A reproduced figure/table: id, axes, and its series."""

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

    # ------------------------------------------------------------------
    def format_table(self) -> str:
        """ASCII table with one row per x value, one column per series."""
        xs: list[float] = []
        for series in self.series:
            for x, _ in series.points:
                if x not in xs:
                    xs.append(x)
        xs.sort()
        header = [self.x_label] + [s.name for s in self.series]
        rows = [header]
        for x in xs:
            row = [f"{x:g}"]
            for series in self.series:
                value = dict(series.points).get(x)
                row.append("-" if value is None else f"{value:.3f}")
            rows.append(row)
        widths = [
            max(len(row[i]) for row in rows) for i in range(len(header))
        ]
        lines = [f"== {self.exp_id}: {self.title} ==  (y = {self.y_label})"]
        for r, row in enumerate(rows):
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
            if r == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "notes": self.notes,
            "series": [
                {"name": s.name, "points": s.points} for s in self.series
            ],
        }

    def save(self, directory: str | Path) -> Path:
        """Atomically persist the result JSON (a crash mid-dump must not
        leave a truncated file that poisons EXPERIMENTS.md generation).

        A snapshot of the :mod:`repro.obs.metrics` registry is attached
        under ``notes['metrics']`` first, so every benchmark artifact
        carries the work counters of the run that produced it.
        """
        from ..obs import metrics as obs_metrics
        from ..resilience import integrity

        self.notes["metrics"] = obs_metrics.registry().snapshot()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.exp_id}.json"
        integrity.atomic_write_json(path, self.to_dict())
        return path


def load_experiment(path: str | Path) -> Experiment:
    """Load an experiment back from its JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    exp = Experiment(
        exp_id=data["exp_id"],
        title=data["title"],
        x_label=data["x_label"],
        y_label=data["y_label"],
        notes=data.get("notes", {}),
    )
    for raw in data["series"]:
        series = exp.new_series(raw["name"])
        for x, y in raw["points"]:
            series.add(x, y)
    return exp


def dominates(winner: Series, loser: Series) -> bool:
    """True if ``winner`` is below ``loser`` at every shared x (runtime wins)."""
    loser_points = dict(loser.points)
    shared = [x for x, _ in winner.points if x in loser_points]
    if not shared:
        return False
    winner_points = dict(winner.points)
    return all(winner_points[x] <= loser_points[x] for x in shared)
