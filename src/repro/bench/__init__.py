"""Benchmark harness: experiments, series, plots."""

from .harness import Experiment, Series, dominates, load_experiment
from .plots import render_line_chart, save_plots

__all__ = [
    "Experiment",
    "Series",
    "dominates",
    "render_line_chart",
    "save_plots",
    "load_experiment",
]
