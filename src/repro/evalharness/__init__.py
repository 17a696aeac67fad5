"""Evaluation harness: timing, reporting, and per-figure experiment drivers."""

from .timing import TimingStats, geomean, speedup_table, time_fn, time_fn_stats
from .reporting import render_speedups, render_table
from .experiments import (
    CONVERSIONS,
    ExperimentResult,
    run_conversion_experiment,
    run_fig2a,
    run_fig2b,
    run_fig2c,
    run_fig2d,
    run_fig3,
    run_table4,
)
from .feature_table import ToolSupport, render_table5, table5_rows, this_work_support
from .amortization import Amortization, amortization_report, measure_amortization

__all__ = [
    "Amortization",
    "CONVERSIONS",
    "TimingStats",
    "amortization_report",
    "measure_amortization",
    "ExperimentResult",
    "ToolSupport",
    "geomean",
    "render_speedups",
    "render_table",
    "render_table5",
    "run_conversion_experiment",
    "run_fig2a",
    "run_fig2b",
    "run_fig2c",
    "run_fig2d",
    "run_fig3",
    "run_table4",
    "speedup_table",
    "table5_rows",
    "this_work_support",
    "time_fn",
    "time_fn_stats",
]
