"""Experiment registry: the per-experiment index of DESIGN.md as code.

Maps each paper table/figure to its driver module and the benchmark
that regenerates it, so tooling (and readers) can enumerate the
reproduction surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ExperimentInfo:
    """One row of the reproduction index."""

    experiment_id: str
    paper_content: str
    workload: str
    modules: Tuple[str, ...]
    benchmark: str
    runner: Callable


def _lazy(module_name: str) -> Callable:
    def call(*args, **kwargs):
        import importlib
        module = importlib.import_module(
            f"repro.experiments.{module_name}")
        return module.run(*args, **kwargs)
    return call


EXPERIMENTS: Tuple[ExperimentInfo, ...] = (
    ExperimentInfo(
        "fig2", "Frame-rate traces, Facebook vs Jelly Splash (fixed "
        "60 Hz)", "60 s sessions, Monkey touches",
        ("repro.apps.catalog", "repro.sim.session"),
        "benchmarks/bench_fig2_frame_rate_traces.py", _lazy("fig2")),
    ExperimentInfo(
        "fig3", "Meaningful vs redundant frame rate, 30 apps",
        "45 s per app, fixed 60 Hz",
        ("repro.apps.catalog", "repro.core.content_rate"),
        "benchmarks/bench_fig3_redundancy_survey.py", _lazy("fig3")),
    ExperimentInfo(
        "fig5", "Section table and worked control example",
        "static (Equation 1 on the Galaxy S3 level set)",
        ("repro.core.section_table",),
        "benchmarks/bench_fig5_section_table.py", _lazy("fig5")),
    ExperimentInfo(
        "fig6", "Metering error and runtime vs compared pixels",
        "Nexus Revamped stressor at native 720x1280",
        ("repro.core.grid", "repro.apps.wallpaper"),
        "benchmarks/bench_fig6_metering_cost.py", _lazy("fig6")),
    ExperimentInfo(
        "fig7", "Content/refresh-rate traces under control",
        "Facebook & Jelly Splash, 60 s, +/- touch boost",
        ("repro.core.governor", "repro.experiments.fig7"),
        "benchmarks/bench_fig7_control_traces.py", _lazy("fig7")),
    ExperimentInfo(
        "fig8", "Power saved over time, Facebook & Jelly Splash",
        "same sessions vs fixed-60 baseline",
        ("repro.power.model", "repro.experiments.fig8"),
        "benchmarks/bench_fig8_power_save_traces.py", _lazy("fig8")),
    ExperimentInfo(
        "fig9", "Per-app mean power saving, 30 apps",
        "45 s per app, both methods",
        ("repro.experiments.survey", "repro.power.model"),
        "benchmarks/bench_fig9_power_survey.py", _lazy("fig9")),
    ExperimentInfo(
        "fig10", "Estimated vs actual content rate per app",
        "45 s per app",
        ("repro.core.quality", "repro.experiments.survey"),
        "benchmarks/bench_fig10_content_rate_effect.py", _lazy("fig10")),
    ExperimentInfo(
        "fig11", "Display quality per app",
        "derived from the Figure 10 runs",
        ("repro.core.quality", "repro.experiments.survey"),
        "benchmarks/bench_fig11_display_quality.py", _lazy("fig11")),
    ExperimentInfo(
        "table1", "Category summary: saved power % and quality %",
        "all 30 apps, both methods",
        ("repro.analysis.aggregate", "repro.experiments.survey"),
        "benchmarks/bench_table1_summary.py", _lazy("table1")),
    ExperimentInfo(
        "tournament", "Power-vs-quality leaderboard over every "
        "registered governor (governor-zoo extension)",
        "30-app catalog + synthetic traces + luminance probe, "
        "20 s per cell",
        ("repro.experiments.tournament", "repro.pipeline.governors",
         "repro.governors"),
        "benchmarks/bench_tournament.py", _lazy("tournament")),
    ExperimentInfo(
        "resilience", "Quality/power vs injected fault rate "
        "(robustness extension: fail-safe governor watchdog)",
        "Facebook, 30 s, meter_fail sweep with watchdog supervision",
        ("repro.faults.injector", "repro.core.watchdog",
         "repro.experiments.resilience"),
        "benchmarks/bench_resilience_faults.py", _lazy("resilience")),
)


def experiment(experiment_id: str) -> ExperimentInfo:
    """Look up one experiment by id (e.g. ``"fig9"``)."""
    for info in EXPERIMENTS:
        if info.experiment_id == experiment_id:
            return info
    raise ConfigurationError(
        f"unknown experiment {experiment_id!r}; known: "
        f"{[e.experiment_id for e in EXPERIMENTS]}")
