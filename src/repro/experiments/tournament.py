"""The governor tournament: every policy, every workload, one board.

The survey (:mod:`repro.experiments.survey`) answers the paper's
question — how much does the proposed system save over fixed-60? —
for three governors.  The tournament generalizes it to the whole
registry: every registered governor (the paper's builtins, the
related-work zoo, and any third-party extension registered at call
time) runs the full 30-app catalog plus a set of recorded/synthetic
frame traces, and the result is a single power-vs-quality leaderboard.

Like the sweep, the output is split into two documents:

* the **tournament document** (``repro-tournament/1``) holds only
  deterministic content — governors, workload labels, per-cell
  metrics, the leaderboard — so a cold run and a cache-served warm run
  are byte-identical and CI can literally ``diff`` them;
* the **run-stats document** (``repro-tournament-stats/1``) holds the
  nondeterministic rest (wall clock, cache hit/miss counts).

Workloads come in two flavours.  Catalog cells are plain
:class:`~repro.sim.session.SessionConfig` runs and participate fully
in the PR 8 result cache.  Trace cells replay generated synthetic
traces (``synth:<kind>`` labels) through ``trace:<path>`` workloads;
their summaries are path-independent (the embedded profile names the
workload), so the document stays byte-stable no matter where the
trace files land — but the cells themselves are uncacheable (the
cache cannot fingerprint an external file's future).

The tournament also runs the SmartNight-style luminance probe: a
dark/light pair of synthetic traces, identical except for background
emission, run under the ``luminance`` governor with OLED emission
tracking.  The probe block in the document demonstrates the paper
lineage claim end to end — dark content draws less *total* power
(emission and drive jointly) than light content.
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..analysis.sweep import METRIC_FIELDS, _finite
from ..analysis.tables import format_table
from ..apps.catalog import all_app_names
from ..apps.profile import (
    AppCategory,
    AppProfile,
    ContentProcess,
    RenderStyle,
)
from ..errors import ConfigurationError
from ..pipeline.governors import governor_names
from ..sim.batch import run_batch
from ..sim.session import GOVERNOR_CHOICES, SessionConfig
from ..traces.format import TraceBuilder, save_trace
from ..traces.profile import evict_traces_under
from ..traces.source import AUX_CONTENT_CHANGES, AUX_RENDERS
from ..traces.synth import SYNTH_KINDS, synthetic_geometry, \
    synthetic_trace
from ..units import ensure_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cache import ResultCache

#: Deterministic tournament document schema.
TOURNAMENT_SCHEMA = "repro-tournament/1"

#: Nondeterministic run-stats document schema.
TOURNAMENT_STATS_SCHEMA = "repro-tournament-stats/1"

#: The leaderboard's savings reference.
BASELINE = "fixed"

#: Label prefix of generated-trace workloads in the document.
SYNTH_LABEL_PREFIX = "synth:"


@dataclass(frozen=True)
class TournamentConfig:
    """Tournament parameters.

    ``governors=()`` means *every governor registered at run time* —
    builtins first, then extensions in registration order — which is
    how third-party policies enter the tournament without a config
    change.
    """

    governors: Tuple[str, ...] = ()
    apps: Tuple[str, ...] = field(default_factory=all_app_names)
    trace_kinds: Tuple[str, ...] = ("video", "scroll")
    duration_s: float = 20.0
    trace_duration_s: float = 10.0
    seed: int = 1
    resolution_divisor: int = 8
    track_oled: bool = True
    luminance_probe: bool = True

    def __post_init__(self) -> None:
        ensure_positive(self.duration_s, "duration_s")
        ensure_positive(self.trace_duration_s, "trace_duration_s")
        if not self.apps and not self.trace_kinds:
            raise ConfigurationError(
                "tournament needs at least one workload "
                "(apps or trace kinds)")
        for kind in self.trace_kinds:
            if kind not in SYNTH_KINDS:
                raise ConfigurationError(
                    f"unknown synthetic trace kind {kind!r}; "
                    f"choices: {SYNTH_KINDS}")

    def resolve_governors(self) -> Tuple[str, ...]:
        """The competitor list (explicit, or the live registry)."""
        if self.governors:
            known = governor_names()
            for governor in self.governors:
                if governor not in known:
                    raise ConfigurationError(
                        f"unknown governor {governor!r}; "
                        f"choices: {known}")
            return tuple(dict.fromkeys(self.governors))
        return governor_names()


# ----------------------------------------------------------------------
# The luminance probe pair
# ----------------------------------------------------------------------
def _probe_profile(name: str) -> AppProfile:
    """The embedded profile of one probe trace.

    ``touch_events_per_s=0`` keeps the replay Monkey-free, so probe
    sessions are deterministic across platforms and numpy versions.
    """
    return AppProfile(
        name=name,
        category=AppCategory.GENERAL,
        idle_content_fps=1.0,
        active_content_fps=1.0,
        content_process=ContentProcess.PERIODIC,
        idle_submit_fps=0.0,
        render_style=RenderStyle.SMALL_REGION,
        render_cost_mj=0.5,
        cpu_base_mw=50.0,
        touch_events_per_s=0.0,
        scroll_fraction=0.0,
        notes="luminance probe trace")


def probe_trace(dark: bool, *, duration_s: float = 10.0,
                seed: int = 0):
    """One of the dark/light probe pair.

    Both traces show the same scene — a static background with a
    small clock region redrawing once per second — and differ *only*
    in background emission: near-black (dark) vs near-white (light).
    Rate-relevant content is therefore identical; any power gap is
    content-dependent emission plus whatever rate head-room the
    luminance governor claims on the dark frame.
    """
    from ..pipeline.spec import encode_dataclass

    width, height = synthetic_geometry()
    level = 8 if dark else 230
    name = "probe-dark" if dark else "probe-light"
    rng = np.random.default_rng([seed, int(dark)])
    builder = TraceBuilder(width, height)
    background = np.full((height, width, 3), level, dtype=np.uint8)
    clock_h = max(2, height // 24)
    clock_w = max(4, width // 6)
    frame = background.copy()
    times = []
    for index in range(1, int(duration_s) + 1):
        time = float(index)
        frame[1:1 + clock_h, width - clock_w - 1: width - 1] = (
            rng.integers(0, 256, (clock_h, clock_w, 3),
                         dtype=np.uint8))
        builder.add_frame(time, frame)
        times.append(time)
    stamps = np.asarray(times, dtype=np.float64)
    profile = _probe_profile(name)
    return builder.build(
        duration_s,
        aux={AUX_CONTENT_CHANGES: stamps, AUX_RENDERS: stamps.copy()},
        meta={"origin": f"probe:{name}",
              "profile": encode_dataclass(profile)})


# ----------------------------------------------------------------------
# The tournament
# ----------------------------------------------------------------------
def _trace_workloads(config: TournamentConfig,
                     workdir: pathlib.Path) -> List[Tuple[str, str]]:
    """Generate the synthetic traces; ``(label, app-string)`` pairs."""
    workloads = []
    for kind in config.trace_kinds:
        trace = synthetic_trace(kind,
                                duration_s=config.trace_duration_s,
                                seed=config.seed)
        path = save_trace(trace, workdir / f"synth_{kind}.trace")
        workloads.append((f"{SYNTH_LABEL_PREFIX}{kind}",
                          f"trace:{path}"))
    return workloads


def _session(config: TournamentConfig, app: str,
             governor: str) -> SessionConfig:
    return SessionConfig(app=app, governor=governor,
                         duration_s=config.duration_s,
                         seed=config.seed,
                         resolution_divisor=config.resolution_divisor,
                         track_oled=config.track_oled)


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _luminance_probe(config: TournamentConfig,
                     workdir: pathlib.Path,
                     workers: Optional[int]) -> Dict[str, Any]:
    """Run the dark/light pair under the luminance governor.

    Probe cells never touch the cache (trace workloads are
    uncacheable anyway) and always carry OLED tracking — the probe
    *is* the joint emission+drive demonstration.
    """
    paths = {}
    for label, dark in (("dark", True), ("light", False)):
        trace = probe_trace(dark, duration_s=config.trace_duration_s,
                            seed=config.seed)
        paths[label] = save_trace(trace, workdir / f"probe_{label}.trace")
    configs = [SessionConfig(app=f"trace:{paths[label]}",
                             governor="luminance",
                             duration_s=config.duration_s,
                             seed=config.seed,
                             resolution_divisor=(
                                 config.resolution_divisor),
                             track_oled=True)
               for label in ("dark", "light")]
    dark_summary, light_summary = run_batch(
        configs, workers=workers, on_error="raise")
    dark_power = dark_summary["mean_power_mw"]
    light_power = light_summary["mean_power_mw"]
    return {
        "governor": "luminance",
        "dark": {name: _finite(dark_summary.get(name))
                 for name in METRIC_FIELDS},
        "light": {name: _finite(light_summary.get(name))
                  for name in METRIC_FIELDS},
        "dark_below_light": bool(dark_power < light_power),
    }


def run_tournament(config: Optional[TournamentConfig] = None, *,
                   workers: Optional[int] = None,
                   cache: Optional["ResultCache"] = None,
                   workdir: Optional[str] = None) -> Dict[str, Any]:
    """Run the tournament; returns the deterministic document.

    All catalog cells fan out as one :func:`~repro.sim.batch.run_batch`
    call (cache-served where warm), all trace cells as a second
    (uncacheable by construction).  ``workdir``
    receives the generated trace files (a temporary directory when
    ``None``); the document never mentions the paths, so it is
    byte-stable across workdirs.
    """
    config = config or TournamentConfig()
    governors = config.resolve_governors()
    if BASELINE not in governors:
        raise ConfigurationError(
            f"tournament needs the {BASELINE!r} baseline governor "
            f"for the savings column")

    cleanup: Optional[tempfile.TemporaryDirectory] = None
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="tournament-")
        trace_dir = pathlib.Path(cleanup.name)
    else:
        trace_dir = pathlib.Path(workdir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        traces = _trace_workloads(config, trace_dir)
        catalog_configs = [_session(config, app, governor)
                           for governor in governors
                           for app in config.apps]
        trace_configs = [_session(config, app, governor)
                         for governor in governors
                         for _, app in traces]
        catalog_entries = run_batch(catalog_configs, workers=workers,
                                    on_error="raise", cache=cache)
        trace_entries = run_batch(trace_configs, workers=workers,
                                  on_error="raise")

        labels = ([f"app:{app}" for app in config.apps]
                  + [label for label, _ in traces])
        cells: List[Dict[str, Any]] = []
        per_governor: Dict[str, List[Dict[str, Any]]] = {
            governor: [] for governor in governors}
        catalog_flat = iter(catalog_entries)
        trace_flat = iter(trace_entries)
        for governor in governors:
            rows = [next(catalog_flat) for _ in config.apps]
            rows += [next(trace_flat) for _ in traces]
            for label, summary in zip(labels, rows):
                metrics = {name: _finite(summary.get(name))
                           for name in METRIC_FIELDS}
                cell = {"governor": governor, "workload": label,
                        "metrics": metrics}
                cells.append(cell)
                per_governor[governor].append(cell)

        leaderboard = _leaderboard(governors, per_governor)
        probe = None
        if config.luminance_probe and \
                "luminance" in GOVERNOR_CHOICES:
            probe = _luminance_probe(config, trace_dir, workers)
    finally:
        if cleanup is not None:
            evict_traces_under(trace_dir)
            cleanup.cleanup()

    return {
        "schema": TOURNAMENT_SCHEMA,
        "config": {
            "duration_s": config.duration_s,
            "trace_duration_s": config.trace_duration_s,
            "seed": config.seed,
            "resolution_divisor": config.resolution_divisor,
            "track_oled": config.track_oled,
        },
        "governors": list(governors),
        "workloads": labels,
        "cells": cells,
        "leaderboard": leaderboard,
        "luminance_probe": probe,
    }


def _leaderboard(governors: Sequence[str],
                 per_governor: Mapping[str, List[Dict[str, Any]]]
                 ) -> List[Dict[str, Any]]:
    """Per-governor aggregates, ranked by mean power (ascending)."""
    def collect(governor: str, name: str) -> List[float]:
        return [cell["metrics"][name]
                for cell in per_governor[governor]
                if cell["metrics"][name] is not None]

    baseline_power = _mean(collect(BASELINE, "mean_power_mw"))
    rows = []
    for governor in governors:
        mean_power = _mean(collect(governor, "mean_power_mw"))
        savings = None
        if mean_power is not None and baseline_power:
            savings = 100.0 * (baseline_power - mean_power) \
                / baseline_power
        rows.append({
            "governor": governor,
            "mean_power_mw": mean_power,
            "savings_vs_fixed_pct": savings,
            "mean_display_quality": _mean(
                collect(governor, "display_quality")),
            "mean_refresh_hz": _mean(
                collect(governor, "mean_refresh_hz")),
            "rate_switches": sum(
                int(v) for v in collect(governor, "rate_switches")),
            "cells": len(per_governor[governor]),
        })
    rows.sort(key=lambda row: (
        row["mean_power_mw"] if row["mean_power_mw"] is not None
        else float("inf"),
        row["governor"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def format_tournament(document: Mapping[str, Any]) -> str:
    """The leaderboard as a console table."""
    rows = []
    for row in document.get("leaderboard", []):
        savings = row.get("savings_vs_fixed_pct")
        quality = row.get("mean_display_quality")
        rows.append([
            str(row.get("rank", "")),
            row["governor"],
            f"{row['mean_power_mw']:.1f}"
            if row.get("mean_power_mw") is not None else "-",
            f"{savings:+.1f}" if savings is not None else "-",
            f"{100.0 * quality:.1f}" if quality is not None else "-",
            f"{row['mean_refresh_hz']:.1f}"
            if row.get("mean_refresh_hz") is not None else "-",
            str(row.get("rate_switches", "-")),
        ])
    workloads = document.get("workloads", [])
    lines = [format_table(
        ["rank", "governor", "power mW", "saved %", "quality %",
         "refresh Hz", "switches"],
        rows,
        title=f"tournament: {len(rows)} governors x "
              f"{len(workloads)} workloads")]
    probe = document.get("luminance_probe")
    if probe:
        dark = probe["dark"]["mean_power_mw"]
        light = probe["light"]["mean_power_mw"]
        verdict = "dark < light" if probe["dark_below_light"] \
            else "PROBE FAILED (dark >= light)"
        lines.append(
            f"luminance probe: dark {dark:.1f} mW vs light "
            f"{light:.1f} mW ({verdict})")
    return "\n".join(lines)


@dataclass
class TournamentResult:
    """Registry-facing wrapper (``repro experiment tournament``)."""

    document: Dict[str, Any]

    def format(self) -> str:
        return format_tournament(self.document)


def run(config: Optional[TournamentConfig] = None, *,
        workers: Optional[int] = None) -> TournamentResult:
    """Experiment-registry entry point."""
    return TournamentResult(run_tournament(config, workers=workers))


__all__ = [
    "BASELINE",
    "TOURNAMENT_SCHEMA",
    "TOURNAMENT_STATS_SCHEMA",
    "TournamentConfig",
    "TournamentResult",
    "format_tournament",
    "probe_trace",
    "run",
    "run_tournament",
]
