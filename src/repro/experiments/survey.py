"""The shared 30-application survey runner.

Figures 3, 9, 10, 11 and Table 1 are all views over the same underlying
measurement: run every catalog app under the fixed-60 Hz baseline and
under the governed configurations, with the same seed (hence the same
content stream and Monkey script) per app.  This module runs that sweep
once per configuration and caches it in-process, so the benchmark suite
does not repeat ~90 sessions per figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..analysis.aggregate import AppMeasurement
from ..apps.catalog import all_app_names, app_profile
from ..core.quality import quality_vs_baseline
from ..errors import ConfigurationError
from ..power.model import PowerModel
from ..sim.batch import run_batch
from ..sim.session import SessionConfig, SessionResult, run_session
from ..units import ensure_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cache import ResultCache

#: Baseline governor name every comparison is made against.
BASELINE = "fixed"

#: The two configurations of the proposed system.
PROPOSED = ("section", "section+boost")


@dataclass(frozen=True)
class SurveyConfig:
    """Sweep parameters.

    ``duration_s`` trades fidelity for wall-clock: the paper runs ~3
    minutes per app; 45-60 s gives stable means in simulation.
    """

    apps: Tuple[str, ...] = field(default_factory=all_app_names)
    governors: Tuple[str, ...] = (BASELINE,) + PROPOSED
    duration_s: float = 45.0
    seed: int = 1
    resolution_divisor: int = 8

    def __post_init__(self) -> None:
        ensure_positive(self.duration_s, "duration_s")
        if BASELINE not in self.governors:
            raise ConfigurationError(
                f"survey needs the {BASELINE!r} baseline governor")
        if not self.apps:
            raise ConfigurationError("survey needs at least one app")


@dataclass
class SurveyResult:
    """All sessions of one sweep, indexed ``sessions[app][governor]``."""

    config: SurveyConfig
    sessions: Dict[str, Dict[str, SessionResult]]

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    def baseline(self, app: str) -> SessionResult:
        """The fixed-60 Hz session of one app."""
        return self.sessions[app][BASELINE]

    def governed(self, app: str, governor: str) -> SessionResult:
        """A governed session of one app."""
        return self.sessions[app][governor]

    def measurements(self, governor: str,
                     model: PowerModel = None) -> List[AppMeasurement]:
        """Per-app power/quality measurements for one governor,
        relative to the fixed baseline (the Table 1 inputs)."""
        model = model or PowerModel()
        rows = []
        for app in self.config.apps:
            base = self.baseline(app)
            gov = self.governed(app, governor)
            quality = quality_vs_baseline(gov.mean_content_rate_fps,
                                          base.mean_content_rate_fps)
            rows.append(AppMeasurement(
                app_name=app,
                category=app_profile(app).category,
                baseline_power_mw=base.power_report(model).mean_power_mw,
                governed_power_mw=gov.power_report(model).mean_power_mw,
                display_quality=quality,
            ))
        return rows


@dataclass
class SurveySummaries:
    """Summary-level view of one sweep, ``summaries[app][governor]``.

    The parallel counterpart of :class:`SurveyResult`: per-session
    *summary dicts* (the :func:`repro.sim.batch.run_batch` payload)
    instead of live :class:`SessionResult` objects, which is what lets
    the sweep cross process boundaries.  Covers every consumer that
    needs aggregate numbers — per-app power/quality measurements —
    but not the trace-level views (``baseline()`` / ``governed()``
    series plots), which still require :func:`run_survey`.
    """

    config: SurveyConfig
    summaries: Dict[str, Dict[str, Dict]]

    def summary(self, app: str, governor: str) -> Dict:
        """The summary dict of one session."""
        return self.summaries[app][governor]

    def measurements(self, governor: str) -> List[AppMeasurement]:
        """Per-app power/quality measurements for one governor,
        relative to the fixed baseline (the Table 1 inputs), computed
        with the default :class:`~repro.power.model.PowerModel` —
        identical numbers to
        :meth:`SurveyResult.measurements`'s default."""
        rows = []
        for app in self.config.apps:
            base = self.summary(app, BASELINE)
            gov = self.summary(app, governor)
            quality = quality_vs_baseline(gov["content_rate_fps"],
                                          base["content_rate_fps"])
            rows.append(AppMeasurement(
                app_name=app,
                category=app_profile(app).category,
                baseline_power_mw=base["mean_power_mw"],
                governed_power_mw=gov["mean_power_mw"],
                display_quality=quality,
            ))
        return rows


_CACHE: Dict[SurveyConfig, SurveyResult] = {}
_SUMMARY_CACHE: Dict[SurveyConfig, SurveySummaries] = {}


def _sweep_configs(config: SurveyConfig) -> List[SessionConfig]:
    """The sweep's session configs, app-major then governor order."""
    return [SessionConfig(app=app,
                          governor=governor,
                          duration_s=config.duration_s,
                          seed=config.seed,
                          resolution_divisor=config.resolution_divisor)
            for app in config.apps
            for governor in config.governors]


def run_survey(config: SurveyConfig = None) -> SurveyResult:
    """Run (or fetch from cache) the sweep for ``config``."""
    config = config or SurveyConfig()
    if config in _CACHE:
        return _CACHE[config]
    sessions: Dict[str, Dict[str, SessionResult]] = {}
    for app in config.apps:
        sessions[app] = {}
        for governor in config.governors:
            sessions[app][governor] = run_session(SessionConfig(
                app=app,
                governor=governor,
                duration_s=config.duration_s,
                seed=config.seed,
                resolution_divisor=config.resolution_divisor,
            ))
    result = SurveyResult(config=config, sessions=sessions)
    _CACHE[config] = result
    return result


def run_survey_summaries(config: SurveyConfig = None,
                         workers: int = None,
                         cache: "ResultCache" = None) -> SurveySummaries:
    """Run (or fetch from cache) the summary-level sweep in parallel.

    The sweep's ~90 sessions are independent, making it the repo's
    flagship parallel workload: configs fan out over
    :func:`repro.sim.batch.run_batch` with ``workers`` processes
    (``None``: one per CPU) and fail fast on any session error.  The
    batch runner's deterministic merge means the result — and
    therefore every figure built on it — is identical for any worker
    count.  The in-process memo is keyed by sweep config only; a
    cached result satisfies any later ``workers`` value.  ``cache``
    additionally threads a durable
    :class:`~repro.cache.ResultCache` through the batch runner, so a
    sweep repeated across *processes* is served from disk instead of
    recomputed (byte-identical either way).
    """
    config = config or SurveyConfig()
    if config in _SUMMARY_CACHE:
        return _SUMMARY_CACHE[config]
    entries = run_batch(_sweep_configs(config), workers=workers,
                        on_error="raise", cache=cache)
    summaries: Dict[str, Dict[str, Dict]] = {}
    flat = iter(entries)
    for app in config.apps:
        summaries[app] = {governor: next(flat)
                          for governor in config.governors}
    result = SurveySummaries(config=config, summaries=summaries)
    _SUMMARY_CACHE[config] = result
    return result
