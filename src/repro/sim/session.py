"""Session configuration, results, and the :func:`run_session` facade.

A session is the paper's experimental unit: "for each application, we
repeated the same script generated by Monkey, and measured the
device's power consumption with and without the proposed system."  One
workload — an app, a live wallpaper, a recorded trace, or a multi-app
scenario (:mod:`repro.sim.scenario`) — runs under one governor through
the full pipeline

    touch script -> application model -> surface -> compositor ->
    framebuffer -> content-rate meter -> governor -> panel -> V-Sync
    back into the application render loop

assembled by :class:`repro.pipeline.builder.SessionBuilder` and run by
:class:`repro.sim.runner.SessionRunner`; :class:`SessionResult` holds
every trace the figures need.  The content process and the touch
script are seeded independently of the governor, so runs with
different governors see *identical* workloads.  Governors registered
through :data:`repro.pipeline.GOVERNORS` are accepted by
:class:`SessionConfig` exactly like the builtins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Union

from ..apps.base import Application
from ..apps.profile import AppProfile
from ..apps.wallpaper import WallpaperProfile
from ..core.content_rate import ContentRateMeter, MeterConfig
from ..core.governor import GovernorDriver
from ..core.quality import QualityReport, compute_quality
from ..core.watchdog import GovernorWatchdog, WatchdogConfig
from ..display.panel import DisplayPanel
from ..display.presets import GALAXY_S3_PANEL
from ..display.spec import PanelSpec
from ..errors import ConfigurationError
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..inputs.monkey import MonkeyConfig
from ..inputs.touch import TouchScript
from ..pipeline.apps import resolve_app_profile
from ..pipeline.builder import SessionBuilder
from ..pipeline.governors import GOVERNOR_ORACLE, GOVERNORS
from ..power.model import PowerBreakdown, PowerModel, PowerReport
from ..power.oled import OledEmissionTracker
from ..sim.tracing import EventLog
from ..telemetry.hub import TelemetryConfig, TelemetryHub
from ..traces.profile import TraceProfile
from ..units import ensure_positive, ensure_positive_int
from .scenario import (
    ScenarioApplication,
    ScenarioWorkload,
    SegmentResult,
    SessionApplication,
)

#: The builtin governor selector strings, in documented order.  Kept
#: as a tuple for back-compat; :class:`SessionConfig` validates against
#: the full :data:`repro.pipeline.GOVERNORS` registry, so extension
#: governors registered elsewhere are accepted too.
GOVERNOR_CHOICES = GOVERNORS.builtin_names()

__all__ = [
    "GOVERNOR_CHOICES",
    "SessionConfig",
    "SessionResult",
    "run_session",
]


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to run one reproducible session.

    Parameters
    ----------
    app:
        Registered workload name (catalog app or wallpaper — see
        :data:`repro.pipeline.APPS`), a ``"trace:<path>"`` frame-trace
        reference, an :class:`AppProfile`, a :class:`WallpaperProfile`,
        a :class:`~repro.traces.profile.TraceProfile`, or a multi-app
        :class:`~repro.sim.scenario.ScenarioWorkload` (its segments must
        total ``duration_s``; it takes no ``monkey`` and no oracle).
    governor:
        A selector registered in :data:`repro.pipeline.GOVERNORS`
        (builtins: :data:`GOVERNOR_CHOICES`).
    duration_s:
        Session length (the paper runs ~3 minutes per app).
    seed:
        Master seed; the content process and Monkey script derive
        distinct child seeds from it.
    panel:
        Panel spec (paper device by default).
    resolution_divisor:
        Simulate the framebuffer at ``native / divisor`` resolution for
        speed.  The metering grid adapts automatically; 1 gives the
        native 720x1280.
    meter:
        Content-rate meter configuration.
    decision_period_s:
        Governor decision period.
    boost_hold_s:
        Touch-boost hold time (``section+boost`` only).
    monkey:
        Touch-script shape; None derives one from the app profile's
        interaction hints.
    content_window_s:
        Sliding window for the governor's content-rate reads.
    track_oled:
        Attach an OLED emission tracker (extension): adds the
        content-dependent panel emission component to power reports.
    status_bar:
        Composite a small status-bar overlay (a 1 Hz clock) above the
        app — exercises multi-surface composition and gives otherwise
        perfectly static screens a realistic trickle of tiny updates.
    table_bias:
        Quality-priority knob (extension): build the section table
        with every section shifted this many refresh levels up
        (``SectionTable.biased``).  0 is the paper's table.
    faults:
        Fault-injection plan (robustness extension).  None — the
        default — runs the session with no injector attached and is
        bit-identical to the pre-fault-injection pipeline.
    watchdog:
        Supervise the policy stack with a
        :class:`~repro.core.watchdog.GovernorWatchdog` when a fault
        plan is set; off when ``faults`` is None (nothing can fail).
    watchdog_config:
        Degradation-ladder tunables (threshold, backoff bounds).
    telemetry:
        Telemetry capture plan (observability extension).  None — the
        default — attaches no hub anywhere: every instrumented
        component takes its uninstrumented branch and the session is
        bit-identical to the pre-telemetry pipeline.
    """

    app: Union[str, AppProfile, WallpaperProfile, TraceProfile,
               ScenarioWorkload]
    governor: str = "section+boost"
    duration_s: float = 60.0
    seed: int = 0
    panel: PanelSpec = GALAXY_S3_PANEL
    resolution_divisor: int = 8
    meter: MeterConfig = field(default_factory=MeterConfig)
    decision_period_s: float = 0.2
    boost_hold_s: float = 1.0
    monkey: Optional[MonkeyConfig] = None
    content_window_s: float = 1.0
    track_oled: bool = False
    status_bar: bool = False
    table_bias: int = 0
    faults: Optional[FaultPlan] = None
    watchdog: bool = True
    watchdog_config: WatchdogConfig = field(
        default_factory=WatchdogConfig)
    telemetry: Optional[TelemetryConfig] = None

    def __post_init__(self) -> None:
        ensure_positive(self.duration_s, "duration_s")
        ensure_positive_int(self.resolution_divisor, "resolution_divisor")
        ensure_positive(self.decision_period_s, "decision_period_s")
        ensure_positive(self.boost_hold_s, "boost_hold_s")
        ensure_positive(self.content_window_s, "content_window_s")
        if self.governor not in GOVERNORS:
            raise ConfigurationError(
                f"unknown governor {self.governor!r}; "
                f"choices: {GOVERNORS.names()}")
        if self.table_bias < 0:
            raise ConfigurationError(
                f"table_bias must be >= 0, got {self.table_bias}")
        if isinstance(self.app, ScenarioWorkload):
            if self.app.total_duration_s != self.duration_s:
                raise ConfigurationError(
                    f"scenario segments total {self.app.total_duration_s!r}"
                    f" s, not duration_s={self.duration_s!r}")
            if self.monkey is not None or self.governor == GOVERNOR_ORACLE:
                raise ConfigurationError(
                    "a scenario takes neither monkey= (each segment runs "
                    "its own script) nor the single-app oracle governor")

    def resolve_profile(self) -> AppProfile:
        """The :class:`AppProfile` this config runs."""
        return resolve_app_profile(self.app)

    def resolve_monkey(self) -> MonkeyConfig:
        """The Monkey configuration this config uses."""
        if self.monkey is not None:
            return self.monkey
        profile = self.resolve_profile()
        return MonkeyConfig(
            duration_s=self.duration_s,
            events_per_s=profile.touch_events_per_s,
            scroll_fraction=profile.scroll_fraction,
        )

    def to_spec(self):
        """This config as a declarative, JSON-round-trippable
        :class:`~repro.pipeline.spec.SessionSpec`."""
        from ..pipeline.spec import SessionSpec
        return SessionSpec.from_config(self)


@dataclass
class SessionResult:
    """Everything one session produced.

    Traces are exact; power and quality are derived lazily so one
    session can be priced under several calibrations.
    """

    config: SessionConfig
    profile: AppProfile
    duration_s: float
    governor_name: str
    metering_active: bool
    panel: DisplayPanel
    meter: ContentRateMeter
    application: SessionApplication
    driver: GovernorDriver
    touch_script: TouchScript
    compositions: EventLog
    meaningful_compositions: EventLog
    oled_tracker: Optional[OledEmissionTracker] = None
    status_bar_app: Optional[Application] = None
    injector: Optional[FaultInjector] = None
    watchdog: Optional[GovernorWatchdog] = None
    telemetry: Optional[TelemetryHub] = None

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def power_report(self,
                     model: Optional[PowerModel] = None) -> PowerReport:
        """Session energy under a power model (default calibration):
        each segment priced under its own app profile, and summed."""
        parts = [self.segment_power(segment, model).breakdown
                 for segment in self.segments]
        return PowerReport(duration_s=self.duration_s, breakdown=(
            PowerBreakdown(**{f.name: sum(getattr(p, f.name) for p in parts)
                              for f in fields(PowerBreakdown)})))

    @property
    def segments(self) -> List[SegmentResult]:
        """A scenario's segments; a single-app session is one."""
        if isinstance(self.application, ScenarioApplication):
            return self.application.segments
        return [SegmentResult(self.profile, 0.0, self.duration_s,
                              self.application)]

    def segment_power(self, segment: SegmentResult,
                      model: Optional[PowerModel] = None) -> PowerReport:
        """Energy of one segment's window under its own app profile."""
        model = model or PowerModel()
        return model.evaluate_window(
            profile=segment.profile,
            rate_history=self.panel.rate_history,
            compositions=self.compositions,
            renders=segment.application.renders,
            start_s=segment.start_s,
            end_s=segment.end_s,
            metering_active=self.metering_active,
            emission_history=(self.oled_tracker.history
                              if self.oled_tracker else None),
        )

    def power_trace(self, model: Optional[PowerModel] = None,
                    bin_width_s: float = 1.0):
        """Binned power trace ``(centers, power_mw)``."""
        if isinstance(self.application, ScenarioApplication):
            raise ConfigurationError("a scenario has one app profile per "
                                     "segment; price it with power_report")
        model = model or PowerModel()
        return model.power_trace(
            profile=self.profile,
            rate_history=self.panel.rate_history,
            compositions=self.compositions,
            renders=self.application.renders,
            duration_s=self.duration_s,
            bin_width_s=bin_width_s,
            metering_active=self.metering_active,
            emission_history=(self.oled_tracker.history
                              if self.oled_tracker else None),
        )

    def quality_report(self) -> QualityReport:
        """Display-quality metrics for this session."""
        return compute_quality(
            actual_content=self.application.content_changes,
            displayed_content=self.meaningful_compositions,
            measured_content=self.meter.meaningful_frames,
            duration_s=self.duration_s,
        )

    def fault_summary_dict(self) -> dict:
        """Fault-injection and watchdog counters, JSON-ready.

        Always present (all-zero without an injector) so summaries of
        faulted and pristine sessions share one schema — and a
        zero-rate plan yields a block identical to no plan at all.
        """
        summary = {
            "injected_total": 0,
            "injected_by_site": {},
            "watchdog_state": "nominal",
            "meter_failures": 0,
            "failsafe_entries": 0,
            "recoveries": 0,
        }
        if self.injector is not None:
            summary.update(self.injector.summary_dict())
        if self.watchdog is not None:
            summary.update(self.watchdog.summary_dict())
        return summary

    def telemetry_summary_dict(self) -> Optional[dict]:
        """The telemetry hub's summary, or None when telemetry was off.

        Unlike :meth:`fault_summary_dict` this is *not* always present:
        summaries of untelemetered sessions must stay byte-identical to
        the pre-telemetry schema.
        """
        if self.telemetry is None:
            return None
        return self.telemetry.summary_dict()

    def telemetry_events(self) -> tuple:
        """The session's full event stream as JSON-ready dicts.

        Requires a lossless capture buffer
        (``TelemetryConfig(capture_buffer=True)``); returns ``()`` when
        telemetry was off or no buffer sink was attached.  This is the
        plain-data form the batch runner ships across the process
        boundary and interleaves into a combined stream.
        """
        if self.telemetry is None:
            return ()
        buffer = self.telemetry.buffer
        if buffer is None:
            return ()
        return tuple(event.to_json_dict() for event in buffer.events)

    @property
    def mean_frame_rate_fps(self) -> float:
        """Session-average frame-update rate."""
        return len(self.compositions) / self.duration_s

    @property
    def mean_content_rate_fps(self) -> float:
        """Session-average displayed content rate (ground truth)."""
        return len(self.meaningful_compositions) / self.duration_s

    @property
    def mean_redundant_rate_fps(self) -> float:
        """Session-average redundant frame rate (ground truth)."""
        return self.mean_frame_rate_fps - self.mean_content_rate_fps

    @property
    def mean_refresh_rate_hz(self) -> float:
        """Time-weighted mean panel refresh rate."""
        return self.panel.rate_history.mean(0.0, self.duration_s)


def run_session(config: SessionConfig) -> SessionResult:
    """Run one complete session and return its traces.

    Facade over :class:`~repro.pipeline.builder.SessionBuilder`; the
    staged assembly there reproduces the original monolith's wiring
    order exactly, so results are byte-identical to the pre-refactor
    path.  Execution itself runs through
    :class:`~repro.sim.runner.SessionRunner` — the incremental
    start/advance/finish core that also powers checkpoint/resume.
    """
    return SessionBuilder(config).run()
