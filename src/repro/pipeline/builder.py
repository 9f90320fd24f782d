"""Staged session assembly: config -> wired pipeline -> result.

:class:`SessionBuilder` is the constructor the old ``run_session``
monolith turned into.  Each ``build_*`` stage assembles one layer of
the pipeline — telemetry, fault injection, display stack, meter,
application, governor, input — in the exact order (and with the exact
seed derivations) the monolith used, so a built session is
byte-identical to the pre-refactor path.  The stages are separate
methods so tests and extensions can assemble a partial pipeline,
swap one stage, and continue; :meth:`run` executes the assembled
session and returns the same :class:`~repro.sim.session.SessionResult`
``run_session`` always returned.

Cross-cutting concerns attach as decorators on components rather than
as pipeline stages of their own: the fault injector and telemetry hub
are handed to each component at construction (``DisplayPanel``,
``ContentRateMeter``, ``TouchSource``, ``GovernorDriver``), and the
fail-safe watchdog wraps the governor policy.  A session without
faults or telemetry takes every uninstrumented branch and stays
bit-identical to the plain pipeline.

Entry points::

    result = SessionBuilder(config).run()           # what run_session does
    result = SessionBuilder.from_spec(spec).run()   # from a declarative spec
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, TypeVar, Union

from ..apps.base import Application
from ..apps.profile import (
    AppCategory,
    AppProfile,
    ContentProcess,
    RenderStyle,
)
from ..apps.wallpaper import LiveWallpaper, WallpaperProfile
from ..baselines.e3 import E3ScrollGovernor
from ..core.content_rate import ContentRateMeter
from ..core.governor import GovernorDriver, GovernorPolicy
from ..core.watchdog import GovernorWatchdog
from ..display.panel import DisplayPanel
from ..errors import ConfigurationError
from ..faults.injector import FaultInjector
from ..graphics.compositor import SurfaceManager
from ..graphics.framebuffer import Framebuffer
from ..graphics.surface import Surface
from ..inputs.monkey import MonkeyScriptGenerator
from ..inputs.touch import TouchEvent, TouchKind, TouchScript, TouchSource
from ..power.oled import OledEmissionTracker, OledModel
from ..sim.engine import Simulator
from ..sim.scenario import (
    ScenarioApplication,
    ScenarioWorkload,
    SessionApplication,
)
from ..sim.tracing import EventLog
from ..telemetry.events import EVENT_SESSION_END, EVENT_SESSION_START
from ..telemetry.hub import TelemetryHub, build_hub
from ..traces.profile import TraceProfile
from ..traces.source import TraceFrameSource
from .apps import resolve_workload
from .governors import GovernorContext, build_governor
from .spec import SessionSpec

#: How often a scroll drag re-delivers motion events to the governor
#: (real input stacks deliver moves at tens of hertz; touch boosting
#: re-arms on each one, holding the boost through the whole gesture).
SCROLL_MOVE_EVENT_HZ = 10.0

T = TypeVar("T")


class SessionBuilder:
    """Assemble one session from a config, stage by stage.

    Stages must run in declaration order (each consumes what earlier
    stages built); :meth:`assemble` runs any not yet run, so callers
    can invoke a prefix of stages manually, customize, then let
    :meth:`assemble`/:meth:`run` finish the rest.
    """

    def __init__(self, config: "SessionConfig") -> None:
        self.config = config
        self.profile: AppProfile = config.resolve_profile()
        self.sim = Simulator()
        # Stage products (filled by the build_* methods below).
        self.telemetry: Optional[TelemetryHub] = None
        self.injector: Optional[FaultInjector] = None
        self.framebuffer: Optional[Framebuffer] = None
        self.compositor: Optional[SurfaceManager] = None
        self.panel: Optional[DisplayPanel] = None
        self.meter: Optional[ContentRateMeter] = None
        self.oled_tracker: Optional[OledEmissionTracker] = None
        self.application: Optional[SessionApplication] = None
        self.status_bar_app: Optional[Application] = None
        self.compositions: Optional[EventLog] = None
        self.meaningful_compositions: Optional[EventLog] = None
        self.policy: Optional[GovernorPolicy] = None
        self.watchdog: Optional[GovernorWatchdog] = None
        self.driver: Optional[GovernorDriver] = None
        self.touch_script: Optional[TouchScript] = None
        self.touch_source: Optional[TouchSource] = None
        self._completed_stages: Dict[str, bool] = {}

    @classmethod
    def from_spec(
            cls,
            spec: Union[SessionSpec, Dict[str, Any], str]
    ) -> "SessionBuilder":
        """A builder for a declarative spec (object, dict, or JSON)."""
        if isinstance(spec, str):
            spec = SessionSpec.from_json(spec)
        elif isinstance(spec, dict):
            spec = SessionSpec.from_json_dict(spec)
        return cls(spec.to_config())

    # ------------------------------------------------------------------
    # Stages, in assembly order
    # ------------------------------------------------------------------
    def build_telemetry(self) -> "SessionBuilder":
        """Stage 1: the telemetry hub (None = uninstrumented)."""
        config = self.config
        self.telemetry = build_hub(
            config.telemetry,
            default_session_id=f"{self.profile.name}:{config.governor}"
                               f":{config.seed}")
        if self.telemetry is not None:
            self.telemetry.emit(EVENT_SESSION_START, 0.0,
                                app=self.profile.name,
                                governor=config.governor,
                                seed=config.seed,
                                duration_s=config.duration_s)
        self._completed_stages["build_telemetry"] = True
        return self

    def build_injector(self) -> "SessionBuilder":
        """Stage 2: the fault injector (None = pristine)."""
        config = self.config
        self.injector = (
            FaultInjector(config.faults, telemetry=self.telemetry)
            if config.faults is not None else None)
        self._completed_stages["build_injector"] = True
        return self

    def build_display(self) -> "SessionBuilder":
        """Stage 3: framebuffer, compositor and panel."""
        config = self.config
        spec = config.panel
        fb_width = max(8, spec.width // config.resolution_divisor)
        fb_height = max(8, spec.height // config.resolution_divisor)
        self.framebuffer = Framebuffer(fb_width, fb_height)
        self.compositor = SurfaceManager(self.framebuffer)
        self.panel = DisplayPanel(self.sim, spec,
                                  injector=self.injector,
                                  telemetry=self.telemetry)
        self._completed_stages["build_display"] = True
        return self

    def build_meter(self) -> "SessionBuilder":
        """Stage 4: the content-rate meter watching the framebuffer."""
        self.meter = ContentRateMeter(
            self._need(self.framebuffer, "framebuffer"),
            self.config.meter, injector=self.injector,
            telemetry=self.telemetry)
        self._completed_stages["build_meter"] = True
        return self

    def build_tracker(self) -> "SessionBuilder":
        """Stage 5: optional OLED emission tracker (extension)."""
        if self.config.track_oled:
            self.oled_tracker = OledEmissionTracker(
                self._need(self.framebuffer, "framebuffer"), OledModel())
        self._completed_stages["build_tracker"] = True
        return self

    def build_application(self) -> "SessionBuilder":
        """Stage 6: the app (and optional status-bar overlay).

        The content seed derives from the master seed only — runs with
        different governors see identical workloads.  A scenario's
        segments bring their own surfaces, registered as each launches.
        """
        config = self.config
        framebuffer = self._need(self.framebuffer, "framebuffer")
        compositor = self._need(self.compositor, "compositor")
        app_seed = config.seed * 1_000_003 + 1
        workload = resolve_workload(config.app)
        if isinstance(workload, ScenarioWorkload):
            self.application = ScenarioApplication(
                workload, self.sim, compositor, framebuffer.width,
                framebuffer.height, seed=app_seed)
        else:
            surface = Surface(framebuffer.width, framebuffer.height,
                              name=self.profile.name)
            compositor.register_surface(surface)
            if isinstance(config.app, WallpaperProfile):
                self.application = LiveWallpaper(
                    config.app, self.sim, compositor, surface,
                    seed=app_seed)
            elif isinstance(workload, TraceProfile):
                trace = workload.load()
                if (trace.width, trace.height) != (framebuffer.width,
                                                   framebuffer.height):
                    raise ConfigurationError(
                        f"trace {workload.path} was recorded at "
                        f"{trace.width}x{trace.height} but this "
                        f"session's framebuffer is {framebuffer.width}x"
                        f"{framebuffer.height}; replay with the panel "
                        f"and resolution_divisor the trace was recorded "
                        f"at")
                self.application = TraceFrameSource(
                    trace, self.profile, self.sim, compositor, surface,
                    seed=app_seed)
            else:
                self.application = Application(
                    self.profile, self.sim, compositor, surface,
                    seed=app_seed)
        if config.status_bar:
            bar_height = max(2, framebuffer.height // 24)
            bar_surface = Surface(framebuffer.width, bar_height,
                                  x=0, y=0, z_order=1, name="status-bar")
            compositor.register_surface(bar_surface)
            self.status_bar_app = Application(
                status_bar_profile(), self.sim, compositor, bar_surface,
                seed=app_seed + 17)
        self._completed_stages["build_application"] = True
        return self

    def build_logs(self) -> "SessionBuilder":
        """Stage 7: ground-truth composition logs and V-Sync wiring
        (apps render first, the compositor latches after them)."""
        compositor = self._need(self.compositor, "compositor")
        panel = self._need(self.panel, "panel")
        application = self._need(self.application, "application")
        compositions = EventLog("compositions")
        meaningful = EventLog("meaningful_compositions")

        def _log_composition(time: float, redundant: bool) -> None:
            compositions.append(time)
            if not redundant:
                meaningful.append(time)

        compositor.add_composition_listener(_log_composition)
        panel.add_vsync_listener(application.on_vsync)
        if self.status_bar_app is not None:
            panel.add_vsync_listener(self.status_bar_app.on_vsync)
        panel.add_vsync_listener(compositor.on_vsync)
        self.compositions = compositions
        self.meaningful_compositions = meaningful
        self._completed_stages["build_logs"] = True
        return self

    def build_governor(self) -> "SessionBuilder":
        """Stage 8: policy (from the registry), watchdog, driver."""
        config = self.config
        panel = self._need(self.panel, "panel")
        context = GovernorContext(
            panel=panel,
            meter=self._need(self.meter, "meter"),
            application=self._need(self.application, "application"),
            content_window_s=config.content_window_s,
            boost_hold_s=config.boost_hold_s,
            table_bias=config.table_bias,
            framebuffer=self._need(self.framebuffer, "framebuffer"))
        policy = build_governor(config.governor, context)
        driven_policy: GovernorPolicy = policy
        if self.injector is not None and config.watchdog:
            self.watchdog = GovernorWatchdog(
                policy, failsafe_rate_hz=panel.spec.max_refresh_hz,
                config=config.watchdog_config, telemetry=self.telemetry)
            driven_policy = self.watchdog
        self.policy = policy
        self.driver = GovernorDriver(self.sim, panel, driven_policy,
                                     config.decision_period_s,
                                     telemetry=self.telemetry)
        self._completed_stages["build_governor"] = True
        return self

    def build_input(self) -> "SessionBuilder":
        """Stage 9: the Monkey touch script and its delivery source.

        The script seed derives from the master seed only, never the
        governor, so every policy replays the identical gesture
        sequence."""
        config = self.config
        workload = resolve_workload(config.app)
        if isinstance(workload, ScenarioWorkload):
            script = workload.touch_script(config.seed * 7_777_777)
        else:
            monkey = MonkeyScriptGenerator(config.resolve_monkey())
            script = monkey.generate(config.seed * 7_777_777 + 13)
        source = TouchSource(self.sim, script, injector=self.injector)
        source.add_listener(
            self._need(self.application, "application").on_touch)
        source.add_listener(make_governor_touch_adapter(
            self.sim, self._need(self.driver, "driver"),
            self._need(self.policy, "policy")))
        self.touch_script = script
        self.touch_source = source
        self._completed_stages["build_input"] = True
        return self

    _STAGES = ("build_telemetry", "build_injector", "build_display",
               "build_meter", "build_tracker", "build_application",
               "build_logs", "build_governor", "build_input")

    def assemble(self) -> "SessionBuilder":
        """Run every stage not yet run, in order.

        Stages invoked manually are skipped here — a caller can run a
        prefix (say, through :meth:`build_display` to tap the
        framebuffer), customize, and let :meth:`assemble` finish the
        rest without rebuilding what already exists.
        """
        for stage in self._STAGES:
            if not self._completed_stages.get(stage):
                getattr(self, stage)()
        return self

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> "SessionResult":
        """Assemble (if needed), run the session, return its traces.

        Delegates to :class:`~repro.sim.runner.SessionRunner`, the
        incremental start/advance/finish core — running to completion
        is the single-slice special case of sliced execution, so the
        run-to-completion and checkpoint/resume paths cannot drift
        apart.
        """
        from ..sim.runner import SessionRunner

        return SessionRunner(self).run()

    # ------------------------------------------------------------------
    @staticmethod
    def _need(value: Optional[T], name: str) -> T:
        """Guard: ``value`` from an earlier stage, or a clear error."""
        if value is None:
            raise ConfigurationError(
                f"session builder stage ordering: {name!r} has not "
                f"been built yet (run assemble() or the earlier "
                f"build_* stages first)")
        return value


# ----------------------------------------------------------------------
# Helpers shared by the stages and the runner
# ----------------------------------------------------------------------
def finalize_telemetry(telemetry: TelemetryHub, config: "SessionConfig",
                       sim: Simulator, panel: DisplayPanel,
                       meter: ContentRateMeter,
                       injector: Optional[FaultInjector],
                       watchdog: Optional[GovernorWatchdog]) -> None:
    """Seal a session's telemetry: end-of-run gauges, fault snapshot.

    Fault and watchdog totals enter the metrics registry *here*, copied
    from the same ``summary_dict()`` calls that feed
    ``SessionResult.fault_summary_dict`` — a single emission path, so
    the ``faults`` block and the ``telemetry`` block can never
    disagree.  Live code paths only emit *events* for those subsystems.
    """
    metrics = telemetry.metrics
    metrics.gauge("sim.events_processed").set(sim.events_processed)
    metrics.gauge("sim.duration_s").set(config.duration_s)
    metrics.gauge("panel.final_refresh_hz").set(panel.refresh_rate_hz)
    metrics.counter("meter.bytes_copied").inc(meter.bytes_copied)
    if injector is not None:
        fault_summary = injector.summary_dict()
        metrics.counter("faults.injected_total").inc(
            fault_summary["injected_total"])
        for site, count in sorted(
                fault_summary["injected_by_site"].items()):
            metrics.counter(f"faults.injected.{site}").inc(count)
    if watchdog is not None:
        watchdog_summary = watchdog.summary_dict()
        for key in ("meter_failures", "failsafe_entries", "recoveries"):
            metrics.counter(f"watchdog.{key}").inc(
                watchdog_summary[key])
    telemetry.emit(EVENT_SESSION_END, config.duration_s,
                   events_processed=sim.events_processed,
                   frames=meter.total_frames,
                   meaningful_frames=meter.total_meaningful,
                   final_refresh_hz=panel.refresh_rate_hz)
    telemetry.close()


def make_governor_touch_adapter(
        sim: Simulator, driver: GovernorDriver,
        policy: GovernorPolicy) -> Callable[[TouchEvent], None]:
    """Deliver touch events (and scroll motion streams) to the governor.

    A tap is one event.  A scroll drag generates a stream of motion
    events for its whole duration (like a real input stack), each of
    which re-arms the policy — this is how touch boosting stays active
    through a long fling.
    """

    def on_touch(event: TouchEvent) -> None:
        driver.notify_touch(event.time)
        if isinstance(policy, E3ScrollGovernor):
            policy.on_touch_event(event)
        if event.kind is TouchKind.SCROLL and event.duration_s > 0:
            period = 1.0 / SCROLL_MOVE_EVENT_HZ
            t = event.time + period
            end = event.time + event.duration_s
            while t <= end:
                sim.call_at(t, _notify_at(driver), name="scroll-move")
                t += period

    def _notify_at(
            target: GovernorDriver) -> Callable[[Simulator], None]:
        def fire(s: Simulator) -> None:
            target.notify_touch(s.now)
        return fire

    return on_touch


def status_bar_profile() -> AppProfile:
    """The status-bar overlay: a 1 Hz clock tick in a tiny region."""
    return AppProfile(
        name="status-bar",
        category=AppCategory.GENERAL,
        idle_content_fps=1.0,
        active_content_fps=1.0,
        content_process=ContentProcess.PERIODIC,
        idle_submit_fps=0.0,
        render_style=RenderStyle.SMALL_REGION,
        render_cost_mj=0.1,
        cpu_base_mw=0.0,
        touch_events_per_s=0.0,
        scroll_fraction=0.0,
        notes="system overlay (session option)")


def run_spec(
        spec: Union[SessionSpec, Dict[str, Any], str]
) -> "SessionResult":
    """Run a session straight from a declarative spec."""
    return SessionBuilder.from_spec(spec).run()


if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.session import SessionConfig, SessionResult
