"""Multi-application usage scenarios: app switching in one session.

Real phone use is not one app for three minutes — it is a messenger,
then a game, then a feed.  A scenario runs a sequence of applications
inside a *single* simulation: at each segment boundary the previous
app's surface is torn down, the next app launches (with a full-screen
launch transition frame), and its own Monkey script begins.  The
display manager persists across segments, so the benchmark question —
does the governor adapt when the workload changes under it? — is
exercised directly.

The segment list is a session workload (:class:`ScenarioWorkload`),
assembled and run like any other; :func:`run_scenario` is a facade.
Each segment is priced over its own window under its own profile, and
the scenario total is the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import TYPE_CHECKING, Any, List, Optional, Tuple, Union

from ..apps.base import Application
from ..apps.catalog import app_profile
from ..apps.profile import AppProfile
from ..core.content_rate import MeterConfig
from ..core.quality import quality_vs_baseline
from ..display.presets import GALAXY_S3_PANEL
from ..display.spec import PanelSpec
from ..errors import ConfigurationError
from ..graphics.compositor import SurfaceManager
from ..graphics.surface import Surface
from ..inputs.monkey import MonkeyConfig, MonkeyScriptGenerator
from ..inputs.touch import TouchEvent, TouchScript, merge_scripts
from ..units import ensure_positive
from .engine import Simulator
from .tracing import EventLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import SessionConfig, SessionResult


@dataclass(frozen=True)
class ScenarioSegment:
    """One stretch of the scenario: which app, for how long."""

    app: Union[str, AppProfile]
    duration_s: float

    def __post_init__(self) -> None:
        ensure_positive(self.duration_s, "duration_s")

    def resolve_profile(self) -> AppProfile:
        """The profile this segment runs."""
        if isinstance(self.app, str):
            return app_profile(self.app)
        return self.app


@dataclass(frozen=True)
class ScenarioWorkload:
    """A segment list as a session workload (``SessionConfig.app``).

    Unknown app names fail here, at construction.
    """

    segments: Tuple[ScenarioSegment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ConfigurationError("scenario needs at least one segment")
        for segment in self.segments:
            segment.resolve_profile()

    @property
    def total_duration_s(self) -> float:
        """Scenario length: the sum of segment durations."""
        return sum(s.duration_s for s in self.segments)

    def boundaries(self) -> List[Tuple[float, float]]:
        """``(start, end)`` of each segment."""
        ends = list(accumulate(seg.duration_s for seg in self.segments))
        return list(zip([0.0] + ends[:-1], ends))

    def as_app_profile(self) -> AppProfile:
        """The opening segment's profile (``SessionResult.profile``)."""
        return self.segments[0].resolve_profile()

    def touch_script(self, seed: int) -> TouchScript:
        """Each segment's own Monkey script, seeded ``seed + 131 *
        index`` and shifted into its window, merged."""
        scripts = []
        for index, (segment, (start, _)) in enumerate(
                zip(self.segments, self.boundaries())):
            profile = segment.resolve_profile()
            monkey = MonkeyScriptGenerator(MonkeyConfig(
                duration_s=segment.duration_s,
                events_per_s=profile.touch_events_per_s,
                scroll_fraction=profile.scroll_fraction,
            ))
            scripts.append(TouchScript([
                TouchEvent(time=e.time + start, kind=e.kind,
                           duration_s=e.duration_s)
                for e in monkey.generate(seed + 131 * index)
            ]))
        return merge_scripts(scripts)


@dataclass
class SegmentResult:
    """One segment of a scenario session: its app and its window."""

    profile: AppProfile
    start_s: float
    end_s: float
    application: Application

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class ScenarioApplication:
    """A scenario session's application: one
    :class:`~repro.apps.base.Application` per segment (seeded ``seed +
    7 * index``, all built up front so the workload is
    governor-independent), launched on the simulation clock.  V-Syncs
    and touches go to the app in the foreground.
    """

    def __init__(self, workload: ScenarioWorkload, sim: Simulator,
                 compositor: SurfaceManager, width: int, height: int,
                 seed: int) -> None:
        self._sim = sim
        self._compositor = compositor
        self._active: Optional[Application] = None
        self.segments: List[SegmentResult] = []
        for index, (segment, (start, end)) in enumerate(
                zip(workload.segments, workload.boundaries())):
            profile = segment.resolve_profile()
            surface = Surface(width, height,
                              name=f"{profile.name}#{index}")
            self.segments.append(SegmentResult(
                profile, start, end, Application(
                    profile, sim, compositor, surface,
                    seed=seed + 7 * index)))

    def start(self) -> None:
        """Schedule every segment's launch at its start time."""
        for index, segment in enumerate(self.segments):
            self._sim.call_at(segment.start_s, partial(self._launch, index),
                              name=f"segment-{index}")

    def _launch(self, index: int, sim: Simulator) -> None:
        if self._active is not None:
            self._compositor.unregister_surface(self._active.surface)
        application = self.segments[index].application
        self._compositor.register_surface(application.surface)
        # Launch transition: the new app's first frame repaints the
        # screen.
        application.surface.fill((18 + 23 * index % 200, 24, 32))
        self._compositor.post(application.surface)
        application.start()
        self._active = application

    def on_vsync(self, time: float) -> None:
        if self._active is not None:
            self._active.on_vsync(time)

    def on_touch(self, event: TouchEvent) -> None:
        if self._active is not None:
            self._active.on_touch(event)

    def _merged(self, name: str) -> EventLog:
        # A backgrounded app's content process keeps ticking; only
        # what happened inside a segment's window is the scenario's.
        log = EventLog(name)
        for segment in self.segments:
            times = getattr(segment.application, name).times
            log.extend(times[times <= segment.end_s].tolist())
        return log

    @property
    def renders(self) -> EventLog:
        """Every segment's render passes, in time order."""
        return self._merged("renders")

    @property
    def content_changes(self) -> EventLog:
        """Every segment's content changes inside its window."""
        return self._merged("content_changes")


#: What a session's ``application`` is: one app, or a scenario's.
SessionApplication = Union[Application, ScenarioApplication]


@dataclass(frozen=True)
class ScenarioConfig:
    """A full usage scenario, validated by building its
    :meth:`session_config`."""

    segments: Tuple[ScenarioSegment, ...]
    governor: str = "section+boost"
    seed: int = 0
    panel: PanelSpec = GALAXY_S3_PANEL
    resolution_divisor: int = 8
    meter: MeterConfig = field(default_factory=MeterConfig)
    decision_period_s: float = 0.2
    boost_hold_s: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        self.session_config()

    def session_config(self) -> "SessionConfig":
        """The session this scenario runs as."""
        from .session import SessionConfig

        workload = ScenarioWorkload(self.segments)
        return SessionConfig(
            app=workload, governor=self.governor,
            duration_s=workload.total_duration_s, seed=self.seed,
            panel=self.panel, resolution_divisor=self.resolution_divisor,
            meter=self.meter, decision_period_s=self.decision_period_s,
            boost_hold_s=self.boost_hold_s)

    @property
    def total_duration_s(self) -> float:
        """Scenario length: the sum of segment durations."""
        return ScenarioWorkload(self.segments).total_duration_s

    def boundaries(self) -> List[Tuple[float, float]]:
        """``(start, end)`` of each segment."""
        return ScenarioWorkload(self.segments).boundaries()


@dataclass
class ScenarioResult:
    """A scenario's session result, viewed segment by segment.

    Attributes not defined here are the session's: ``segments``,
    ``panel``, ``meter``, ``compositions``, ``meaningful_compositions``,
    ``touch_script``, ``governor_name``, ``mean_refresh_rate_hz``,
    ``power_report(model)`` and ``segment_power(segment, model)``.
    """

    config: ScenarioConfig
    session: "SessionResult"

    def __getattr__(self, name: str) -> Any:
        try:
            session = self.__dict__["session"]
        except KeyError:
            raise AttributeError(name) from None
        return getattr(session, name)

    def segment_content_fps(self, segment: SegmentResult) -> float:
        """Displayed content rate within one segment."""
        return self.meaningful_compositions.count_in(
            segment.start_s, segment.end_s) / segment.duration_s

    def segment_quality(self, segment_index: int,
                        baseline: "ScenarioResult") -> float:
        """Quality of one segment against a fixed-baseline scenario."""
        mine = self.segment_content_fps(self.segments[segment_index])
        theirs = baseline.segment_content_fps(
            baseline.segments[segment_index])
        return quality_vs_baseline(mine, theirs)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run a multi-app scenario and return its traces."""
    from ..pipeline.builder import SessionBuilder

    return ScenarioResult(
        config, SessionBuilder(config.session_config()).run())
