"""The benchmark's four workloads and the checks on their outputs.

Each workload builds its inputs from the seed alone, runs one timed
iteration through a public entry point (``run_batch(configs,
workers=1)`` or ``run_tournament(config, workers=1, workdir=...)``),
and returns its outputs as plain data with host timestamps.  Nothing
here passes ``engine=`` or touches ``repro.bench``, ``repro.service``
or telemetry, so later changes that remove those leave the benchmark
intact.

Why these four (see README.md for the full table):

* ``catalog30`` - the Table 1 survey users run; at 90x160 pixels the
  grid gather and the renderers dominate.
* ``native`` - the pixel path at the paper's 720x1280 resolution;
  renderers, compositor blit and buffer copies dominate.
* ``tournament`` - the only workload with OLED pricing, stateful zoo
  governors and trace decode.
* ``idle_ltpo`` - a static 120 Hz screen where the event loop
  dominates and pixels cost nothing; it bounds what a V-Sync fast path
  can gain elsewhere.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.aggregate import summarize_categories
from repro.analysis.export import json_sanitize
from repro.apps.catalog import all_app_names
from repro.apps.profile import AppCategory, AppProfile, RenderStyle
from repro.display.presets import panel_preset
from repro.experiments.survey import SurveyConfig, SurveySummaries
from repro.experiments.tournament import TournamentConfig, run_tournament
from repro.inputs.monkey import MonkeyConfig
from repro.pipeline.governors import governor_names
from repro.sim.batch import is_failure_record, run_batch
from repro.sim.session import SessionConfig

#: Catalog apps every smoke run uses: two general apps and one game,
#: so Table 1 still has both categories.
SMOKE_APPS = ("Facebook", "MX Player", "Jelly Splash")
SMOKE_SESSION_S = 2.0
WARMUP_SESSION_S = 2.0

#: Where ``run_tournament`` writes its generated trace files.  Each call
#: rewrites the same files, so the decoded-trace cache of
#: ``repro.traces.profile`` (keyed by path, invalidated on change)
#: reloads them instead of keeping one more copy per call.
TOURNAMENT_TRACE_DIR = pathlib.Path(__file__).resolve().parent / "out/traces"

#: Governor decision period of every session here (the config default).
DECISION_PERIOD_S = next(f.default for f in dataclasses.fields(SessionConfig)
                         if f.name == "decision_period_s")

#: Summary fields that must be finite in every session.
FINITE_FIELDS = ("mean_power_mw", "energy_mj", "mean_refresh_hz",
                 "frame_rate_fps", "content_rate_fps", "redundant_rate_fps",
                 "display_quality", "dropped_fps")

#: The Section 2 static screen: a page turn every ~20 s, a 1 fps
#: submission loop re-posting the unchanged frame, almost no touches.
ALWAYS_ON_READER = AppProfile(
    name="always-on reader", category=AppCategory.GENERAL,
    idle_content_fps=0.05, active_content_fps=2.0,
    idle_submit_fps=1.0, touch_events_per_s=0.02,
    render_style=RenderStyle.SMALL_REGION)


def app_seed(seed: int, index: int) -> int:
    """Session seed of the ``index``-th app of a workload.

    Each app gets its own draw of content and touches, so the seed's
    effect on the amount of work averages out over a workload's apps
    (one shared seed gives, say, no touch in any 10 s session at all).
    """
    return 1000 * seed + index


def canonical(value: Any) -> str:
    """Canonical JSON: sorted keys, no spaces, non-finite as null."""
    return json.dumps(json_sanitize(value), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass
class Session:
    """One session's output: its metrics and its simulated length."""

    summary: Dict[str, Any]
    duration_s: float


@dataclasses.dataclass
class Iteration:
    """One timed iteration: host timestamps, outputs, check results."""

    #: ``time.perf_counter()`` when the timed call began.
    start: float
    #: ``time.perf_counter()`` as each session resolved (``run_batch``
    #: progress callbacks), or once when a call without a per-session
    #: hook returned.
    ends: List[float]
    #: Simulated seconds of all sessions.
    sim_s: float
    #: sha256 of each session's canonical JSON, compared across
    #: iterations.
    records: List[str]
    #: Sessions that failed a check, by index.
    failed: Dict[int, str]
    #: sha256 of the canonical JSON of the iteration's whole output.
    digest: str
    #: The sessions and the whole output, for workload-level views.
    #: Only the first iteration of a run keeps them (``drop_outputs``).
    sessions: List[Session]
    output: Any

    @property
    def wall_s(self) -> float:
        return self.ends[-1] - self.start

    def drop_outputs(self) -> None:
        """Release the bulky outputs once they have been checked, so
        memory does not grow with the number of iterations."""
        self.sessions = []
        self.output = None


def check_summary(summary: Dict[str, Any], duration_s: float) -> Optional[str]:
    """The first problem with one session summary, or None."""
    if is_failure_record(summary):
        return (f"failure record: {summary.get('error_type')}: "
                f"{summary.get('error_message')}")
    for name in FINITE_FIELDS:
        value = summary.get(name)
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            return f"{name} is not finite: {value!r}"
    if not summary["mean_power_mw"] > 0:
        return f"mean_power_mw {summary['mean_power_mw']} <= 0"
    if not 0.0 <= summary["display_quality"] <= 1.0:
        return f"display_quality {summary['display_quality']} outside [0, 1]"
    content = summary["content_rate_fps"]
    frames = summary["frame_rate_fps"]
    refresh = summary["mean_refresh_hz"]
    if not content <= frames <= refresh + 1.0 / duration_s:
        return (f"rates out of order: content {content} <= frame {frames}"
                f" <= refresh {refresh} + 1/{duration_s} fails")
    return None


def check_sessions(sessions: Sequence[Session]) -> Dict[int, str]:
    """``{index: problem}`` for every session that fails a check."""
    problems = {}
    for index, session in enumerate(sessions):
        problem = check_summary(session.summary, session.duration_s)
        if problem is not None:
            problems[index] = problem
    return problems


def iteration(start: float, ends: List[float], sessions: List[Session],
              output: Any, failed: Dict[int, str]) -> Iteration:
    return Iteration(
        start=start, ends=ends,
        sim_s=sum(session.duration_s for session in sessions),
        records=[sha256(canonical(session.summary)) for session in sessions],
        failed=failed, digest=sha256(canonical(output)),
        sessions=sessions, output=output)


class Workload:
    """Base: inputs from a seed, one timed call per iteration."""

    name = ""
    #: The ``hostspeed`` probe whose time tracks this workload's best.
    speed_probe = "python"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def warm_up(self) -> None:
        """One 2 s session through the same entry point."""
        raise NotImplementedError

    def run_once(self) -> Iteration:
        raise NotImplementedError

    def table1_err_pp(self, iteration: Iteration,
                      reference: Sequence[Dict]) -> Optional[float]:
        return None


class BatchWorkload(Workload):
    """Workloads timed through ``run_batch(configs, workers=1)``."""

    def configs(self, duration_s: Optional[float] = None
                ) -> List[SessionConfig]:
        raise NotImplementedError

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.batch = self.configs()

    def warm_up(self) -> None:
        run_batch(self.configs(WARMUP_SESSION_S)[:1], workers=1)

    def run_once(self) -> Iteration:
        return self.run_configs(self.batch)

    @staticmethod
    def run_configs(configs: Sequence[SessionConfig]) -> Iteration:
        """Time one ``run_batch`` call and check what it returns."""
        ends: List[float] = []

        def progress(done: int, total: int, entry: Dict) -> None:
            ends.append(time.perf_counter())

        start = time.perf_counter()
        entries = run_batch(configs, workers=1, progress=progress)
        sessions = [Session(entry, config.duration_s)
                    for entry, config in zip(entries, configs)]
        return iteration(start, ends, sessions, entries,
                         check_sessions(sessions))


class Catalog30(BatchWorkload):
    """All 30 catalog apps x {fixed, section, section+boost}, 10 s each."""

    name = "catalog30"
    governors = ("fixed", "section", "section+boost")

    def apps(self) -> Tuple[str, ...]:
        return SMOKE_APPS if self.smoke else all_app_names()

    def configs(self, duration_s=None):
        duration = duration_s or (SMOKE_SESSION_S if self.smoke else 10.0)
        return [SessionConfig(app=app, governor=governor,
                              duration_s=duration,
                              seed=app_seed(self.seed, index))
                for index, app in enumerate(self.apps())
                for governor in self.governors]

    def table1_err_pp(self, iteration, reference):
        return table1_err_pp(self.apps(), self.governors, self.seed,
                             iteration.output, reference)


class Native(BatchWorkload):
    """Four apps at the paper's 720x1280 resolution, without touches.

    A touch turns Jelly Splash's 8 fps animation into 46 fps and starts
    Facebook's scroll bursts, so with a Monkey script the pixel work of
    this small batch swings widely from seed to seed.  Untouched, the
    apps still cover scrolling, a game whose composites are mostly
    redundant, and video whose composites are all meaningful; touch
    boosting is left to the other workloads.
    """

    name = "native"
    speed_probe = "numpy"
    apps = ("Facebook", "Jelly Splash", "MX Player", "Asphalt 8")

    def configs(self, duration_s=None):
        apps = self.apps[:3] if self.smoke else self.apps
        duration = duration_s or (SMOKE_SESSION_S if self.smoke else 4.0)
        untouched = MonkeyConfig(duration_s=duration, events_per_s=0.0)
        return [SessionConfig(app=app, governor=governor,
                              duration_s=duration,
                              seed=app_seed(self.seed, index),
                              resolution_divisor=1, monkey=untouched)
                for index, app in enumerate(apps)
                for governor in ("fixed", "section")]


class IdleLtpo(BatchWorkload):
    """32 always-on readers on the 120 Hz LTPO panel."""

    name = "idle_ltpo"

    def configs(self, duration_s=None):
        count = 3 if self.smoke else 32
        duration = duration_s or (SMOKE_SESSION_S if self.smoke else 200.0)
        panel = panel_preset("ltpo-120")
        return [SessionConfig(app=ALWAYS_ON_READER, governor=governor,
                              duration_s=duration,
                              seed=app_seed(self.seed, index), panel=panel)
                for index in range(count)
                for governor in ("fixed", "section+boost")]


class Tournament(Workload):
    """Every registered governor on six apps and three trace kinds."""

    name = "tournament"
    speed_probe = "numpy"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        apps = ("Facebook", "CGV", "MX Player", "Jelly Splash", "Asphalt 8",
                "Cookie Run")
        self.config = TournamentConfig(
            apps=apps[:3] if smoke else apps,
            trace_kinds=("video", "scroll", "idle"),
            duration_s=2.0, trace_duration_s=2.0, seed=seed)

    def warm_up(self) -> None:
        # run_tournament needs one catalog and one trace cell, so its
        # warm-up is two 2 s sessions.
        run_tournament(TournamentConfig(
            governors=("fixed",), apps=self.config.apps[:1],
            trace_kinds=self.config.trace_kinds[:1],
            duration_s=WARMUP_SESSION_S, trace_duration_s=WARMUP_SESSION_S,
            seed=self.seed, luminance_probe=False), workers=1,
            workdir=str(TOURNAMENT_TRACE_DIR))

    def run_once(self) -> Iteration:
        start = time.perf_counter()
        document = run_tournament(self.config, workers=1,
                                  workdir=str(TOURNAMENT_TRACE_DIR))
        ends = [time.perf_counter()]
        duration = self.config.duration_s
        probe = document["luminance_probe"]
        outputs = [cell["metrics"] for cell in document["cells"]]
        outputs += [probe["dark"], probe["light"]]
        sessions = [Session(metrics, duration) for metrics in outputs]
        failed = check_sessions(sessions)
        # Board-level checks fail every session they cover.
        board = {row["governor"] for row in document["leaderboard"]}
        missing = set(governor_names()) - board
        if missing:
            for index in range(len(document["cells"])):
                failed.setdefault(index, f"leaderboard lacks {sorted(missing)}")
        if not probe["dark_below_light"]:
            for index in (len(sessions) - 2, len(sessions) - 1):
                failed.setdefault(index, "luminance probe: dark >= light")
        return iteration(start, ends, sessions, document, failed)


WORKLOADS = {cls.name: cls for cls in (Catalog30, Native, Tournament, IdleLtpo)}


def table1_err_pp(apps: Sequence[str], governors: Sequence[str], seed: int,
                  entries: Sequence[Dict], reference: Sequence[Dict]
                  ) -> Optional[float]:
    """Mean |reproduced - paper| over the Table 1 cells with a paper value.

    ``entries`` are survey summaries in app-major, governor-minor order;
    ``reference`` lists ``{category, method, quantity, paper}`` cells,
    where ``quantity`` is ``saved_power_percent`` or
    ``display_quality_percent``.  None when a category has no apps.
    """
    flat = iter(entries)
    summaries = {app: {governor: next(flat) for governor in governors}
                 for app in apps}
    survey = SurveySummaries(
        config=SurveyConfig(apps=tuple(apps), governors=tuple(governors),
                            seed=seed),
        summaries=summaries)
    methods = sorted({cell["method"] for cell in reference})
    measured = {m: survey.measurements(m) for m in methods}
    categories = {row.category for rows in measured.values() for row in rows}
    if categories != set(AppCategory):
        return None
    table = {summary.category.value: summary.methods
             for summary in summarize_categories(measured)}
    errors = [abs(getattr(table[cell["category"]][cell["method"]],
                          cell["quantity"]).mean - cell["paper"])
              for cell in reference]
    return sum(errors) / len(errors)


def simulated_properties(sessions: Sequence[Session]) -> Dict[str, float]:
    """Workload properties on the simulation clock, from the summaries.

    ``sim.frames_per_vsync`` bounds what skipping V-Syncs can save;
    ``graphics.compositor.meaningful_ratio`` is useful composites per
    composite; ``core.governor.switches_per_decision`` is rate switches
    per governor decision.
    """
    frames = vsyncs = meaningful = switches = decisions = 0.0
    for session in sessions:
        summary, duration = session.summary, session.duration_s
        frames += summary["frame_rate_fps"] * duration
        vsyncs += summary["mean_refresh_hz"] * duration
        meaningful += summary["content_rate_fps"] * duration
        switches += summary["rate_switches"]
        decisions += duration / DECISION_PERIOD_S
    return {
        "sim.frames_per_vsync": frames / vsyncs,
        "graphics.compositor.meaningful_ratio": meaningful / frames,
        "core.governor.switches_per_decision": switches / decisions,
    }
