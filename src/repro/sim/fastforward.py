"""The V-Sync fast-forward: skip ticks that provably change nothing.

On a static screen most V-Syncs composite nothing and most governor
decisions re-select the current rate.  :class:`SessionRunner
<repro.sim.runner.SessionRunner>` attaches a :class:`FastForward` to
every session the gate admits, and it replaces runs of such ticks by
their known effect — while every observable output (summaries,
``state_digest``, ``events_processed``, checkpoints) stays
byte-identical to firing each tick off the event heap.

The gate
    Evaluated once, when the runner is built (:func:`_gate`).  Fault
    injection (per-read control flow), telemetry (must observe every
    tick), wallpaper and trace workloads (they draw every V-Sync) and
    governors whose decisions cannot be replicated
    (:data:`REPLICABLE_GOVERNORS` is an allowlist) keep the plain
    stepping path, as do sessions whose panel, compositor or
    framebuffer carry observers the replay does not know.

Hand-off
    The runner keeps stepping inside :meth:`Simulator.run_until
    <repro.sim.engine.Simulator.run_until>`.  A V-Sync listener, last
    in the panel's list, asks the simulator to pause after a V-Sync
    that leaves no pending post and no pending content, unless an
    event other than a governor decision is due within two frames; the
    controller then tries one skip region and stepping resumes.

The proof obligations
    Between heap events the only future work is the panel's V-Sync
    chain and the governor's decision chain, both periodic and both
    rescheduled by sequential float addition (``t + period``).  With no
    pending content, no pending post and no pending rate switch, a tick
    of either chain is inert when:

    * a V-Sync has no post to latch and no idle submission coming due;
    * a V-Sync's only work is an idle re-post that the compositor's
      coherence check absorbs (:meth:`~repro.graphics.compositor
      .SurfaceManager._absorbs_pending_posts`) and the framebuffer's
      only observer is the meter — its bookkeeping is replayed in bulk
      (:meth:`FastForward._replay_idle_posts`);
    * a decision re-selects the panel's target rate: read from the
      policy itself (``select_rate`` is pure for every replicable
      governor) or, for a long run of decisions, priced in one
      vectorised pass (:func:`_replicate_rates`).

    Anything else ends the region strictly before it: another live
    event (content change, touch, scroll motion), an idle submission
    the replay cannot cover, a decision that changes the rate, or a
    V-Sync and a decision at exactly the same time (their order is the
    heap's insertion sequence).  Skipped ticks are committed through
    the components' own hooks (``fast_forward_vsyncs``,
    ``PeriodicTask.fast_forward``, ``record_skipped_decisions``,
    ``credit_skipped``) in the chronological order of each chain's last
    skipped tick, which reproduces the heap's tie-breaks.

Costs and the storm bound
    A region shorter than two ticks is declined, and the cheap checks
    (pending work, the time of the second tick, the heap top, the first
    decision) run before the O(queue) heap scan.  Under ``max_events`` a region
    takes at most ``budget - 1`` ticks, so the budget's last event is
    always fired by ``run_until`` itself: an event storm raises at the
    same event, ``events_processed`` and sim time as plain stepping.
    Declining a region is always correct; it only costs speed.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from ..apps.base import Application
from ..apps.profile import AppProfile
from ..baselines.fixed import FixedRefreshGovernor
from ..core.governor import (
    GovernorPolicy,
    NaiveMatchGovernor,
    SectionBasedGovernor,
    TouchBoostGovernor,
)
from ..pipeline.apps import resolve_workload
from ..pipeline.governors import (
    GOVERNOR_FIXED,
    GOVERNOR_NAIVE,
    GOVERNOR_SECTION,
    GOVERNOR_SECTION_BOOST,
)

if TYPE_CHECKING:
    from ..pipeline.builder import SessionBuilder
    from .session import SessionConfig

#: Builtin governors with a pure ``select_rate`` that
#: :func:`_replicate_rates` replays exactly.  An allowlist: the zoo and registry extensions (which may
#: subclass a builtin and decide differently) keep plain stepping.
REPLICABLE_GOVERNORS: Tuple[str, ...] = (
    GOVERNOR_FIXED,
    GOVERNOR_SECTION,
    GOVERNOR_SECTION_BOOST,
    GOVERNOR_NAIVE,
)


def _gate(config: "SessionConfig") -> Tuple[str, ...]:
    """Why the fast-forward may not run ``config``: a tuple of codes
    (``faults``, ``telemetry``, ``workload``, ``governor``), empty when
    it may."""
    codes: List[str] = []
    if config.faults is not None:
        codes.append("faults")
    if config.telemetry is not None:
        codes.append("telemetry")
    if not isinstance(resolve_workload(config.app), AppProfile):
        codes.append("workload")
    if config.governor not in REPLICABLE_GOVERNORS:
        codes.append("governor")
    return tuple(codes)


def _replicate_rates(policy: GovernorPolicy,
                     times: npt.NDArray[np.float64]
                     ) -> Optional[npt.NDArray[np.float64]]:
    """What ``policy.select_rate`` would return at each future time.

    Returns ``None`` for a policy that is not one of the replicable
    builtins (:meth:`FastForward.attach` then refuses the session).
    Otherwise the result is elementwise identical to calling
    ``select_rate`` at each time against the meter state, which is
    static during a region:

    * ``fixed`` - a constant;
    * ``section`` - batched windowed content rates (``searchsorted`` ==
      ``bisect`` on identical float64) through the batched table lookup;
    * ``naive`` - the first rate level >= the content rate;
    * ``section+boost`` - the boost predicate ``time < boost_until``
      choosing between the boost rate and the inner policy's rates.
    """
    if isinstance(policy, FixedRefreshGovernor):
        return np.full(times.shape, policy.rate_hz, dtype=np.float64)
    if isinstance(policy, TouchBoostGovernor):
        inner = _replicate_rates(policy.inner, times)
        if inner is None:
            return None
        return np.where(times < policy.boost_until,
                        np.float64(policy.boost_rate_hz), inner)
    if isinstance(policy, SectionBasedGovernor):
        contents = policy.meter.content_rates_batch(
            times, policy.window_s)
        return policy.table.lookup_batch(contents)
    if isinstance(policy, NaiveMatchGovernor):
        contents = policy.meter.content_rates_batch(
            times, policy.window_s)
        levels = np.asarray(policy.rates, dtype=np.float64)
        index = np.minimum(
            np.searchsorted(levels, contents, side="left"),
            len(levels) - 1)
        return levels[index]
    return None


def _chain_times(start: float, period: float, until: float,
                 block: Optional[float]) -> List[float]:
    """Tick times of one periodic chain inside the region limits.

    Exactly the ticks plain stepping would fire: ``start``,
    ``start + period``, ...  :func:`numpy.add.accumulate` performs the
    same left-to-right float64 additions as the sequential
    ``t = t + period`` reschedules, and the loop used for short chains
    performs literally those additions, so both branches give the same
    floats.  Ticks are kept while ``t <= until`` and, when a blocking
    event exists, ``t < block``.
    """
    if start > until or (block is not None and start >= block):
        return []
    limit = until if block is None else min(until, block)
    count = int((limit - start) / period) + 2
    if count <= 48:
        result: List[float] = []
        t = start
        while t <= until and (block is None or t < block):
            result.append(t)
            t = t + period
        return result
    steps = np.full(count, period, dtype=np.float64)
    steps[0] = start
    times = np.add.accumulate(steps)
    end = int(np.searchsorted(times, until, side="right"))
    if block is not None:
        end = min(end, int(np.searchsorted(times, block, side="left")))
    tail: List[float] = times[:end].tolist()
    return tail


def _cut(v_times: List[float], g_times: List[float], at: float) -> None:
    """Drop the ticks of both chains at or after ``at``."""
    del v_times[bisect.bisect_left(v_times, at):]
    del g_times[bisect.bisect_left(g_times, at):]


def _first_due(times: List[float], start_index: int, last_post: float,
               threshold: float) -> int:
    """First index >= ``start_index`` whose tick is idle-submit due.

    Evaluates the exact predicate of ``Application.on_vsync``,
    ``times[i] - last_post >= threshold``.  Due ticks form a suffix of
    the list (float subtraction is monotone in the minuend), so the
    boundary is found by binary search; ``len(times)`` when no
    remaining tick is due.
    """
    lo, hi = start_index, len(times)
    while lo < hi:
        mid = (lo + hi) // 2
        if times[mid] - last_post >= threshold:
            hi = mid
        else:
            lo = mid + 1
    return lo


class FastForward:
    """The skip controller of one session (see the module docstring).

    Built by :meth:`attach`, which returns ``None`` for sessions the
    gate refuses.
    """

    @classmethod
    def attach(cls, builder: "SessionBuilder") -> Optional["FastForward"]:
        """A controller for the assembled ``builder``, or ``None`` when
        the session must fire every tick."""
        if _gate(builder.config) or _replicate_rates(
                builder._need(builder.policy, "policy"),
                np.empty(0)) is None:
            # The policy must also be a builtin whose select_rate is
            # pure: a registry may rebind an allowlisted name.
            return None
        apps: List[Application] = [
            app for app in (builder.application, builder.status_bar_app)
            if isinstance(app, Application)]
        panel = builder._need(builder.panel, "panel")
        compositor = builder._need(builder.compositor, "compositor")
        # Skipped V-Syncs notify nobody: every V-Sync listener must be
        # one whose inert ticks the proof covers.
        expected = [app.on_vsync for app in apps] + [compositor.on_vsync]
        if panel._vsync_listeners != expected:
            return None
        return cls(builder, tuple(apps))

    def __init__(self, builder: "SessionBuilder",
                 apps: Tuple["Application", ...]) -> None:
        self._sim = builder.sim
        self._panel = builder._need(builder.panel, "panel")
        self._driver = builder._need(builder.driver, "driver")
        self._compositor = builder._need(builder.compositor, "compositor")
        self._apps = apps
        # Idle-submission predicate inputs, each threshold computed by
        # the exact float expression Application.on_vsync evaluates.
        self._idle_apps: Tuple[Tuple["Application", float], ...] = tuple(
            (app, (1.0 / app.profile.idle_submit_fps) - 1e-9)
            for app in apps if app.profile.idle_submit_fps > 0)
        self._framebuffer = builder._need(builder.framebuffer,
                                          "framebuffer")
        self._meter = builder._need(builder.meter, "meter")
        self._compositions_log = builder._need(builder.compositions,
                                               "compositions")
        # The bulk idle-post replay lands the whole effect chain of the
        # compositor's coherent branch; it is complete only when the
        # meter is the framebuffer's sole observer and the composition
        # log the compositor's sole listener.  Other observers (an OLED
        # tracker, a trace recorder) must see every tick, so idle-due
        # ticks then end the region and fire normally.
        fb_listeners = self._framebuffer._listeners
        self._idle_skip_ok = (
            builder.oled_tracker is None
            and len(fb_listeners) == 1
            and getattr(fb_listeners[0], "__self__", None) is self._meter
            and len(self._compositor._listeners) == 1)
        self._active = False
        self.skipped_ticks = 0
        self.skip_regions = 0
        self._panel.add_vsync_listener(self._after_vsync)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def advance(self, until: float, max_events: Optional[int]) -> int:
        """Fire or skip every event up to ``until``; returns the count,
        skipped ticks included.  Same contract as ``run_until``."""
        sim = self._sim
        self._active = True
        try:
            fired = self._skip(until, max_events)
            while True:
                budget = None if max_events is None \
                    else max_events - fired
                fired += sim.run_until(until, budget)
                if not sim.paused or (max_events is not None
                                      and fired >= max_events):
                    return fired
                fired += self._skip(until, None if max_events is None
                                    else max_events - fired)
        finally:
            self._active = False

    def _after_vsync(self, time: float) -> None:
        """Pause stepping after a V-Sync a skip region may follow."""
        if not self._active or self._compositor._pending:
            return
        for app in self._apps:
            if app._pending_changes:
                return
        upcoming = self._sim.peek_next_live()
        if upcoming is not None and upcoming.time <= time + (
                2.0 / self._panel._rate):
            task = self._driver._task
            if task is None or upcoming is not task._handle:
                # Another event lands within two frames: no region of
                # two ticks fits before it.  The next V-Sync asks again.
                return
        self._sim.request_pause()

    # ------------------------------------------------------------------
    # The controller
    # ------------------------------------------------------------------
    def _skip(self, until: float, budget: Optional[int]) -> int:
        """Skip one provably inert run of ticks; 0 when none qualifies.

        Every check replicates a scalar predicate with the exact same
        float expression or conservatively declines.  ``budget`` is the
        caller's remaining ``max_events`` allowance.
        """
        if budget is not None and budget < 3:
            return 0
        panel = self._panel
        vsync = panel._next_vsync
        if (vsync is None or vsync._cancelled or vsync._fired
                or panel._pending_rate is not None):
            # No scheduled tick, or a latched switch applies at the
            # next real tick.
            return 0
        task = self._driver._task
        if task is None:
            return 0
        decision = task._handle
        if decision is None or decision._cancelled or decision._fired:
            return 0
        if self._compositor._pending:
            return 0
        for app in self._apps:
            if app._pending_changes > 0:
                return 0
        # The second tick of the merged chains: a region of two ticks
        # must reach it before until and before any other event.
        vsync_period = 1.0 / panel.refresh_rate_hz
        decision_period = task.period
        v_first, g_first = vsync.time, decision.time
        if v_first < g_first:
            second = min(v_first + vsync_period, g_first)
        elif g_first < v_first:
            second = min(g_first + decision_period, v_first)
        else:
            return 0
        if second > until:
            return 0
        sim = self._sim
        upcoming = sim.peek_next_live()
        if upcoming is not vsync and upcoming is not decision:
            return 0
        policy = self._driver.policy
        target = panel.target_rate_hz
        if g_first <= second and policy.select_rate(g_first) != target:
            # The first or second tick is a decision that changes the
            # rate: a real event.
            return 0
        block = sim.next_live_time_excluding(vsync, decision)
        if block is not None and block <= second:
            return 0

        # Every stopping condition of sequential stepping - t past
        # until/block, a decision that changes the rate, a V-Sync and a
        # decision at the same time, an idle submission the replay
        # cannot cover - cuts both chains at one time, and the cuts
        # commute.  So the chains are generated wholesale and
        # truncated, the short decision chain first: its first rate
        # change bounds the V-Sync chain.
        g_times = _chain_times(g_first, decision_period, until, block)
        g_rates: List[float] = []
        if g_times:
            # A few reads of the policy itself (pure for every
            # replicable governor) settle most regions; a long run of
            # re-selections is priced in one vectorised pass.
            for tick in g_times[:8]:
                g_rates.append(policy.select_rate(tick))
                if g_rates[-1] != target:
                    break
            if len(g_times) > 8 and g_rates[-1] == target:
                rates = _replicate_rates(
                    policy, np.asarray(g_times[8:], dtype=np.float64))
                if rates is not None:
                    g_rates += [float(rate) for rate in rates.tolist()]
            mismatch = next((index for index, rate in enumerate(g_rates)
                             if rate != target), len(g_rates))
            if mismatch < len(g_times):
                # This decision is a real event, and later V-Syncs run
                # at the new rate.
                block = g_times[mismatch]
                del g_times[mismatch:]
        v_times = _chain_times(v_first, vsync_period, until, block)
        if g_times and v_times:
            # An exact collision: their order is the heap's insertion
            # sequence, which analysis cannot see.  Stop both chains
            # strictly before the earliest one.
            for tick in g_times:
                at = bisect.bisect_left(v_times, tick)
                if at < len(v_times) and v_times[at] == tick:
                    _cut(v_times, g_times, tick)
                    break

        # Idle re-posts are skippable too when the coherence check is
        # guaranteed to absorb them.  That guarantee holds across the
        # whole region: skipped ticks post nothing dirty and damage
        # nothing.  Apps post independently (each due test reads only
        # its own last-post time), and one app's due ticks form a
        # suffix of the remaining region, so each post is found by
        # binary search.
        idle_posts: List[List[float]] = [[] for _ in self._idle_apps]
        if self._idle_apps and v_times:
            if not (self._idle_skip_ok
                    and self._compositor._absorbs_pending_posts()):
                # Stop both chains strictly before the first tick any
                # app would post at: that tick is a real event.
                first_due = min(_first_due(v_times, 0, app.last_post_time,
                                           threshold)
                                for app, threshold in self._idle_apps)
                if first_due < len(v_times):
                    _cut(v_times, g_times, v_times[first_due])
            else:
                for posts, (app, threshold) in zip(idle_posts,
                                                   self._idle_apps):
                    last = app.last_post_time
                    index = _first_due(v_times, 0, last, threshold)
                    while index < len(v_times):
                        last = v_times[index]
                        posts.append(last)
                        index = _first_due(v_times, index + 1, last,
                                           threshold)
        if budget is not None and len(v_times) + len(g_times) >= budget:
            # Leave the budget's last event to run_until, which then
            # raises (or not) exactly where plain stepping would.
            _cut(v_times, g_times, sorted(v_times + g_times)[budget - 1])
        del g_rates[len(g_times):]
        if v_times:
            for posts in idle_posts:
                del posts[bisect.bisect_right(posts, v_times[-1]):]
        else:
            idle_posts = [[] for _ in self._idle_apps]
        if len(idle_posts) == 1:
            idle_ticks = idle_posts[0]
        else:
            idle_ticks = sorted({tick for posts in idle_posts
                                 for tick in posts})
        count = len(v_times) + len(g_times)
        if count < 2:
            return 0

        # Commit.  Final reschedules are allocated in chronological
        # order of each chain's last skipped tick - the order stepping
        # would have allocated them in - preserving the heap's
        # insertion-sequence tie-breaks for any later collision.
        chains: List[Tuple[float, str]] = []
        if v_times:
            chains.append((v_times[-1], "v"))
        if g_times:
            chains.append((g_times[-1], "g"))
        chains.sort()
        for last, kind in chains:
            if kind == "v":
                panel.fast_forward_vsyncs(len(v_times), last)
                if idle_ticks:
                    self._replay_idle_posts(idle_ticks, idle_posts)
            else:
                task.fast_forward(len(g_times), last)
                self._driver.record_skipped_decisions(g_times, g_rates)
        sim.advance_clock(chains[-1][0])
        sim.credit_skipped(count)
        self.skipped_ticks += count
        self.skip_regions += 1
        return count

    def _replay_idle_posts(self, tick_times: List[float],
                           posts_per_app: List[List[float]]) -> None:
        """Land the effect chain of skipped idle-submit ticks in bulk.

        Each tick in ``tick_times`` stands for one V-Sync at which one
        or more apps re-posted an unchanged frame and the compositor's
        coherence check absorbed it.  Stepping would, per tick: append
        to the posting app's render and submission logs and advance its
        last-post time; acknowledge the post (a no-op: no surface is
        damaged in a region), clear pending and call
        ``framebuffer.write_unchanged`` (generation bump, recorded as
        the compositor's own write; timestamp; the meter's known-equal
        branch: frame-log append, equal comparison, redundant capture);
        bump both composition counters and log a redundant composition.
        All of it is appends of known times and counter arithmetic.
        """
        n = len(tick_times)
        for (app, _), times in zip(self._idle_apps, posts_per_app):
            if not times:
                continue
            app.renders.extend(times)
            app.submissions.extend(times)
            app._last_post_time = times[-1]
        comp = self._compositor
        comp._compositions += n
        comp._redundant_compositions += n
        self._compositions_log.extend(tick_times)
        framebuffer = self._framebuffer
        framebuffer._generation += n
        comp._written_generation = framebuffer._generation
        framebuffer._last_update_time = tick_times[-1]
        framebuffer._last_write_unchanged = True
        self._meter.note_unchanged_updates(tick_times)
