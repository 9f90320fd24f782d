"""Refresh-rate governors (Section 3.2 of the paper).

A *policy* decides which refresh rate the panel should run at, given the
meter's current content rate; the :class:`GovernorDriver` applies a
policy periodically and forwards touch events for immediate overrides.

Three policies are provided here:

* :class:`SectionBasedGovernor` — the paper's section-table control.
* :class:`TouchBoostGovernor` — wraps another policy and forces the
  maximum rate for a hold period after every touch event, eliminating
  the ramp-up latency that drops frames on sudden interaction.
* :class:`NaiveMatchGovernor` — the paper's *failed first attempt*
  ("adjust the refresh rate to the current content rate"), kept as a
  baseline because its deadlock is an important negative result: once
  the rate drops, V-Sync clips the measurable content rate and the
  governor can never climb back.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..display.panel import DisplayPanel
from ..sim.engine import PeriodicTask, Simulator
from ..sim.tracing import TimeSeries
from ..telemetry.events import (
    EVENT_SECTION_TRANSITION,
    EVENT_TOUCH_BOOST,
)
from ..telemetry.hub import TelemetryHub
from ..units import ensure_positive
from .content_rate import ContentRateMeter
from .section_table import SectionTable


class GovernorPolicy:
    """Interface every refresh-rate policy implements."""

    #: Display name used in traces and reports.
    name = "policy"

    def select_rate(self, now: float) -> float:
        """The refresh rate (Hz) the panel should use right now."""
        raise NotImplementedError

    def on_touch(self, time: float) -> Optional[float]:
        """React to a touch event.

        Returns a rate to apply *immediately* (bypassing the decision
        period), or None when touch does not affect this policy.
        """
        del time
        return None


class SectionBasedGovernor(GovernorPolicy):
    """The paper's section-based control: content rate -> table lookup."""

    name = "section-based"

    def __init__(self, table: SectionTable, meter: ContentRateMeter,
                 window_s: Optional[float] = None) -> None:
        self.table = table
        self.meter = meter
        self.window_s = None if window_s is None else ensure_positive(
            window_s, "window_s")

    def select_rate(self, now: float) -> float:
        content = self.meter.content_rate(now, self.window_s)
        return self.table.lookup(content)


class NaiveMatchGovernor(GovernorPolicy):
    """Match the refresh rate directly to the content rate.

    Chooses the lowest panel level that is >= the measured content rate.
    This is the paper's initial design that "did not work adequately":
    with content at 50 fps and the rate lowered to 20 Hz, the meter can
    never observe more than 20 fps, so the governor latches low.
    """

    name = "naive-match"

    def __init__(self, refresh_rates_hz: Sequence[float],
                 meter: ContentRateMeter,
                 window_s: Optional[float] = None) -> None:
        if not refresh_rates_hz:
            raise ConfigurationError(
                "naive governor needs at least one refresh rate")
        self.rates = tuple(sorted(float(r) for r in refresh_rates_hz))
        self.meter = meter
        self.window_s = None if window_s is None else ensure_positive(
            window_s, "window_s")

    def select_rate(self, now: float) -> float:
        content = self.meter.content_rate(now, self.window_s)
        for rate in self.rates:
            if rate >= content:
                return rate
        return self.rates[-1]


class TouchBoostGovernor(GovernorPolicy):
    """Touch boosting: maximum rate for ``hold_s`` after every touch.

    The section-based controller reacts to a content-rate *measurement*,
    which V-Sync clips at the current refresh rate — so it ramps up one
    table section at a time after a sudden interaction.  Touch boosting
    sidesteps the ramp entirely: any touch forces the maximum rate at
    once, and the section policy takes over again when the boost
    expires.
    """

    name = "touch-boost"

    def __init__(self, inner: GovernorPolicy, boost_rate_hz: float,
                 hold_s: float = 1.0) -> None:
        self.inner = inner
        self.boost_rate_hz = ensure_positive(boost_rate_hz, "boost_rate_hz")
        self.hold_s = ensure_positive(hold_s, "hold_s")
        self._boost_until = float("-inf")
        self._boosts = 0
        self.name = f"{inner.name}+touch-boost"

    @property
    def boosts(self) -> int:
        """Number of touch events that triggered (or extended) a boost."""
        return self._boosts

    @property
    def boost_until(self) -> float:
        """End of the current boost hold (``-inf`` before any touch).

        Exposed so the fast-forward can evaluate the boost
        predicate (``now < boost_until``) for future decision ticks
        with the exact comparison :meth:`boosting` performs.
        """
        return self._boost_until

    def boosting(self, now: float) -> bool:
        """True while a boost hold period is active."""
        return now < self._boost_until

    def select_rate(self, now: float) -> float:
        if self.boosting(now):
            return self.boost_rate_hz
        return self.inner.select_rate(now)

    def on_touch(self, time: float) -> Optional[float]:
        self._boost_until = time + self.hold_s
        self._boosts += 1
        # Chain to the inner policy and honor its immediate rate: a
        # wrapped policy demanding more than the boost rate wins, so
        # composition never *lowers* a touch response.
        inner_rate = self.inner.on_touch(time)
        if inner_rate is not None:
            return max(inner_rate, self.boost_rate_hz)
        return self.boost_rate_hz


class GovernorDriver:
    """Applies a policy to a panel on a fixed decision period.

    Parameters
    ----------
    sim:
        Simulator for the periodic decision task.
    panel:
        The panel whose rate the policy controls.
    policy:
        The decision policy.
    decision_period_s:
        Seconds between periodic decisions.  200 ms keeps control lag
        well under the content-rate window while making the governor's
        own CPU cost negligible.
    telemetry:
        Optional telemetry hub.  When present the driver emits
        ``section_transition`` events when a periodic decision changes
        the selected rate, ``touch_boost`` events for immediate touch
        overrides, counts decisions and touches under ``governor.*``,
        and feeds the ``governor.selected_rate_hz`` histogram (bucket
        edges: the panel's discrete levels).  None adds nothing.
    """

    def __init__(self, sim: Simulator, panel: DisplayPanel,
                 policy: GovernorPolicy,
                 decision_period_s: float = 0.2,
                 telemetry: Optional[TelemetryHub] = None) -> None:
        self._sim = sim
        self._panel = panel
        self.policy = policy
        self.decision_period_s = ensure_positive(decision_period_s,
                                                 "decision_period_s")
        self._decisions = TimeSeries("governor_decisions_hz")
        self._task: Optional[PeriodicTask] = None
        self._touch_times: List[float] = []
        self._telemetry = telemetry
        self._last_periodic_rate: Optional[float] = None
        if telemetry is not None:
            # Register the rate histogram up front so its (fixed)
            # bucket edges appear even in sessions with no decisions.
            telemetry.metrics.histogram(
                "governor.selected_rate_hz",
                sorted(panel.spec.refresh_rates_hz))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic decisions."""
        if self._task is not None:
            raise ConfigurationError("governor driver already started")
        self._task = PeriodicTask(self._sim, self.decision_period_s,
                                  self._decide, name="governor-decision")

    def stop(self) -> None:
        """Stop periodic decisions."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def notify_touch(self, time: float) -> None:
        """Forward a touch event to the policy.

        If the policy returns an immediate rate (touch boosting does),
        it is applied without waiting for the next decision tick.
        """
        self._touch_times.append(time)
        if self._telemetry is not None:
            self._telemetry.metrics.counter("governor.touches").inc()
        immediate = self.policy.on_touch(time)
        if immediate is not None:
            self._panel.set_refresh_rate(immediate)
            self._decisions.append(time, immediate)
            if self._telemetry is not None:
                self._telemetry.metrics.counter(
                    "governor.touch_boosts").inc()
                self._telemetry.emit(EVENT_TOUCH_BOOST, time,
                                     rate_hz=immediate)

    def _decide(self, sim: Simulator) -> None:
        rate = self.policy.select_rate(sim.now)
        self._panel.set_refresh_rate(rate)
        self._decisions.append(sim.now, rate)
        if self._telemetry is not None:
            self._telemetry.metrics.counter("governor.decisions").inc()
            self._telemetry.metrics.histogram(
                "governor.selected_rate_hz").observe(rate)
            last = self._last_periodic_rate
            if last is not None and rate != last:
                self._telemetry.emit(EVENT_SECTION_TRANSITION, sim.now,
                                     from_hz=last, to_hz=rate)
        self._last_periodic_rate = rate

    def record_skipped_decisions(self, times: Sequence[float],
                                 rates: Sequence[float]) -> None:
        """Commit decision ticks resolved analytically by the fast path.

        Each ``(time, rate)`` pair replicates exactly what
        :meth:`_decide` would have recorded for a tick whose selected
        rate was proven equal to the panel's current target (so
        ``set_refresh_rate`` would have been a no-op): the decision
        trace entry and the last-periodic-rate latch.  Task-side tick
        accounting is committed separately via
        :meth:`~repro.sim.engine.PeriodicTask.fast_forward`.
        """
        if not times:
            return
        self._decisions.extend(times, rates)
        self._last_periodic_rate = float(rates[-1])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def task(self) -> Optional[PeriodicTask]:
        """The periodic decision task (``None`` before start)."""
        return self._task

    @property
    def decisions(self) -> TimeSeries:
        """Every decision made: ``(time, selected rate)``."""
        return self._decisions

    @property
    def touch_times(self) -> Tuple[float, ...]:
        """Touch events forwarded to the policy."""
        return tuple(self._touch_times)
