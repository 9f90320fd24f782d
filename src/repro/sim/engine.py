"""Event-driven simulation engine.

The engine is a classic priority-queue scheduler: callbacks are scheduled
at absolute timestamps and fired in time order.  Ties are broken by
insertion order, which makes runs fully deterministic — an essential
property here, because every experiment in the paper is a comparison
between two runs of *the same* workload script with different display
governors.

Design notes
------------
* Timestamps are ``float`` seconds.  The engine never invents time: it
  jumps from event to event, so a 180-second session with a mostly idle
  app costs almost nothing to simulate.
* Cancellation is lazy (a cancelled handle stays in the heap and is
  skipped when popped).  This is the standard approach and keeps
  :meth:`Simulator.cancel` O(1); the display panel uses it heavily when a
  refresh-rate switch invalidates the next scheduled V-Sync.
* Callbacks receive the simulator so they can read ``sim.now`` and
  schedule follow-up events without closing over the engine.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..units import ensure_non_negative, ensure_positive

#: Signature of every scheduled callback.
Callback = Callable[["Simulator"], None]


class EventHandle:
    """A scheduled event that can be cancelled before it fires.

    Instances are returned by :meth:`Simulator.call_at` /
    :meth:`Simulator.call_after`; they are not constructed directly.
    """

    __slots__ = ("time", "name", "_callback", "_cancelled", "_fired")

    def __init__(self, time: float, callback: Callback, name: str) -> None:
        self.time = time
        self.name = name
        self._callback = callback
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """True once :meth:`Simulator.cancel` has been called on this."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the callback has run."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still waiting in the queue."""
        return not (self._cancelled or self._fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else (
            "fired" if self._fired else "pending")
        return f"<EventHandle {self.name!r} t={self.time:.6f} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.call_after(1.0, lambda s: seen.append(s.now))
    >>> sim.run_until(2.0)
    >>> seen
    [1.0]
    """

    #: Compaction trigger: sweep the heap once at least this many
    #: cancelled entries are queued *and* they outnumber live ones.
    COMPACT_MIN_CANCELLED = 8

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = ensure_non_negative(start_time, "start_time")
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._running = False
        self._processed = 0
        self._cancelled_pending = 0
        self._pause = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks fired so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued.

        Cancelled-but-unpopped entries are excluded: the heap keeps
        them until they surface (lazy cancellation), but they are not
        pending work and monitoring should not count them.
        """
        return len(self._queue) - self._cancelled_pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, callback: Callback,
                name: str = "event") -> EventHandle:
        """Schedule ``callback`` at absolute ``time``.

        Scheduling exactly at ``now`` is allowed (the event fires during
        the current :meth:`run_until` pass, after events already queued
        for the same instant); scheduling in the past is an error.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule {name!r} at t={time:.6f}, "
                f"which is before now={self._now:.6f}")
        handle = EventHandle(time, callback, name)
        heapq.heappush(self._queue, (time, next(self._sequence), handle))
        return handle

    def call_after(self, delay: float, callback: Callback,
                   name: str = "event") -> EventHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        ensure_non_negative(delay, "delay")
        return self.call_at(self._now + delay, callback, name)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event.  Cancelling a fired or already
        cancelled event is a silent no-op.

        Cancellation stays lazy (O(1)), but the engine tracks how many
        cancelled entries are sitting in the heap and sweeps them out
        once they outnumber the live ones — cancel-heavy sessions
        (panel rate switches cancel the next V-Sync on every decision)
        would otherwise grow the heap without bound.
        """
        was_pending = handle.pending
        handle._cancelled = True
        if was_pending:
            self._cancelled_pending += 1
            if (self._cancelled_pending >= self.COMPACT_MIN_CANCELLED
                    and self._cancelled_pending * 2 > len(self._queue)):
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant.

        Rebinding ``self._queue`` is safe mid-run: the run loops re-read
        the attribute on every iteration, and ``(time, seq)`` ordering
        is preserved by :func:`heapq.heapify`.
        """
        self._queue = [entry for entry in self._queue
                       if not entry[2]._cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, end_time: float,
                  max_events: Optional[int] = None) -> int:
        """Fire events in order until the queue is exhausted or the next
        event lies strictly after ``end_time``; then set ``now`` to
        ``end_time``.  Returns the number of events fired.

        The final clock jump means integrators (e.g. the power meter)
        can rely on ``sim.now == end_time`` when the session finishes.

        ``max_events`` bounds one call: when the limit is reached with
        eligible events still queued, the call returns early and ``now``
        stays at the last fired event's time (the clock does **not**
        jump to ``end_time``), so a caller stepping the simulation in
        slices can detect the incomplete slice (``sim.now < end_time``)
        and decide whether that is an event storm.  Calling
        ``run_until`` again with the same ``end_time`` resumes exactly
        where the previous call stopped — event order is owned by the
        heap, not by call boundaries.

        A callback may :meth:`request_pause`: the call then returns
        before the next event, the same way, and :attr:`paused` is true
        until the next call.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time:.6f} is before now {self._now:.6f}")
        if max_events is not None:
            ensure_positive(max_events, "max_events")
        if self._running:
            raise SimulationError("run_until called re-entrantly")
        self._running = True
        self._pause = False
        fired = 0
        try:
            while self._queue and self._queue[0][0] <= end_time:
                if max_events is not None and fired >= max_events:
                    return fired
                if self._pause:
                    return fired
                time, _, handle = heapq.heappop(self._queue)
                if handle._cancelled:
                    self._cancelled_pending -= 1
                    continue
                self._now = time
                handle._fired = True
                self._processed += 1
                handle._callback(self)
                fired += 1
            self._now = end_time
            self._pause = False
        finally:
            self._running = False
        return fired

    def run(self, max_events: int = 10_000_000) -> None:
        """Fire events until the queue empties.

        ``max_events`` bounds runaway self-rescheduling loops (a
        periodic task with no stop condition would otherwise never
        terminate).
        """
        ensure_positive(max_events, "max_events")
        if self._running:
            raise SimulationError("run called re-entrantly")
        self._running = True
        fired = 0
        try:
            while self._queue:
                time, _, handle = heapq.heappop(self._queue)
                if handle._cancelled:
                    self._cancelled_pending -= 1
                    continue
                if fired >= max_events:
                    raise SimulationError(
                        f"run exceeded max_events={max_events}")
                self._now = time
                handle._fired = True
                self._processed += 1
                fired += 1
                handle._callback(self)
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Skipping inert ticks (see repro.sim.fastforward)
    # ------------------------------------------------------------------
    # These primitives let the fast-forward controller hand-off from
    # run_until, observe the next live event and account for ticks it
    # resolved analytically.  Byte-equivalence with plain stepping rests
    # on each one matching run_until's semantics.

    def request_pause(self) -> None:
        """Make the running :meth:`run_until` return before its next
        event (callbacks call this; the current event completes)."""
        self._pause = True

    @property
    def paused(self) -> bool:
        """True when the last :meth:`run_until` returned early because
        a callback requested a pause."""
        return self._pause

    def peek_next_live(self) -> Optional[EventHandle]:
        """The next live event, or ``None`` if the queue is drained.

        Cancelled entries at the top of the heap are popped as a side
        effect (the same lazy sweep ``run_until`` performs).
        """
        while self._queue and self._queue[0][2]._cancelled:
            heapq.heappop(self._queue)
            self._cancelled_pending -= 1
        return self._queue[0][2] if self._queue else None

    def next_live_time_excluding(self, *exclude: EventHandle
                                 ) -> Optional[float]:
        """Earliest live event time ignoring the given handles.

        A linear scan over the heap — O(queue).  The fast-forward
        controller calls it once per skip *attempt* that survives its
        cheaper checks, not per tick, and heap compaction keeps the
        queue small.
        """
        skip = {id(handle) for handle in exclude}
        best: Optional[float] = None
        for time, _, handle in self._queue:
            if handle._cancelled or id(handle) in skip:
                continue
            if best is None or time < best:
                best = time
        return best

    def advance_clock(self, end_time: float) -> None:
        """Jump the clock to ``end_time`` without firing anything.

        This is the final clock jump of :meth:`run_until` split out for
        a caller that resolved ticks itself.  Jumping over a live
        event would silently reorder the timeline, so it is an error.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time:.6f} is before now {self._now:.6f}")
        nxt = self.peek_next_live()
        if nxt is not None and nxt.time <= end_time:
            raise SimulationError(
                f"advance_clock({end_time:.6f}) would jump over live "
                f"event {nxt.name!r} at t={nxt.time:.6f}")
        self._now = end_time

    def credit_skipped(self, count: int) -> None:
        """Account for ``count`` events resolved analytically.

        The fast-forward proves a run of ticks is observationally inert
        and skips firing them; crediting keeps ``events_processed`` —
        part of the checkpoint/digest contract — identical to a run that
        fired every tick.
        """
        if count < 0:
            raise SimulationError(
                f"cannot credit {count} skipped events")
        self._processed += count


class PeriodicTask:
    """A callback fired at a fixed period until stopped.

    The display governor and the power sampler are periodic; this helper
    owns the reschedule-on-fire loop so they do not repeat it.

    Parameters
    ----------
    sim:
        The simulator to schedule on.
    period:
        Seconds between invocations.
    callback:
        Called with the simulator at each tick.
    start_delay:
        Delay before the first invocation; defaults to one full period.
    name:
        Event-name used for the scheduled handles (debugging aid).
    """

    def __init__(self, sim: Simulator, period: float, callback: Callback,
                 start_delay: Optional[float] = None,
                 name: str = "periodic") -> None:
        self._sim = sim
        self._period = ensure_positive(period, "period")
        self._callback = callback
        self._name = name
        self._stopped = False
        self._ticks = 0
        self._last_fire = sim.now
        first = period if start_delay is None else ensure_non_negative(
            start_delay, "start_delay")
        self._handle: Optional[EventHandle] = sim.call_after(
            first, self._fire, name=name)

    @property
    def period(self) -> float:
        """Current period in seconds."""
        return self._period

    @property
    def ticks(self) -> int:
        """Number of times the callback has fired."""
        return self._ticks

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._stopped

    @property
    def last_fire(self) -> float:
        """Simulation time of the most recent tick (start time before
        the first tick)."""
        return self._last_fire

    @property
    def pending_handle(self) -> Optional[EventHandle]:
        """The scheduled next-tick handle, or ``None`` once stopped."""
        return self._handle

    def fast_forward(self, count: int, last_fire_time: float) -> None:
        """Account for ``count`` ticks resolved analytically.

        The fast-forward proves a run of ticks would each fire the
        callback with no observable effect beyond bookkeeping it
        replicates itself; this commits the task-side bookkeeping: tick
        count, last-fire time, and a fresh next-tick handle at
        ``last_fire_time + period`` — the exact float the skipped final
        tick would have computed via ``call_after(period)``.
        """
        if self._stopped or self._handle is None:
            raise SimulationError(
                f"cannot fast-forward stopped task {self._name!r}")
        if count <= 0:
            raise SimulationError(
                f"fast_forward needs a positive count, got {count}")
        self._ticks += count
        self._last_fire = last_fire_time
        self._sim.cancel(self._handle)
        self._handle = self._sim.call_at(
            last_fire_time + self._period, self._fire, name=self._name)

    def set_period(self, period: float, *, retime: bool = False) -> None:
        """Change the period.

        By default the pending tick keeps its scheduled time and the
        new period applies from the *next* reschedule — the semantics
        every existing caller was written against (a rate change
        commits at a tick boundary, exactly like a V-Sync-latched
        display rate switch; see
        :class:`repro.display.panel.DisplayPanel`).

        With ``retime=True`` the pending tick is cancelled and
        re-scheduled at ``last_fire + new_period`` (clamped to *now*),
        so a period change takes effect immediately — shrinking the
        period pulls the next tick earlier, growing it pushes the tick
        later.  Use this for controllers whose reaction latency must
        not exceed the *old* period.
        """
        self._period = ensure_positive(period, "period")
        if not retime or self._stopped or self._handle is None:
            return
        self._sim.cancel(self._handle)
        next_time = max(self._sim.now, self._last_fire + self._period)
        self._handle = self._sim.call_at(next_time, self._fire,
                                         name=self._name)

    def stop(self) -> None:
        """Cancel the pending tick and fire no more."""
        self._stopped = True
        if self._handle is not None:
            self._sim.cancel(self._handle)
            self._handle = None

    def _fire(self, sim: Simulator) -> None:
        if self._stopped:
            return
        self._ticks += 1
        self._last_fire = sim.now
        self._callback(sim)
        if not self._stopped:
            self._handle = sim.call_after(
                self._period, self._fire, name=self._name)
