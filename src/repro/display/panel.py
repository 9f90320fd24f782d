"""The display panel: V-Sync generation and refresh-rate switching.

The panel owns the V-Sync clock.  Everything downstream — the
compositor's latch, the application render loops, the V-Sync throttle
that caps the measurable content rate — hangs off the callbacks this
class fires.

Rate switches take effect at the *next frame boundary* (the next
V-Sync), which is how real panel mode switches behave and avoids the
drift that immediate rescheduling would introduce under rapid governor
decisions.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import DisplayError
from ..faults.injector import FaultInjector
from ..faults.plan import SITE_PANEL_LATENCY, SITE_PANEL_REFUSE
from ..sim.engine import EventHandle, Simulator
from ..sim.tracing import StepSeries
from ..telemetry.events import EVENT_RATE_SWITCH, EVENT_VSYNC_CLIP
from ..telemetry.hub import TelemetryHub
from .spec import PanelSpec

#: Callback fired at each V-Sync: ``(time)``.
VsyncListener = Callable[[float], None]

#: Callback fired when a rate switch takes effect: ``(time, new_rate_hz)``.
RateChangeListener = Callable[[float, float], None]


class DisplayPanel:
    """A panel scanning out at one of a discrete set of refresh rates.

    Parameters
    ----------
    sim:
        Simulator to schedule V-Syncs on.
    spec:
        The panel description (resolution + supported rates).
    initial_rate_hz:
        Refresh rate at session start; defaults to the maximum level
        (Android's fixed 60 Hz on the paper's device).
    injector:
        Optional fault injector.  When present, rate-switch requests
        may be refused (``panel_refuse`` site — the request is dropped,
        like a busy mode-switch ioctl) and accepted switches may land
        late (``panel_latency`` site — extra delay beyond the frame
        boundary).  None leaves the panel exactly as before.
    telemetry:
        Optional telemetry hub.  When present the panel emits
        ``rate_switch`` events for every effective rate change,
        ``vsync_clip`` events when a request waited for the frame
        boundary, and maintains ``panel.*`` counters.  None (the
        default) adds no instrumentation at all.
    """

    def __init__(self, sim: Simulator, spec: PanelSpec,
                 initial_rate_hz: Optional[float] = None,
                 injector: Optional[FaultInjector] = None,
                 telemetry: Optional[TelemetryHub] = None) -> None:
        self._sim = sim
        self.spec = spec
        self._injector = injector
        self._telemetry = telemetry
        self._refused_switches = 0
        self._delayed_switches = 0
        rate = (spec.max_refresh_hz if initial_rate_hz is None
                else spec.validate_rate(initial_rate_hz))
        self._rate = rate
        self._pending_rate: Optional[float] = None
        self._pending_since = 0.0
        self._vsync_listeners: List[VsyncListener] = []
        self._rate_listeners: List[RateChangeListener] = []
        self._vsync_count = 0
        self._rate_switches = 0
        self._running = False
        self._next_vsync: Optional[EventHandle] = None
        self._rate_history = StepSeries("refresh_rate_hz", rate, sim.now)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin generating V-Syncs (first one is a full period away)."""
        if self._running:
            raise DisplayError("panel already started")
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop generating V-Syncs."""
        if not self._running:
            return
        self._running = False
        if self._next_vsync is not None:
            self._sim.cancel(self._next_vsync)
            self._next_vsync = None

    @property
    def running(self) -> bool:
        """True while the panel is scanning."""
        return self._running

    # ------------------------------------------------------------------
    # Refresh rate
    # ------------------------------------------------------------------
    @property
    def refresh_rate_hz(self) -> float:
        """The rate currently in effect."""
        return self._rate

    @property
    def target_rate_hz(self) -> float:
        """The rate that will be in effect after any pending switch."""
        return self._pending_rate if self._pending_rate is not None \
            else self._rate

    @property
    def pending_rate_hz(self) -> Optional[float]:
        """The rate waiting for the next frame boundary, or ``None``.

        Distinct from :attr:`target_rate_hz`: a pending switch may
        target the *current* rate (request X then request back to the
        current rate before the boundary), and the fast-forward
        must treat any pending switch as a blocker, so it needs the
        raw latch state, not the inferred target.
        """
        return self._pending_rate

    @property
    def next_vsync_handle(self) -> Optional[EventHandle]:
        """The scheduled next-V-Sync event (``None`` while stopped)."""
        return self._next_vsync

    @property
    def rate_history(self) -> StepSeries:
        """Piecewise-constant trace of the effective refresh rate."""
        return self._rate_history

    @property
    def vsync_count(self) -> int:
        """V-Syncs generated so far."""
        return self._vsync_count

    @property
    def rate_switches(self) -> int:
        """Number of effective rate changes (requests to the current
        rate do not count)."""
        return self._rate_switches

    @property
    def refused_switches(self) -> int:
        """Switch requests dropped by an injected ``panel_refuse``."""
        return self._refused_switches

    @property
    def delayed_switches(self) -> int:
        """Accepted switches that landed late (``panel_latency``)."""
        return self._delayed_switches

    def set_refresh_rate(self, rate_hz: float) -> None:
        """Request a switch to ``rate_hz`` at the next frame boundary.

        ``rate_hz`` must be one of the panel's discrete levels — this is
        the kernel interface the paper's patch adds, and real hardware
        rejects arbitrary rates.  Under fault injection the request may
        be silently refused (the panel keeps its current target), as a
        loaded mode-switch path does on the device.
        """
        rate = self.spec.validate_rate(rate_hz)
        if rate == self.target_rate_hz:
            return
        if self._injector is not None and self._injector.fires(
                SITE_PANEL_REFUSE, self._sim.now,
                detail=f"requested {rate:g} Hz"):
            self._refused_switches += 1
            if self._telemetry is not None:
                self._telemetry.metrics.counter(
                    "panel.refused_switches").inc()
            return
        if not self._running:
            # Before scan-out starts the switch is immediate.
            self._apply_rate(rate)
            return
        self._pending_rate = rate
        self._pending_since = self._sim.now

    def fast_forward_vsyncs(self, count: int,
                            last_tick_time: float) -> None:
        """Account for ``count`` V-Syncs resolved analytically.

        The fast-forward proves a run of V-Syncs would each fire
        with no observable effect it does not replicate itself (no
        composition, no pending rate switch); this commits the
        panel-side bookkeeping: the V-Sync counter and a fresh
        next-V-Sync handle at ``last_tick_time + 1/rate`` — the exact
        float the skipped final tick's ``_schedule_next`` would have
        computed.  Refuses to cross a pending rate switch: applying it
        belongs to a real tick.
        """
        if not self._running or self._next_vsync is None:
            raise DisplayError("cannot fast-forward a stopped panel")
        if self._pending_rate is not None:
            raise DisplayError(
                "cannot fast-forward across a pending rate switch")
        if count <= 0:
            raise DisplayError(
                f"fast_forward_vsyncs needs a positive count, "
                f"got {count}")
        self._vsync_count += count
        self._sim.cancel(self._next_vsync)
        period = 1.0 / self._rate
        self._next_vsync = self._sim.call_at(
            last_tick_time + period, self._fire_vsync, name="vsync")

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def add_vsync_listener(self, listener: VsyncListener) -> None:
        """Register a V-Sync callback (compositor, app render loops)."""
        self._vsync_listeners.append(listener)

    def add_rate_change_listener(self, listener: RateChangeListener) -> None:
        """Register a callback fired when a switch takes effect."""
        self._rate_listeners.append(listener)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply_rate(self, rate: float) -> None:
        if rate == self._rate:
            return
        previous = self._rate
        self._rate = rate
        self._rate_switches += 1
        self._rate_history.set(self._sim.now, rate)
        if self._telemetry is not None:
            self._telemetry.metrics.counter("panel.rate_switches").inc()
            self._telemetry.emit(EVENT_RATE_SWITCH, self._sim.now,
                                 from_hz=previous, to_hz=rate)
        for listener in self._rate_listeners:
            listener(self._sim.now, rate)

    def _schedule_next(self) -> None:
        period = 1.0 / self._rate
        self._next_vsync = self._sim.call_after(
            period, self._fire_vsync, name="vsync")

    def _fire_vsync(self, sim: Simulator) -> None:
        if not self._running:
            return
        self._vsync_count += 1
        if self._telemetry is not None:
            self._telemetry.metrics.counter("panel.vsyncs").inc()
        for listener in self._vsync_listeners:
            listener(sim.now)
        # A pending switch takes effect at this frame boundary: the
        # *next* V-Sync interval runs at the new rate.
        if self._pending_rate is not None:
            pending = self._pending_rate
            self._pending_rate = None
            if self._telemetry is not None:
                self._telemetry.metrics.counter("panel.vsync_clips").inc()
                self._telemetry.emit(
                    EVENT_VSYNC_CLIP, sim.now, rate_hz=pending,
                    waited_s=sim.now - self._pending_since)
            delay = 0.0
            if self._injector is not None and self._injector.fires(
                    SITE_PANEL_LATENCY, sim.now,
                    detail=f"switch to {pending:g} Hz",
                    magnitude_max_s=self.plan_latency_max_s()):
                delay = self._injector.last_magnitude()
            if delay > 0.0:
                self._delayed_switches += 1
                if self._telemetry is not None:
                    self._telemetry.metrics.counter(
                        "panel.delayed_switches").inc()
                self._sim.call_after(
                    delay, self._make_late_apply(pending),
                    name="rate-switch-late")
            else:
                self._apply_rate(pending)
        self._schedule_next()

    def plan_latency_max_s(self) -> float:
        """Upper bound of injected switch latency (0 when no faults)."""
        if self._injector is None:
            return 0.0
        return self._injector.plan.panel_latency_max_s

    def _make_late_apply(self, rate: float):
        def apply(sim: Simulator) -> None:
            del sim
            # The governor may have retargeted meanwhile; a stale late
            # switch to the current rate is a harmless no-op.
            self._apply_rate(rate)
        return apply
