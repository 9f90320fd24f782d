"""The application behaviour engine.

:class:`Application` turns an :class:`~repro.apps.profile.AppProfile`
into activity on the simulation clock:

* a **content process** fires genuine content-change instants —
  exponential gaps (Poisson) or exact periods, at the idle rate or the
  active rate during/after interaction.  Content instants are scheduled
  on the simulator timeline *independently of the refresh rate*, so the
  same seed produces the same ground-truth content stream under every
  governor (the controlled-comparison property of the paper's method);
* a **render loop** runs off V-Sync (Android Choreographer style): at
  each V-Sync the app renders-and-posts if content changed, or posts a
  redundant frame if its idle submission loop is due.  Content changes
  that pile up between V-Syncs coalesce into one displayed frame — the
  frame drop the paper's quality analysis counts.
"""

from __future__ import annotations

import math

from typing import Optional

import numpy as np

from ..errors import WorkloadError
from ..graphics.compositor import SurfaceManager
from ..graphics.surface import Surface
from ..inputs.touch import TouchEvent, TouchKind
from ..sim.engine import EventHandle, Simulator
from ..sim.tracing import EventLog
from .profile import AppProfile, ContentProcess


class Application:
    """One running application bound to a surface and the clock.

    Parameters
    ----------
    profile:
        The behaviour description.
    sim:
        Simulation clock.
    compositor:
        Surface manager to post frames to.
    surface:
        The app's (already registered) drawing surface.
    seed:
        Seed for the content process and renderer randomness.  The same
        seed reproduces the same content stream exactly.
    """

    def __init__(self, profile: AppProfile, sim: Simulator,
                 compositor: SurfaceManager, surface: Surface,
                 seed: int = 0) -> None:
        self.profile = profile
        self._sim = sim
        self._compositor = compositor
        self._surface = surface
        # Two independent streams: content-change timing must be
        # identical across governor configurations (the controlled
        # comparison of the paper's method), while the renderer's
        # randomness is consumed once per *posted* frame — a count that
        # legitimately varies with the refresh rate.  Sharing one
        # stream would let rendering perturb content timing.
        self._content_rng = np.random.default_rng([seed, 0])
        self._render_rng = np.random.default_rng([seed, 1])
        self._renderer = profile.make_renderer()

        self._started = False
        self._pending_changes = 0
        self._active_until = float("-inf")
        self._next_content: Optional[EventHandle] = None
        self._last_post_time = float("-inf")

        #: Ground truth: every genuine content-change instant.
        self.content_changes = EventLog("content_changes")
        #: Every frame the app posted (meaningful or redundant).
        self.submissions = EventLog("submissions")
        #: Every render pass the app executed (for power accounting).
        self.renders = EventLog("renders")
        #: Content changes that coalesced into an already-pending frame.
        self.coalesced_changes = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the content process; call before the panel starts."""
        if self._started:
            raise WorkloadError(
                f"application {self.profile.name!r} already started")
        self._started = True
        self._schedule_next_content()

    @property
    def started(self) -> bool:
        """True once :meth:`start` has run."""
        return self._started

    # ------------------------------------------------------------------
    # Interaction state
    # ------------------------------------------------------------------
    def interacting(self, now: float) -> bool:
        """True while interaction keeps the content rate elevated."""
        return now < self._active_until

    def current_content_fps(self, now: float) -> float:
        """The content-change rate in force at ``now``."""
        if self.interacting(now):
            return self.profile.active_content_fps
        return self.profile.idle_content_fps

    def on_touch(self, event: TouchEvent) -> None:
        """React to a touch: elevate the content rate for the gesture
        plus the profile's burst duration."""
        hold = self.profile.burst_duration_s
        if event.kind is TouchKind.SCROLL:
            hold += event.duration_s
        new_until = event.time + hold
        was_interacting = self.interacting(event.time)
        self._active_until = max(self._active_until, new_until)
        # Entering the active state invalidates a pending idle-rate gap:
        # reschedule from now at the active rate.
        if self._started and not was_interacting:
            self._schedule_next_content()

    # ------------------------------------------------------------------
    # Content process
    # ------------------------------------------------------------------
    def _schedule_next_content(self) -> None:
        if self._next_content is not None and self._next_content.pending:
            self._sim.cancel(self._next_content)
        now = self._sim.now
        rate = self.current_content_fps(now)
        if rate <= 0:
            self._next_content = None
            return
        if self.profile.content_process is ContentProcess.PERIODIC:
            gap = 1.0 / rate
        elif self.profile.content_process is ContentProcess.ANIMATION:
            # Jittered frame ticks: +-15 % around the nominal period,
            # so ticks never bunch while the rate is below refresh.  The
            # jitter is drawn as numpy's uniform draws it, at a third of
            # the call cost (docs/performance.md).
            gap = (1.0 / rate) * (0.85 + (1.15 - 0.85)
                                  * self._content_rng.random())
        else:
            gap = float(self._content_rng.exponential(1.0 / rate))
        if not math.isfinite(gap):
            # A denormal-tiny rate overflows 1/rate to infinity; such a
            # rate means "effectively never" — same as rate zero.
            self._next_content = None
            return
        self._next_content = self._sim.call_after(
            gap, self._fire_content, name=f"{self.profile.name}-content")

    def _fire_content(self, sim: Simulator) -> None:
        self.content_changes.append(sim.now)
        if self._pending_changes > 0:
            self.coalesced_changes += 1
        self._pending_changes += 1
        self._schedule_next_content()

    # ------------------------------------------------------------------
    # Render loop (V-Sync driven)
    # ------------------------------------------------------------------
    def on_vsync(self, time: float) -> None:
        """Choreographer callback: render/post if there is work.

        Called by the session wiring at every V-Sync, *before* the
        compositor latch for the same V-Sync runs.
        """
        if not self._started:
            return
        if self._pending_changes > 0:
            # All pending changes collapse into one rendered frame.
            self._pending_changes = 0
            self._renderer.render(self._surface, self._render_rng)
            self._post(time, content_changed=True)
            return
        idle_fps = self.profile.idle_submit_fps
        if idle_fps > 0 and \
                time - self._last_post_time >= (1.0 / idle_fps) - 1e-9:
            # Free-running loop: re-render the unchanged scene and post
            # a redundant frame.  The pixels are untouched since the
            # last post, so the post declares content_changed=False —
            # what lets the compositor's coherence fast path skip the
            # provably-identical recomposition.
            self._post(time, content_changed=False)

    def _post(self, time: float, content_changed: bool = True) -> None:
        self.renders.append(time)
        self.submissions.append(time)
        self._compositor.post(self._surface,
                              content_changed=content_changed)
        self._last_post_time = time

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def surface(self) -> Surface:
        """The app's drawing surface."""
        return self._surface

    @property
    def pending_changes(self) -> int:
        """Content changes waiting for the next render."""
        return self._pending_changes

    @property
    def last_post_time(self) -> float:
        """Time of the most recent post (``-inf`` before the first).

        The fast-forward replays the idle-submission predicate
        against this value when deciding whether a V-Sync tick can be
        skipped.
        """
        return self._last_post_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Application {self.profile.name!r}>"
