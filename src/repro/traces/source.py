"""Trace replay as an application: :class:`TraceFrameSource`.

The frame source is a drop-in :class:`~repro.apps.base.Application`
whose "renderer" is the recorded frame stream: at each V-Sync it
applies every recorded framebuffer write that has come due to its
surface and posts once, so the compositor latch writes the exact bytes
the original session wrote at the exact same instants.

Why the summary comes out byte-identical under the same governor: the
recorded frame times *are* the original session's V-Sync instants, and
the simulator's float arithmetic is deterministic — so by induction
each replay V-Sync lands on the same float time, applies the same
delta, produces the same framebuffer bytes, hence the same meter
readings, the same governor decisions, and the same next V-Sync.  The
derived reports match too because the source application's
content-change and render instants travel with the trace as aux
channels and are replayed into the same event logs.

Under a *different* governor the V-Sync grid changes: recorded frames
then latch at the first V-Sync at-or-after their recorded time, and
frames that pile up between V-Syncs coalesce into one post — exactly
the V-Sync throttling a live application experiences.
"""

from __future__ import annotations

from ..apps.base import Application
from ..apps.profile import AppProfile
from ..errors import TraceError
from ..graphics.compositor import SurfaceManager
from ..graphics.surface import Surface
from ..sim.engine import Simulator
from .format import FrameTrace
from .profile import TraceProfile

#: Replay tolerance when matching recorded frame times to V-Syncs.
#: Same-governor replays hit the grid exactly (same float arithmetic);
#: the epsilon only guards against representation noise when a trace
#: is replayed under a foreign V-Sync grid.
_TIME_EPSILON = 1e-9

#: Aux channel names the recorder writes and the source replays.
AUX_CONTENT_CHANGES = "content_changes"
AUX_RENDERS = "renders"


class TraceFrameSource(Application):
    """An application that replays a recorded frame trace.

    Parameters
    ----------
    trace:
        The decoded trace to replay.
    profile:
        The source app profile embedded in the trace (drives power
        parameters, interaction hints, and the oracle governor's
        content-rate reads, exactly as in the recorded session).
    sim, compositor, surface, seed:
        As for :class:`~repro.apps.base.Application`.  The surface must
        match the trace geometry exactly.
    """

    def __init__(self, trace: FrameTrace, profile: AppProfile,
                 sim: Simulator, compositor: SurfaceManager,
                 surface: Surface, seed: int = 0) -> None:
        if (surface.width, surface.height) != (trace.width,
                                               trace.height):
            raise TraceError(
                f"trace geometry {trace.width}x{trace.height} does not "
                f"match the replay surface "
                f"{surface.width}x{surface.height}; run the replay "
                f"with the panel and resolution_divisor the trace was "
                f"recorded at")
        super().__init__(profile, sim, compositor, surface, seed=seed)
        self._trace = trace
        self._cursor = 0
        #: Frame records applied so far.
        self.replayed_frames = 0
        #: Records that shared a post with a later one (foreign V-Sync
        #: grids only; zero under the recording governor).
        self.coalesced_frames = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Arm the replay and pre-fill the source session's event logs.

        The aux channels hold *future* event times; they are written
        into the logs up front (the logs only require non-decreasing
        times) so every derived report — power from renders, quality
        from content changes — sees the recorded session's streams.
        """
        if self._started:
            raise TraceError(
                f"trace source {self.profile.name!r} already started")
        self._started = True
        for time in self._trace.aux.get(AUX_CONTENT_CHANGES, ()):
            self.content_changes.append(float(time))
        for time in self._trace.aux.get(AUX_RENDERS, ()):
            self.renders.append(float(time))

    # -- content process -----------------------------------------------
    def _schedule_next_content(self) -> None:
        """No live content process: the trace is the content.

        Also neutralizes the reschedule a touch triggers on entering
        the active state — interaction still elevates
        :meth:`current_content_fps` (the oracle governor reads it), but
        generates no synthetic content events.
        """

    # -- render loop ---------------------------------------------------
    def on_vsync(self, time: float) -> None:
        """Apply every recorded write due by ``time``; post once."""
        if not self._started:
            return
        records = self._trace.records
        applied = 0
        while (self._cursor < len(records)
               and records[self._cursor].time <= time + _TIME_EPSILON):
            record = records[self._cursor]
            if record.apply(self._surface.pixels):
                self._surface.mark_damaged()
            self._cursor += 1
            applied += 1
        if applied == 0:
            return
        self.replayed_frames += applied
        self.coalesced_frames += applied - 1
        self.submissions.append(time)
        self._compositor.post(self._surface)
        self._last_post_time = time

    @property
    def pending_records(self) -> int:
        """Trace records not yet replayed."""
        return len(self._trace.records) - self._cursor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceFrameSource {self.profile.name!r} "
                f"{self.replayed_frames}/{self._trace.frame_count}>")


def trace_workload(path: str) -> TraceProfile:
    """Registry factory: the :class:`TraceProfile` for ``path``.

    Module-level (and partial-friendly) so registered traces pickle by
    reference and ship to batch pool workers with the registry extras.
    """
    return TraceProfile(str(path))


def register_trace(name: str, path: str,
                   replace: bool = False) -> TraceProfile:
    """Register trace file ``path`` under workload ``name``.

    After this, ``name`` works anywhere an app name does — CLI
    ``--app``, :class:`~repro.sim.session.SessionConfig`, batch specs,
    experiments.  Returns the profile for convenience.
    """
    import functools

    from ..pipeline.apps import APPS

    profile = trace_workload(path)
    APPS.register(name, functools.partial(trace_workload, str(path)),
                  replace=replace)
    return profile
