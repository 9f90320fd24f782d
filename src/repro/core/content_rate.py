"""The content-rate meter (Section 3.1 of the paper).

The **content rate** is the number of *meaningful* frames per second:
frame updates whose pixels actually differ from the previous frame.  It
equals the frame rate minus the redundant frame rate.

The meter hooks framebuffer updates.  On each update it compares the new
frame against the stored previous frame at the grid sample points; a
mismatch means the frame carried new content.  Timestamps of meaningful
frames feed a sliding-window rate estimate that the refresh-rate
governor consumes.

The meter keeps no frame of its own.  While an update's listeners run,
the framebuffer still holds the frame that update replaced
(:attr:`~repro.graphics.framebuffer.Framebuffer.previous_pixels`, the
device's double buffer), so each update is compared with it directly,
coarse to fine, stopping at the first differing sample.  The paper's
previous-frame store (:mod:`~repro.core.double_buffer`) is *charged*,
not performed: every frame update counts one capture, and
:attr:`ContentRateMeter.bytes_copied` prices each at the configured
scheme's slot size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, MeteringError
from ..faults.injector import FaultInjector
from ..faults.plan import SITE_METER_FAIL
from ..graphics.framebuffer import Framebuffer
from ..sim.tracing import EventLog
from ..telemetry.hub import TelemetryHub
from ..telemetry.profiling import timed
from ..units import ensure_positive
from .grid import GridComparator, GridSpec

#: Span names of the metering hot path (Figure 6's measured cost).
SPAN_GRID_COMPARE = "meter.grid_compare"
SPAN_BUFFER_COPY = "meter.buffer_copy"
SPAN_CONTENT_READ = "meter.content_rate"


@dataclass(frozen=True)
class MeterConfig:
    """Configuration of the content-rate meter.

    Parameters
    ----------
    sample_count:
        Pixel budget for the comparison grid.  The paper recommends the
        9K operating point (72x128 grid on a 720x1280 panel): the
        smallest budget whose accuracy was 100 % on the worst-case
        wallpaper (Figure 6).
    window_s:
        Length of the sliding window over which the rate is computed.
    store_full_frames:
        The previous-frame scheme :attr:`ContentRateMeter.bytes_copied`
        charges for: True (paper's design) prices every capture as a
        full-frame double-buffer copy; False as a copy of the grid
        samples only (the bandwidth ablation).  Judgements are the same
        either way, because the comparison reads only grid samples.
    min_changed_cells:
        Significance filter (extension): a frame counts as meaningful
        only if at least this many grid cells changed.  1 reproduces
        the paper exactly (any detected change is meaningful); higher
        values ignore cosmetically tiny updates (a blinking cursor, a
        clock colon) that would otherwise hold the refresh rate up.
        Caveat: comparison is still against the immediately previous
        frame, so a change that creeps below the threshold every frame
        is never counted — keep thresholds small.
    """

    sample_count: int = 9216
    window_s: float = 1.0
    store_full_frames: bool = True
    min_changed_cells: int = 1

    def __post_init__(self) -> None:
        if self.sample_count <= 0:
            raise ConfigurationError(
                f"sample_count must be > 0, got {self.sample_count}")
        ensure_positive(self.window_s, "window_s")
        if self.min_changed_cells < 1:
            raise ConfigurationError(
                f"min_changed_cells must be >= 1, got "
                f"{self.min_changed_cells}")


class ContentRateMeter:
    """Measures the content rate of a framebuffer at runtime.

    Parameters
    ----------
    framebuffer:
        The framebuffer to monitor.  The meter registers itself as an
        update listener; every frame update triggers one grid
        comparison.
    config:
        Meter configuration; defaults to the paper's recommended
        operating point.
    injector:
        Optional fault injector.  When present, content-rate reads can
        fail (``meter_fail`` site): the snapshot/compare machinery is
        treated as having lost its previous-frame copy mid-read and
        :meth:`content_rate` raises :class:`~repro.errors.MeteringError`
        with structured context.  None leaves the meter exactly as
        before.
    telemetry:
        Optional telemetry hub.  When present the metering hot path is
        profiled (``meter.grid_compare``, ``meter.buffer_copy`` spans
        per frame, ``meter.content_rate`` per read) and per-frame
        totals are counted under ``meter.*``.  None — the default —
        runs the original code path with no timing calls.
    """

    def __init__(self, framebuffer: Framebuffer,
                 config: Optional[MeterConfig] = None,
                 injector: Optional[FaultInjector] = None,
                 telemetry: Optional[TelemetryHub] = None) -> None:
        self.config = config or MeterConfig()
        self._framebuffer = framebuffer
        self._injector = injector
        self._telemetry = telemetry
        self._read_failures = 0
        shape = (framebuffer.height, framebuffer.width)
        self.grid = GridSpec.from_sample_count(shape,
                                               self.config.sample_count)
        self.comparator = GridComparator(self.grid)
        # Bytes one previous-frame capture moves under the configured
        # scheme: a full frame, or the grid samples only.
        if self.config.store_full_frames:
            self._slot_bytes = framebuffer.pixels.nbytes
        else:
            self._slot_bytes = (self.grid.sample_count
                                * framebuffer.pixels.shape[-1]
                                * framebuffer.pixels.itemsize)
        self._frames = EventLog("frame_updates")
        self._meaningful = EventLog("meaningful_frames")
        # The first observed update is compared against what the screen
        # already shows, exactly like the compositor's own redundancy
        # ground truth; on the device the extra buffer would be primed
        # from the live framebuffer when metering starts, and that
        # capture is charged here.
        self._captures = 1
        # The framebuffer generation judged last: the frame on screen
        # now counts as judged.
        self._judged_generation = framebuffer.generation
        framebuffer.add_update_listener(self._on_frame_update)

    # ------------------------------------------------------------------
    # Frame-update hook
    # ------------------------------------------------------------------
    def _on_frame_update(self, time: float, framebuffer: Framebuffer) -> None:
        self._frames.append(time)
        telemetry = self._telemetry
        if telemetry is None:
            # The uninstrumented fast path: no clock reads, no
            # allocations beyond the comparison itself.
            if self._frame_meaningful(framebuffer):
                self._meaningful.append(time)
            self._captures += 1
            return
        with telemetry.span(SPAN_GRID_COMPARE, time):
            meaningful = self._frame_meaningful(framebuffer)
        if meaningful:
            self._meaningful.append(time)
            telemetry.metrics.counter("meter.meaningful_frames").inc()
        telemetry.metrics.counter("meter.frames").inc()
        with telemetry.span(SPAN_BUFFER_COPY, time):
            self._captures += 1

    def _frame_meaningful(self, framebuffer: Framebuffer) -> bool:
        """The frame-diff judgement (the grid-comparison hot path).

        The update's pixels are compared at the grid points with the
        frame the update replaced (``previous_pixels``), which the
        framebuffer still holds while its listeners run; under the
        paper's any-change threshold the comparison stops at the first
        differing sample.

        When the compositor proved the update's pixels identical to
        the previous frame (``last_write_unchanged``), the outcome is
        known — not meaningful — and nothing is read.  A listener that
        writes the framebuffer from its own callback nests an update
        inside another, and the meter may then be called again for a
        generation it has judged already, after the nested write; that
        call is likewise an equal comparison.  Either way the
        accounting is left exactly as a comparison of the frame with
        itself would leave it: ``frames_differ`` bumps the comparison
        counter, ``count_changed`` does not.  One difference from a
        meter that keeps its last judged frame remains: a nested frame
        is compared with the frame it replaced, which the meter never
        judged when it is registered after the writing listener, not
        with the last frame the meter judged.
        """
        comparator = self.comparator
        threshold = self.config.min_changed_cells
        generation = framebuffer.generation
        if (framebuffer.last_write_unchanged
                or generation == self._judged_generation):
            if threshold == 1:
                comparator.note_equal()
            return False
        self._judged_generation = generation
        if threshold == 1:
            return comparator.frames_differ(framebuffer.pixels,
                                            framebuffer.previous_pixels)
        return comparator.count_changed(
            framebuffer.pixels, framebuffer.previous_pixels) >= threshold

    def note_unchanged_updates(self, times: Sequence[float]) -> None:
        """Account a run of proven-unchanged frame updates in bulk.

        Exactly what :meth:`_on_frame_update` does, without telemetry,
        for one ``last_write_unchanged`` update at each of ``times``:
        the frame is logged, judged not meaningful (an equal comparison
        when the paper's any-change threshold is in force) and its
        capture is charged.  The fast-forward lands a skipped run of
        idle V-Syncs through this.
        """
        count = len(times)
        self._frames.extend(times)
        if self.config.min_changed_cells == 1:
            self.comparator.note_equal(count)
        self._captures += count

    # ------------------------------------------------------------------
    # Rates
    # ------------------------------------------------------------------
    @timed(SPAN_CONTENT_READ, time_arg=0)
    def content_rate(self, now: float,
                     window_s: Optional[float] = None) -> float:
        """Meaningful frames per second over the trailing window.

        Raises
        ------
        MeteringError
            When an injected ``meter_fail`` fault fires for this read
            (never without an injector): the snapshot/compare pipeline
            failed, so no rate estimate is available this decision.
        """
        if self._injector is not None and self._injector.fires(
                SITE_METER_FAIL, now, detail="content_rate read"):
            self._read_failures += 1
            raise MeteringError(
                f"content-rate read failed at t={now:.3f}s: injected "
                f"framebuffer snapshot/compare fault",
                context={"subsystem": "meter", "sim_time_s": now,
                         "component": "content_rate"})
        return self._windowed_rate(self._meaningful, now, window_s)

    def frame_rate(self, now: float,
                   window_s: Optional[float] = None) -> float:
        """All frame updates per second over the trailing window."""
        return self._windowed_rate(self._frames, now, window_s)

    def redundant_rate(self, now: float,
                       window_s: Optional[float] = None) -> float:
        """Redundant frames per second: frame rate minus content rate."""
        return (self.frame_rate(now, window_s) -
                self.content_rate(now, window_s))

    def content_rates_batch(self, times: "np.ndarray",
                            window_s: Optional[float] = None
                            ) -> "np.ndarray":
        """Content rate at many query times in one vectorised pass.

        Element ``i`` equals ``content_rate(times[i], window_s)``
        exactly: the window arithmetic is the same float64 operations
        elementwise, and the windowed count uses
        :meth:`~repro.sim.tracing.EventLog.count_in_batch` (searchsorted
        == bisect).  The fast-forward uses this to price a whole run
        of governor decisions against a static meaningful-frame log.

        Only valid without a fault injector: injected read failures
        are per-read control flow a batch cannot replicate.
        """
        if self._injector is not None:
            raise MeteringError(
                "content_rates_batch cannot replicate injected "
                "meter faults; use per-read content_rate")
        window = self.config.window_s if window_s is None else \
            ensure_positive(window_s, "window_s")
        now = np.asarray(times, dtype=np.float64)
        start = np.maximum(0.0, now - window)
        span = now - start
        counts = self._meaningful.count_in_batch(start, now)
        rates = np.zeros_like(now)
        positive = span > 0
        np.divide(counts, span, out=rates, where=positive)
        return rates

    def _windowed_rate(self, log: EventLog, now: float,
                       window_s: Optional[float]) -> float:
        window = self.config.window_s if window_s is None else \
            ensure_positive(window_s, "window_s")
        start = max(0.0, now - window)
        span = now - start
        if span <= 0:
            return 0.0
        return log.count_in(start, now) / span

    # ------------------------------------------------------------------
    # Session totals
    # ------------------------------------------------------------------
    @property
    def frame_updates(self) -> EventLog:
        """Timestamps of every observed frame update."""
        return self._frames

    @property
    def meaningful_frames(self) -> EventLog:
        """Timestamps of frames the meter judged meaningful."""
        return self._meaningful

    @property
    def total_frames(self) -> int:
        """Total frame updates observed."""
        return len(self._frames)

    @property
    def total_meaningful(self) -> int:
        """Total frames judged meaningful."""
        return len(self._meaningful)

    @property
    def total_redundant(self) -> int:
        """Total frames judged redundant."""
        return self.total_frames - self.total_meaningful

    @property
    def captures(self) -> int:
        """Previous-frame captures charged: one for priming plus one per
        observed frame update."""
        return self._captures

    @property
    def bytes_copied(self) -> int:
        """Previous-frame storage traffic the configured scheme would
        move (see :attr:`MeterConfig.store_full_frames`)."""
        return self._captures * self._slot_bytes

    @property
    def read_failures(self) -> int:
        """Content-rate reads that failed under fault injection."""
        return self._read_failures

    def detach(self) -> None:
        """Stop observing the framebuffer."""
        self._framebuffer.remove_update_listener(self._on_frame_update)


def measure_accuracy(meter_meaningful: int, truth_meaningful: int) -> float:
    """Metering error rate against ground truth, as a fraction.

    Figure 6 reports ``error rate (%)``; this returns the fraction
    ``|measured - actual| / actual`` (0.0 when both are zero).
    """
    if truth_meaningful == 0:
        return 0.0 if meter_meaningful == 0 else float("inf")
    return abs(meter_meaningful - truth_meaningful) / truth_meaningful
