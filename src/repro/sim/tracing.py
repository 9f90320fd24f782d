"""Trace containers for simulation output.

Three shapes of data come out of a session, matching the three kinds of
plot in the paper:

* :class:`EventLog` — bare timestamps (frame submissions, content
  changes, touches).  Figure 2/3-style *rates* are windowed counts over
  an event log.
* :class:`StepSeries` — piecewise-constant signals (the panel refresh
  rate, instantaneous power draw).  Figure 7's refresh-rate trace and
  the energy integral both come from here.
* :class:`TimeSeries` — irregularly sampled values (the meter's
  content-rate estimates).

All three convert to numpy arrays for analysis, and all enforce
monotonically non-decreasing timestamps, which the simulator guarantees
by construction.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..units import ensure_non_negative, ensure_positive


class EventLog:
    """An append-only log of event timestamps (seconds)."""

    def __init__(self, name: str = "events") -> None:
        self.name = name
        self._times: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time: float) -> None:
        """Record one event at ``time``; times must not decrease."""
        if self._times and time < self._times[-1]:
            raise SimulationError(
                f"event log {self.name!r}: time went backwards "
                f"({time:.6f} < {self._times[-1]:.6f})")
        self._times.append(time)

    def extend(self, times: Sequence[float]) -> None:
        """Record a non-decreasing run of events in one call.

        Equivalent to appending each element in order — the
        fast-forward's bulk idle-submit skip lands a whole region's worth of
        timestamps per log this way instead of one ``append`` per
        skipped tick.  The monotonicity invariant is enforced over the
        run and against the existing tail before anything lands.
        """
        if not times:
            return
        prev = self._times[-1] if self._times else float("-inf")
        for time in times:
            if time < prev:
                raise SimulationError(
                    f"event log {self.name!r}: time went backwards "
                    f"({time:.6f} < {prev:.6f})")
            prev = time
        self._times.extend(times)

    @property
    def times(self) -> np.ndarray:
        """All event timestamps as a float array."""
        return np.asarray(self._times, dtype=float)

    def count_in(self, start: float, end: float) -> int:
        """Number of events with ``start < t <= end``.

        The half-open convention means adjacent windows partition the
        events exactly — summing windowed counts equals the total.
        """
        if end < start:
            raise SimulationError(
                f"event log {self.name!r}: count_in window end "
                f"({end:.6f}) precedes start ({start:.6f})",
                context={"log": self.name, "operation": "count_in",
                         "start": start, "end": end})
        lo = bisect.bisect_right(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        return hi - lo

    def count_in_batch(self, starts: Sequence[float],
                       ends: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`count_in` over many windows at once.

        Same half-open ``(start, end]`` convention; element ``i``
        equals ``count_in(starts[i], ends[i])`` exactly —
        ``np.searchsorted(side="right")`` over the same float64 values
        is ``bisect.bisect_right`` (both are pure comparisons, no
        arithmetic).  This is the batched meter-window kernel the
        fast-forward uses to price a whole run of governor decisions
        in one pass.
        """
        start_arr = np.asarray(starts, dtype=np.float64)
        end_arr = np.asarray(ends, dtype=np.float64)
        if np.any(end_arr < start_arr):
            raise SimulationError(
                f"event log {self.name!r}: count_in_batch window end "
                f"precedes start",
                context={"log": self.name,
                         "operation": "count_in_batch"})
        times = np.asarray(self._times, dtype=np.float64)
        lo = np.searchsorted(times, start_arr, side="right")
        hi = np.searchsorted(times, end_arr, side="right")
        return (hi - lo).astype(np.int64)

    def rate_in(self, start: float, end: float) -> float:
        """Mean event rate (events/second) over ``(start, end]``."""
        span = end - start
        if span <= 0:
            raise SimulationError(
                f"event log {self.name!r}: rate_in window "
                f"({start:.6f}, {end:.6f}] has non-positive span",
                context={"log": self.name, "operation": "rate_in",
                         "start": start, "end": end})
        return self.count_in(start, end) / span

    def binned_rate(self, start: float, end: float,
                    bin_width: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        """Event rate per fixed-width bin — the frame-rate traces of
        Figure 2 use 1-second bins.

        Returns ``(bin_centers, rates)``.  A trailing partial bin is
        normalised by its actual width.
        """
        ensure_positive(bin_width, "bin_width")
        if end <= start:
            raise SimulationError(
                f"event log {self.name!r}: binned_rate window end "
                f"({end:.6f}) must be after start ({start:.6f})",
                context={"log": self.name, "operation": "binned_rate",
                         "start": start, "end": end,
                         "bin_width": bin_width})
        edges = np.arange(start, end + bin_width * 1e-9, bin_width)
        if edges[-1] < end:
            edges = np.append(edges, end)
        centers = (edges[:-1] + edges[1:]) / 2.0
        widths = np.diff(edges)
        counts = np.array([
            self.count_in(edges[i], edges[i + 1])
            for i in range(len(edges) - 1)
        ], dtype=float)
        return centers, counts / widths


class StepSeries:
    """A piecewise-constant signal defined by ``set`` transitions.

    The value holds from its set-time until the next transition.  Used
    for the refresh rate and for instantaneous power, so it supports
    exact integration (energy = integral of power).
    """

    def __init__(self, name: str = "step", initial: float = 0.0,
                 start_time: float = 0.0) -> None:
        self.name = name
        self._times: List[float] = [ensure_non_negative(start_time,
                                                        "start_time")]
        self._values: List[float] = [float(initial)]

    def __len__(self) -> int:
        return len(self._times)

    def set(self, time: float, value: float) -> None:
        """Record a transition to ``value`` at ``time``.

        Setting at an existing timestamp overwrites that transition
        (last write wins), which is what happens when a governor makes
        two decisions in the same instant.
        """
        last = self._times[-1]
        if time < last:
            raise SimulationError(
                f"step series {self.name!r}: time went backwards "
                f"({time:.6f} < {last:.6f})")
        if time == last:
            self._values[-1] = float(value)
        else:
            self._times.append(time)
            self._values.append(float(value))

    def value_at(self, time: float) -> float:
        """Value of the signal at ``time`` (>= the series start)."""
        if time < self._times[0]:
            raise SimulationError(
                f"step series {self.name!r}: query at {time:.6f} precedes "
                f"series start {self._times[0]:.6f}")
        idx = bisect.bisect_right(self._times, time) - 1
        return self._values[idx]

    @property
    def current(self) -> float:
        """Most recently set value."""
        return self._values[-1]

    @property
    def transitions(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` arrays of every transition."""
        return (np.asarray(self._times, dtype=float),
                np.asarray(self._values, dtype=float))

    def integrate(self, start: float, end: float) -> float:
        """Exact integral of the signal over ``[start, end]``.

        For a power series in mW this yields energy in mJ.
        """
        if end < start:
            raise SimulationError("integrate: end before start")
        if start < self._times[0]:
            raise SimulationError(
                f"integrate: start {start:.6f} precedes series start")
        # Lazy import: power.meter owns the integration kernel (it is
        # the power path's hot loop) and must not import tracing back.
        from ..power.meter import integrate_segments

        # Walk transitions that fall inside the window, collecting the
        # (value, duration) of each constant segment; the kernel owns
        # the arithmetic so every caller shares one implementation of
        # the math.
        values: List[float] = []
        durations: List[float] = []
        idx = bisect.bisect_right(self._times, start) - 1
        t = start
        while t < end:
            seg_value = self._values[idx]
            next_t = (self._times[idx + 1]
                      if idx + 1 < len(self._times) else end)
            seg_end = min(next_t, end)
            values.append(seg_value)
            durations.append(seg_end - t)
            t = seg_end
            idx += 1
        return integrate_segments(values, durations)

    def mean(self, start: float, end: float) -> float:
        """Time-weighted mean of the signal over ``[start, end]``."""
        span = end - start
        if span <= 0:
            raise SimulationError("mean: window must have positive span")
        return self.integrate(start, end) / span

    def sample(self, times: Sequence[float]) -> np.ndarray:
        """Signal value at each query time (for plotting on a grid)."""
        return np.array([self.value_at(t) for t in times], dtype=float)


class TimeSeries:
    """Irregularly sampled ``(time, value)`` pairs."""

    def __init__(self, name: str = "series") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time: float, value: float) -> None:
        """Record one sample; times must not decrease."""
        if self._times and time < self._times[-1]:
            raise SimulationError(
                f"time series {self.name!r}: time went backwards "
                f"({time:.6f} < {self._times[-1]:.6f})")
        self._times.append(time)
        self._values.append(float(value))

    def extend(self, times: Sequence[float],
               values: Sequence[float]) -> None:
        """Record a non-decreasing run of samples in one call.

        Equivalent to appending each pair in order — the
        fast-forward commits a whole region of analytically
        resolved governor decisions this way.  Monotonicity is checked
        over the run and against the existing tail before anything
        lands.
        """
        if len(times) != len(values):
            raise SimulationError(
                f"time series {self.name!r}: extend got {len(times)} "
                f"times but {len(values)} values")
        if not times:
            return
        prev = self._times[-1] if self._times else float("-inf")
        for time in times:
            if time < prev:
                raise SimulationError(
                    f"time series {self.name!r}: time went backwards "
                    f"({time:.6f} < {prev:.6f})")
            prev = time
        self._times.extend(times)
        self._values.extend(float(value) for value in values)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def mean(self) -> float:
        """Plain (unweighted) mean of the samples."""
        if not self._values:
            raise SimulationError(
                f"time series {self.name!r} is empty; no mean")
        return float(np.mean(self._values))

    def binned_mean(self, start: float, end: float,
                    bin_width: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        """Mean sample value per fixed-width bin; empty bins yield NaN."""
        ensure_positive(bin_width, "bin_width")
        if end <= start:
            raise SimulationError("binned_mean: end must be after start")
        edges = np.arange(start, end + bin_width * 1e-9, bin_width)
        if edges[-1] < end:
            edges = np.append(edges, end)
        centers = (edges[:-1] + edges[1:]) / 2.0
        times = self.times
        values = self.values
        means = np.full(len(centers), np.nan)
        for i in range(len(centers)):
            mask = (times > edges[i]) & (times <= edges[i + 1])
            if mask.any():
                means[i] = float(values[mask].mean())
        return centers, means

