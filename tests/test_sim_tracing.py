"""Tests for trace containers (event logs, step series, time series)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.tracing import EventLog, StepSeries, TimeSeries


class TestEventLog:
    def test_append_and_len(self):
        log = EventLog()
        for t in (0.1, 0.5, 0.5, 2.0):
            log.append(t)
        assert len(log) == 4

    def test_times_array(self):
        log = EventLog()
        log.append(1.0)
        log.append(2.0)
        assert np.allclose(log.times, [1.0, 2.0])

    def test_backwards_time_rejected(self):
        log = EventLog()
        log.append(1.0)
        with pytest.raises(SimulationError):
            log.append(0.5)

    def test_count_in_half_open_window(self):
        log = EventLog()
        for t in (1.0, 2.0, 3.0):
            log.append(t)
        # (start, end]: excludes start boundary, includes end boundary.
        assert log.count_in(1.0, 3.0) == 2
        assert log.count_in(0.0, 3.0) == 3
        assert log.count_in(0.0, 0.5) == 0

    def test_adjacent_windows_partition_events(self):
        log = EventLog()
        for t in np.linspace(0.05, 9.95, 100):
            log.append(float(t))
        total = sum(log.count_in(i, i + 1.0) for i in range(10))
        assert total == 100

    def test_rate_in(self):
        log = EventLog()
        for t in (0.1, 0.2, 0.3, 0.4):
            log.append(t)
        assert log.rate_in(0.0, 2.0) == pytest.approx(2.0)

    def test_rate_in_empty_window_rejected(self):
        log = EventLog()
        with pytest.raises(SimulationError):
            log.rate_in(1.0, 1.0)

    def test_binned_rate_shape_and_values(self):
        log = EventLog()
        for t in (0.5, 1.5, 1.6):
            log.append(t)
        centers, rates = log.binned_rate(0.0, 2.0, 1.0)
        assert len(centers) == 2
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(2.0)

    def test_binned_rate_partial_trailing_bin(self):
        log = EventLog()
        log.append(2.25)
        centers, rates = log.binned_rate(0.0, 2.5, 1.0)
        assert len(centers) == 3
        # Trailing bin is 0.5 s wide, one event -> 2 events/s.
        assert rates[2] == pytest.approx(2.0)

    def test_count_in_inverted_window_rejected_with_context(self):
        log = EventLog("frame_updates")
        with pytest.raises(SimulationError) as excinfo:
            log.count_in(5.0, 2.0)
        err = excinfo.value
        assert "frame_updates" in str(err)
        assert err.context == {"log": "frame_updates",
                               "operation": "count_in",
                               "start": 5.0, "end": 2.0}

    def test_count_in_equal_bounds_is_empty_not_error(self):
        # end == start is a degenerate-but-valid half-open window:
        # (t, t] contains nothing.
        log = EventLog()
        log.append(1.0)
        assert log.count_in(1.0, 1.0) == 0

    def test_rate_in_inverted_window_context(self):
        log = EventLog("touches")
        with pytest.raises(SimulationError) as excinfo:
            log.rate_in(3.0, 1.0)
        assert excinfo.value.context["operation"] == "rate_in"
        assert excinfo.value.context["log"] == "touches"

    def test_binned_rate_inverted_window_rejected_with_context(self):
        log = EventLog("compositions")
        with pytest.raises(SimulationError) as excinfo:
            log.binned_rate(4.0, 1.0, bin_width=0.5)
        err = excinfo.value
        assert "compositions" in str(err)
        assert err.context == {"log": "compositions",
                               "operation": "binned_rate",
                               "start": 4.0, "end": 1.0,
                               "bin_width": 0.5}


class TestStepSeries:
    def test_initial_value(self):
        s = StepSeries(initial=60.0)
        assert s.current == 60.0
        assert s.value_at(0.0) == 60.0

    def test_transitions_hold_until_next(self):
        s = StepSeries(initial=60.0)
        s.set(1.0, 20.0)
        s.set(3.0, 40.0)
        assert s.value_at(0.5) == 60.0
        assert s.value_at(1.0) == 20.0
        assert s.value_at(2.999) == 20.0
        assert s.value_at(3.0) == 40.0
        assert s.value_at(100.0) == 40.0

    def test_same_timestamp_overwrites(self):
        s = StepSeries(initial=60.0)
        s.set(1.0, 20.0)
        s.set(1.0, 30.0)
        assert s.value_at(1.0) == 30.0
        times, values = s.transitions
        assert len(times) == 2  # initial + one (overwritten) transition

    def test_backwards_time_rejected(self):
        s = StepSeries()
        s.set(2.0, 1.0)
        with pytest.raises(SimulationError):
            s.set(1.0, 2.0)

    def test_query_before_start_rejected(self):
        s = StepSeries(start_time=5.0)
        with pytest.raises(SimulationError):
            s.value_at(4.0)

    def test_integrate_constant(self):
        s = StepSeries(initial=10.0)
        assert s.integrate(0.0, 4.0) == pytest.approx(40.0)

    def test_integrate_piecewise(self):
        s = StepSeries(initial=60.0)
        s.set(1.0, 20.0)
        # 1 s at 60 + 2 s at 20 = 100.
        assert s.integrate(0.0, 3.0) == pytest.approx(100.0)

    def test_integrate_partial_window(self):
        s = StepSeries(initial=60.0)
        s.set(1.0, 20.0)
        s.set(2.0, 40.0)
        # [0.5, 2.5]: 0.5 @ 60 + 1.0 @ 20 + 0.5 @ 40 = 70.
        assert s.integrate(0.5, 2.5) == pytest.approx(70.0)

    def test_integrate_is_additive(self):
        s = StepSeries(initial=5.0)
        s.set(0.7, 12.0)
        s.set(1.9, 3.0)
        whole = s.integrate(0.0, 4.0)
        split = s.integrate(0.0, 1.3) + s.integrate(1.3, 4.0)
        assert whole == pytest.approx(split)

    def test_mean(self):
        s = StepSeries(initial=60.0)
        s.set(1.0, 20.0)
        assert s.mean(0.0, 2.0) == pytest.approx(40.0)

    def test_sample(self):
        s = StepSeries(initial=1.0)
        s.set(1.0, 2.0)
        out = s.sample([0.5, 1.5])
        assert np.allclose(out, [1.0, 2.0])

    def test_integrate_end_before_start_rejected(self):
        s = StepSeries()
        with pytest.raises(SimulationError):
            s.integrate(2.0, 1.0)


class TestTimeSeries:
    def test_append_and_arrays(self):
        ts = TimeSeries()
        ts.append(1.0, 10.0)
        ts.append(2.0, 20.0)
        assert np.allclose(ts.times, [1.0, 2.0])
        assert np.allclose(ts.values, [10.0, 20.0])

    def test_backwards_time_rejected(self):
        ts = TimeSeries()
        ts.append(1.0, 0.0)
        with pytest.raises(SimulationError):
            ts.append(0.9, 0.0)

    def test_mean(self):
        ts = TimeSeries()
        for i in range(5):
            ts.append(float(i), float(i))
        assert ts.mean() == pytest.approx(2.0)

    def test_mean_of_empty_rejected(self):
        with pytest.raises(SimulationError):
            TimeSeries().mean()

    def test_binned_mean(self):
        ts = TimeSeries()
        ts.append(0.5, 10.0)
        ts.append(1.2, 20.0)
        ts.append(1.8, 40.0)
        centers, means = ts.binned_mean(0.0, 2.0, 1.0)
        assert means[0] == pytest.approx(10.0)
        assert means[1] == pytest.approx(30.0)

    def test_binned_mean_empty_bin_is_nan(self):
        ts = TimeSeries()
        ts.append(1.5, 10.0)
        _, means = ts.binned_mean(0.0, 2.0, 1.0)
        assert np.isnan(means[0])
        assert means[1] == pytest.approx(10.0)

