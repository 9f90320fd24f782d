"""Tests for the discrete-event simulation engine."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import PeriodicTask, Simulator


class TestSimulatorClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_negative_start_time_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulator(start_time=-1.0)

    def test_run_until_advances_clock_even_with_no_events(self):
        sim = Simulator()
        sim.run_until(10.0)
        assert sim.now == 10.0

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)


class TestScheduling:
    def test_event_fires_at_scheduled_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(2.5, lambda s: seen.append(s.now))
        sim.run_until(10.0)
        assert seen == [2.5]

    def test_call_after_is_relative(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda s: s.call_after(
            0.5, lambda s2: seen.append(s2.now)))
        sim.run_until(10.0)
        assert seen == [1.5]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        seen = []
        for t in (3.0, 1.0, 2.0):
            sim.call_at(t, lambda s: seen.append(s.now))
        sim.run_until(10.0)
        assert seen == [1.0, 2.0, 3.0]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda s: seen.append("first"))
        sim.call_at(1.0, lambda s: seen.append("second"))
        sim.run_until(10.0)
        assert seen == ["first", "second"]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.call_at(4.0, lambda s: None)

    def test_scheduling_at_now_allowed(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda s: s.call_at(
            s.now, lambda s2: seen.append(s2.now)))
        sim.run_until(10.0)
        assert seen == [1.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            sim.call_after(-0.1, lambda s: None)

    def test_event_beyond_end_time_does_not_fire(self):
        sim = Simulator()
        seen = []
        sim.call_at(11.0, lambda s: seen.append(s.now))
        sim.run_until(10.0)
        assert seen == []
        assert sim.now == 10.0

    def test_event_exactly_at_end_time_fires(self):
        sim = Simulator()
        seen = []
        sim.call_at(10.0, lambda s: seen.append(s.now))
        sim.run_until(10.0)
        assert seen == [10.0]

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.call_at(t, lambda s: None)
        sim.run_until(2.5)
        assert sim.events_processed == 2


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        handle = sim.call_at(1.0, lambda s: seen.append(s.now))
        sim.cancel(handle)
        sim.run_until(10.0)
        assert seen == []
        assert handle.cancelled

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.call_at(1.0, lambda s: None)
        sim.run_until(10.0)
        assert handle.fired
        sim.cancel(handle)  # must not raise

    def test_handle_states(self):
        sim = Simulator()
        handle = sim.call_at(1.0, lambda s: None)
        assert handle.pending
        sim.run_until(10.0)
        assert handle.fired and not handle.pending

    def test_cancel_from_within_event(self):
        sim = Simulator()
        seen = []
        later = sim.call_at(2.0, lambda s: seen.append("later"))
        sim.call_at(1.0, lambda s: s.cancel(later))
        sim.run_until(10.0)
        assert seen == []


class TestRun:
    def test_run_drains_queue(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda s: seen.append(1))
        sim.call_at(2.0, lambda s: seen.append(2))
        sim.run()
        assert seen == [1, 2]
        assert sim.now == 2.0

    def test_run_max_events_guard(self):
        sim = Simulator()

        def reschedule(s):
            s.call_after(0.001, reschedule)

        sim.call_after(0.001, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested(s):
            with pytest.raises(SimulationError):
                s.run_until(100.0)

        sim.call_at(1.0, nested)
        sim.run_until(10.0)


class TestPeriodicTask:
    def test_fires_at_period(self):
        sim = Simulator()
        seen = []
        PeriodicTask(sim, 1.0, lambda s: seen.append(s.now))
        sim.run_until(3.5)
        assert seen == [1.0, 2.0, 3.0]

    def test_start_delay(self):
        sim = Simulator()
        seen = []
        PeriodicTask(sim, 1.0, lambda s: seen.append(s.now),
                     start_delay=0.25)
        sim.run_until(2.5)
        assert seen == [0.25, 1.25, 2.25]

    def test_stop_halts_firing(self):
        sim = Simulator()
        seen = []
        task = PeriodicTask(sim, 1.0, lambda s: seen.append(s.now))
        sim.call_at(2.5, lambda s: task.stop())
        sim.run_until(10.0)
        assert seen == [1.0, 2.0]
        assert task.stopped

    def test_stop_from_within_callback(self):
        sim = Simulator()
        task = PeriodicTask(sim, 1.0, lambda s: task.stop())
        sim.run_until(10.0)
        assert task.ticks == 1

    def test_set_period_takes_effect_next_tick(self):
        sim = Simulator()
        seen = []
        task = PeriodicTask(sim, 1.0, lambda s: seen.append(s.now))
        sim.call_at(1.5, lambda s: task.set_period(2.0))
        sim.run_until(6.5)
        # Ticks at 1.0 and 2.0 (scheduled under old period), then every
        # 2.0 seconds.
        assert seen == [1.0, 2.0, 4.0, 6.0]

    def test_tick_counter(self):
        sim = Simulator()
        task = PeriodicTask(sim, 0.5, lambda s: None)
        sim.run_until(2.0)
        assert task.ticks == 4

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            PeriodicTask(sim, 0.0, lambda s: None)


class TestSetPeriodRetime:
    """``set_period(..., retime=True)`` re-times the pending tick."""

    def test_shrinking_pulls_the_pending_tick_earlier(self):
        sim = Simulator()
        seen = []
        task = PeriodicTask(sim, 1.0, lambda s: seen.append(s.now))
        # At t=1.2 the next tick is pending for t=2.0; shrinking to
        # 0.25 re-times it to last_fire + new_period = 1.25.
        sim.call_at(1.2, lambda s: task.set_period(0.25, retime=True))
        sim.run_until(2.0)
        assert seen == [1.0, 1.25, 1.5, 1.75, 2.0]

    def test_growing_pushes_the_pending_tick_later(self):
        sim = Simulator()
        seen = []
        task = PeriodicTask(sim, 1.0, lambda s: seen.append(s.now))
        sim.call_at(1.5, lambda s: task.set_period(3.0, retime=True))
        sim.run_until(8.0)
        assert seen == [1.0, 4.0, 7.0]

    def test_overdue_tick_clamps_to_now(self):
        sim = Simulator()
        seen = []
        task = PeriodicTask(sim, 10.0, lambda s: seen.append(s.now))
        # last_fire=0, new period 1.0 -> 1.0 is already in the past at
        # t=5; the tick fires immediately (now), not retroactively.
        sim.call_at(5.0, lambda s: task.set_period(1.0, retime=True))
        sim.run_until(7.5)
        assert seen == [5.0, 6.0, 7.0]

    def test_retime_after_stop_is_a_no_op(self):
        sim = Simulator()
        seen = []
        task = PeriodicTask(sim, 1.0, lambda s: seen.append(s.now))
        def stop_then_retime(s):
            task.stop()
            task.set_period(0.1, retime=True)
        sim.call_at(1.5, stop_then_retime)
        sim.run_until(5.0)
        assert seen == [1.0]

    def test_default_still_waits_for_next_reschedule(self):
        sim = Simulator()
        seen = []
        task = PeriodicTask(sim, 1.0, lambda s: seen.append(s.now))
        sim.call_at(0.1, lambda s: task.set_period(0.25))
        sim.run_until(1.6)
        # Pending tick keeps its old time; new period applies after.
        assert seen == [1.0, 1.25, 1.5]


class TestDeterminism:
    def test_identical_schedules_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            seen = []
            PeriodicTask(sim, 0.3, lambda s: seen.append(round(s.now, 9)))
            sim.call_at(0.95, lambda s: seen.append("mark"))
            sim.run_until(2.0)
            return seen

        assert build_and_run() == build_and_run()


class TestPause:
    def test_pause_returns_before_the_next_event(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda s: (seen.append(s.now), s.request_pause()))
        sim.call_at(1.0, lambda s: seen.append(s.now))
        sim.call_at(2.0, lambda s: seen.append(s.now))
        assert sim.run_until(5.0) == 1
        assert sim.paused
        assert sim.now == 1.0
        assert seen == [1.0]
        assert sim.run_until(5.0) == 2
        assert not sim.paused
        assert sim.now == 5.0
        assert seen == [1.0, 1.0, 2.0]

    def test_pause_after_the_last_event_is_cleared(self):
        sim = Simulator()
        sim.call_at(1.0, lambda s: s.request_pause())
        assert sim.run_until(5.0) == 1
        assert not sim.paused
        assert sim.now == 5.0

    def test_exhausted_budget_takes_precedence(self):
        sim = Simulator()
        sim.call_at(1.0, lambda s: s.request_pause())
        sim.call_at(2.0, lambda s: None)
        assert sim.run_until(5.0, max_events=1) == 1
        assert sim.now == 1.0
        assert sim.run_until(5.0) == 1
        assert not sim.paused
