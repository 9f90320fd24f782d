"""Tests for the telemetry subsystem: hub, sinks, metrics, spans,
stream summarization, and the zero-overhead equivalence guarantee."""

import json

import pytest

from repro.errors import TelemetryError
from repro.sim.batch import batch_failure_summary, run_batch
from repro.sim.session import SessionConfig, run_session
from repro.telemetry import (
    EVENT_FAULT_INJECTED,
    EVENT_RATE_SWITCH,
    EVENT_SESSION_END,
    EVENT_SESSION_START,
    EVENT_SPAN,
    EVENT_TOUCH_BOOST,
    EVENT_WATCHDOG_STATE,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    RingBufferSink,
    TelemetryConfig,
    TelemetryHub,
    parse_jsonl,
    span_summary,
    summarize_jsonl,
    timed,
)
from repro.telemetry.stats import format_stats


class FakeClock:
    """Deterministic monotonic clock for hub tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Hub
# ----------------------------------------------------------------------

class TestTelemetryHub:
    def test_emit_stamps_session_and_clocks(self):
        clock = FakeClock()
        ring = RingBufferSink(16)
        hub = TelemetryHub("app:gov:1", sinks=[ring], clock=clock)
        clock.advance(0.25)
        event = hub.emit(EVENT_RATE_SWITCH, 3.0, from_hz=60, to_hz=40)
        assert event.session_id == "app:gov:1"
        assert event.sim_time_s == 3.0
        assert event.wall_time_s == pytest.approx(0.25)
        assert ring.events == (event,)

    def test_unknown_kind_rejected(self):
        hub = TelemetryHub("s")
        with pytest.raises(TelemetryError) as excinfo:
            hub.emit("made_up_kind", 0.0)
        assert excinfo.value.context["kind"] == "made_up_kind"

    def test_emit_after_close_rejected(self):
        hub = TelemetryHub("s")
        hub.close()
        with pytest.raises(TelemetryError):
            hub.emit(EVENT_SESSION_END, 1.0)

    def test_event_counts(self):
        hub = TelemetryHub("s")
        hub.emit(EVENT_RATE_SWITCH, 0.0, from_hz=60, to_hz=40)
        hub.emit(EVENT_RATE_SWITCH, 1.0, from_hz=40, to_hz=60)
        hub.emit(EVENT_TOUCH_BOOST, 1.5, rate_hz=60)
        assert hub.events_total == 3
        assert hub.event_counts == {EVENT_RATE_SWITCH: 2,
                                    EVENT_TOUCH_BOOST: 1}

    def test_span_records_duration_and_emits_event(self):
        clock = FakeClock()
        ring = RingBufferSink(16)
        hub = TelemetryHub("s", sinks=[ring], clock=clock)
        with hub.span("meter.grid_compare", 2.0):
            clock.advance(0.001)
        stats = hub.span_stats()["meter.grid_compare"]
        assert stats["count"] == 1
        assert stats["total_s"] == pytest.approx(0.001)
        (event,) = ring.by_kind(EVENT_SPAN)
        assert event.data["name"] == "meter.grid_compare"
        assert event.sim_time_s == 2.0

    def test_profile_spans_off_suppresses_span_events(self):
        ring = RingBufferSink(16)
        hub = TelemetryHub("s", sinks=[ring], profile_spans=False)
        with hub.span("meter.grid_compare", 0.0):
            pass
        assert hub.span_stats() == {}
        assert len(ring) == 0

    def test_summary_dict_schema(self):
        hub = TelemetryHub("app:gov:7")
        hub.emit(EVENT_RATE_SWITCH, 0.5, from_hz=60, to_hz=40)
        hub.metrics.counter("panel.rate_switches").inc()
        summary = hub.summary_dict()
        assert summary["session_id"] == "app:gov:7"
        assert summary["events"]["total"] == 1
        assert summary["metrics"]["counters"][
            "panel.rate_switches"] == 1
        assert set(summary) == {"session_id", "events", "metrics",
                                "spans"}


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------

class TestSinks:
    def test_null_sink_counts_drops(self):
        sink = NullSink()
        hub = TelemetryHub("s", sinks=[sink])
        hub.emit(EVENT_TOUCH_BOOST, 0.0, rate_hz=60)
        assert sink.dropped == 1

    def test_ring_buffer_eviction(self):
        sink = RingBufferSink(2)
        hub = TelemetryHub("s", sinks=[sink])
        for t in range(3):
            hub.emit(EVENT_TOUCH_BOOST, float(t), rate_hz=60)
        assert sink.written == 3
        assert len(sink) == 2
        assert [e.sim_time_s for e in sink.events] == [1.0, 2.0]

    def test_ring_buffer_capacity_validated(self):
        with pytest.raises(TelemetryError):
            RingBufferSink(0)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        hub = TelemetryHub("s", sinks=[JsonlSink(path)])
        hub.emit(EVENT_RATE_SWITCH, 1.0, from_hz=60, to_hz=40)
        hub.close()
        (record,) = parse_jsonl(path)
        assert record["v"] == 1
        assert record["kind"] == EVENT_RATE_SWITCH
        assert record["data"] == {"from_hz": 60, "to_hz": 40}

    def test_jsonl_write_after_close_rejected(self, tmp_path):
        sink = JsonlSink(tmp_path / "x.jsonl")
        sink.close()
        hub = TelemetryHub("s", sinks=[sink])
        with pytest.raises(TelemetryError):
            hub.emit(EVENT_TOUCH_BOOST, 0.0, rate_hz=60)

    def test_parse_jsonl_reports_bad_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "span"}\nnot json\n')
        with pytest.raises(TelemetryError) as excinfo:
            parse_jsonl(path)
        assert excinfo.value.context["line"] == 2


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("panel.rate_switches")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("panel.final_refresh_hz")
        gauge.set(60.0)
        gauge.set(40.0)
        assert gauge.value == 40.0

    def test_histogram_fixed_buckets(self):
        histogram = MetricsRegistry().histogram(
            "governor.selected_rate_hz", [20.0, 40.0, 60.0])
        for value in (20.0, 35.0, 60.0, 90.0):
            histogram.observe(value)
        # Buckets: (-inf,20] (20,40] (40,60] (60,inf)
        assert histogram.bucket_counts == (1, 1, 1, 1)
        assert histogram.count == 4
        assert histogram.as_dict()["max"] == 90.0

    def test_invalid_name_rejected(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().counter("Panel.RateSwitches")

    def test_cross_type_reregistration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("meter.frames")
        with pytest.raises(TelemetryError):
            registry.gauge("meter.frames")

    def test_histogram_edge_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("governor.selected_rate_hz", [20.0, 60.0])
        with pytest.raises(TelemetryError):
            registry.histogram("governor.selected_rate_hz",
                               [20.0, 40.0])

    def test_as_dict_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("b.z").inc()
        registry.counter("a.z").inc(2)
        snapshot = registry.as_dict()
        assert list(snapshot["counters"]) == ["a.z", "b.z"]
        json.dumps(snapshot)  # must be serializable as-is


# ----------------------------------------------------------------------
# @timed decorator
# ----------------------------------------------------------------------

class TestTimedDecorator:
    class Instrumented:
        def __init__(self, hub):
            self._telemetry = hub
            self.calls = 0

        @timed("meter.content_rate", time_arg=0)
        def read(self, now):
            self.calls += 1
            return now * 2

    def test_no_hub_is_passthrough(self):
        obj = self.Instrumented(None)
        assert obj.read(3.0) == 6.0
        assert obj.calls == 1

    def test_hub_records_span_with_sim_time(self):
        ring = RingBufferSink(8)
        hub = TelemetryHub("s", sinks=[ring], clock=FakeClock())
        obj = self.Instrumented(hub)
        assert obj.read(3.0) == 6.0
        (event,) = ring.by_kind(EVENT_SPAN)
        assert event.sim_time_s == 3.0
        assert event.data["name"] == "meter.content_rate"

    def test_span_summary_empty(self):
        assert span_summary([])["count"] == 0

    def test_span_summary_percentiles(self):
        stats = span_summary([0.001] * 99 + [0.1])
        assert stats["count"] == 100
        assert stats["p50_s"] == pytest.approx(0.001)
        assert stats["max_s"] == pytest.approx(0.1)


# ----------------------------------------------------------------------
# Session integration (the ISSUE's acceptance criteria)
# ----------------------------------------------------------------------

def _run(app="Facebook", seed=1, duration_s=20.0, **kwargs):
    return run_session(SessionConfig(
        app=app, duration_s=duration_s, seed=seed, **kwargs))


class TestSessionTelemetry:
    def test_default_scenario_stream_has_required_events(self, tmp_path):
        path = tmp_path / "session.jsonl"
        result = _run(telemetry=TelemetryConfig(jsonl_path=str(path)))
        assert result.telemetry is not None
        counts = result.telemetry.event_counts
        assert counts.get(EVENT_RATE_SWITCH, 0) >= 1
        assert counts.get(EVENT_TOUCH_BOOST, 0) >= 1
        assert counts.get(EVENT_SPAN, 0) >= 1
        assert counts[EVENT_SESSION_START] == 1
        assert counts[EVENT_SESSION_END] == 1
        # And the file round-trips through the stats pipeline.
        records = parse_jsonl(path)
        assert len(records) == result.telemetry.events_total
        assert all(r["v"] == 1 for r in records)

    def test_stats_summary_round_trip(self, tmp_path):
        path = tmp_path / "session.jsonl"
        result = _run(telemetry=TelemetryConfig(jsonl_path=str(path)))
        summary = summarize_jsonl(path)
        assert summary["sessions"] == ["Facebook:section+boost:1"]
        assert (summary["events"]["total"]
                == result.telemetry.events_total)
        assert (summary["rate_switches"]["count"]
                == result.telemetry.event_counts[EVENT_RATE_SWITCH])
        assert "meter.grid_compare" in summary["spans"]
        text = format_stats(summary)
        assert "rate switches" in text
        assert "meter.grid_compare" in text

    def test_session_id_is_deterministic(self):
        result = _run(duration_s=5.0, seed=9)
        assert result.telemetry is None  # default: off
        result = _run(duration_s=5.0, seed=9,
                      telemetry=TelemetryConfig())
        assert (result.telemetry.session_id
                == "Facebook:section+boost:9")

    def test_metrics_cover_panel_governor_meter(self):
        result = _run(duration_s=10.0, telemetry=TelemetryConfig())
        counters = result.telemetry.summary_dict()["metrics"]["counters"]
        assert counters["panel.vsyncs"] > 0
        assert counters["meter.frames"] > 0
        assert counters["governor.decisions"] > 0
        assert counters["panel.rate_switches"] == \
            result.panel.rate_switches

    def test_hub_closed_when_session_ends(self):
        result = _run(duration_s=5.0, telemetry=TelemetryConfig())
        assert result.telemetry.closed

    def test_fault_counters_snapshot_matches_fault_summary(self):
        from repro.faults.plan import FaultPlan
        result = _run(
            duration_s=20.0,
            faults=FaultPlan.parse("meter_fail=0.5", seed=3),
            telemetry=TelemetryConfig())
        faults = result.fault_summary_dict()
        assert faults["injected_total"] > 0
        counters = result.telemetry.summary_dict()["metrics"]["counters"]
        # Single emission path: registry totals are snapshots of the
        # same summary dicts, never independently counted.
        assert counters["faults.injected_total"] == \
            faults["injected_total"]
        assert counters["faults.injected.meter_fail"] == \
            faults["injected_by_site"]["meter_fail"]
        assert counters["watchdog.meter_failures"] == \
            faults["meter_failures"]
        # Ladder moves show up as events.
        assert result.telemetry.event_counts.get(
            EVENT_WATCHDOG_STATE, 0) > 0
        assert result.telemetry.event_counts.get(
            EVENT_FAULT_INJECTED, 0) == faults["injected_total"]


# ----------------------------------------------------------------------
# Zero-overhead equivalence (disabled telemetry changes nothing)
# ----------------------------------------------------------------------

class TestEquivalence:
    def _comparable_summary(self, result):
        from repro.analysis.export import session_summary_dict
        return session_summary_dict(result)

    def test_disabled_telemetry_is_bit_identical(self):
        baseline = self._comparable_summary(_run(duration_s=15.0))
        instrumented = self._comparable_summary(
            _run(duration_s=15.0, telemetry=TelemetryConfig()))
        instrumented.pop("telemetry")
        assert (json.dumps(baseline, sort_keys=True)
                == json.dumps(instrumented, sort_keys=True))

    def test_disabled_summary_has_no_telemetry_key(self):
        summary = self._comparable_summary(_run(duration_s=5.0))
        assert "telemetry" not in summary

    def test_equivalence_under_faults(self):
        from repro.faults.plan import FaultPlan

        def run(telemetry):
            return self._comparable_summary(_run(
                duration_s=15.0,
                faults=FaultPlan.parse(
                    "meter_fail=0.2,panel_refuse=0.1", seed=5),
                telemetry=telemetry))

        baseline = run(None)
        instrumented = run(TelemetryConfig())
        instrumented.pop("telemetry")
        assert (json.dumps(baseline, sort_keys=True)
                == json.dumps(instrumented, sort_keys=True))


# ----------------------------------------------------------------------
# Batch counters and progress
# ----------------------------------------------------------------------

class TestBatchTelemetry:
    def _configs(self, n=2, **kwargs):
        return [SessionConfig(app="Facebook", duration_s=3.0, seed=s,
                              **kwargs) for s in range(n)]

    def test_failure_summary_has_counters(self):
        results = run_batch(self._configs(2), workers=1)
        summary = batch_failure_summary(results)
        assert summary["counters"] == {
            "batch.sessions_total": 2,
            "batch.sessions_succeeded": 2,
            "batch.sessions_failed": 0,
            "batch.retry_attempts": 0,
            "batch.timeouts": 0,
            "batch.worker_crashes": 0,
        }

    def test_progress_callback_called_per_session(self):
        seen = []
        run_batch(self._configs(3), workers=1,
                  progress=lambda done, total, entry:
                  seen.append((done, total, entry["app"])))
        assert seen == [(1, 3, "Facebook"), (2, 3, "Facebook"),
                        (3, 3, "Facebook")]

    def test_failed_sessions_feed_counters(self):
        # An unknown app fails inside the worker, is retried once, and
        # lands in the failure counters.
        configs = self._configs(1) + [
            SessionConfig(app="no-such-app", duration_s=3.0)]
        results = run_batch(configs, workers=1, retries=1)
        summary = batch_failure_summary(results)
        assert summary["counters"]["batch.sessions_failed"] == 1
        assert summary["counters"]["batch.retry_attempts"] == 1
        assert summary["counters"]["batch.timeouts"] == 0
