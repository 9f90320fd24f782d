"""Tests for the parallel batch backend (`repro.sim.batch`).

The contract under test: ``run_batch(configs, workers=N)`` returns
output *byte-identical* to the serial path for every worker count,
start method, and chunking, and a worker that dies or hangs costs
exactly its own config — never the batch.

Process-pool tests use the ``fork`` start method where they need the
parent's monkeypatches visible in workers (fork inherits the patched
module; spawn re-imports it pristine); one equivalence test runs the
default ``spawn`` path end to end.
"""

import json
import os
import time

import pytest

import repro.sim.batch as batch
from repro.errors import ConfigurationError, TelemetryError
from repro.faults.plan import FaultPlan
from repro.sim.batch import (
    batch_failure_summary,
    batch_telemetry_summary,
    is_failure_record,
    run_batch,
)
from repro.sim.session import SessionConfig
from repro.telemetry import (
    MetricsRegistry,
    TelemetryConfig,
    interleave_streams,
    merge_snapshots,
)

APPS = ("Facebook", "Auction", "CGV", "Coupang")


def _configs(n=4, duration_s=3.0, telemetry=False, faults=False):
    """N small distinct configs (telemetry span-free: byte-identity)."""
    configs = []
    for i in range(n):
        plan = None
        if faults and i % 2 == 1:
            plan = FaultPlan(meter_fail=0.3, seed=i)
        configs.append(SessionConfig(
            app=APPS[i % len(APPS)],
            governor="section+hysteresis",
            duration_s=duration_s,
            seed=i,
            faults=plan,
            telemetry=(TelemetryConfig(profile_spans=False)
                       if telemetry else None)))
    return configs


def _bytes(results):
    return json.dumps(results, sort_keys=True)


class TestDeterministicMerge:
    def test_parallel_matches_serial_byte_identical(self, tmp_path):
        """The acceptance property: faults + telemetry + streams,
        workers=2 vs workers=1, identical bytes throughout."""
        configs = _configs(telemetry=True, faults=True)
        serial_stream = tmp_path / "serial.jsonl"
        parallel_stream = tmp_path / "parallel.jsonl"
        serial = run_batch(configs, workers=1,
                           stream_path=serial_stream)
        parallel = run_batch(configs, workers=2, mp_context="fork",
                             stream_path=parallel_stream)
        assert _bytes(serial) == _bytes(parallel)
        assert serial_stream.read_text() == parallel_stream.read_text()

    def test_32_session_batch_workers_8_matches_workers_1(self):
        """The acceptance bar verbatim: a seeded 32-session batch at
        workers=8 is byte-identical to workers=1."""
        configs = [SessionConfig(app=APPS[i % len(APPS)],
                                 governor="section+boost",
                                 duration_s=2.0, seed=i)
                   for i in range(32)]
        serial = run_batch(configs, workers=1)
        parallel = run_batch(configs, workers=8, mp_context="fork")
        assert _bytes(serial) == _bytes(parallel)

    def test_worker_count_independence(self):
        configs = _configs(n=5, telemetry=True)
        two = run_batch(configs, workers=2, mp_context="fork")
        three = run_batch(configs, workers=3, mp_context="fork")
        assert _bytes(two) == _bytes(three)

    def test_spawn_context_matches_serial(self):
        configs = _configs(n=2, duration_s=2.0)
        serial = run_batch(configs, workers=1)
        spawned = run_batch(configs, workers=2, mp_context="spawn")
        assert _bytes(serial) == _bytes(spawned)

    def test_chunked_dispatch_matches_serial(self):
        configs = _configs(n=5)
        serial = run_batch(configs, workers=1)
        chunked = run_batch(configs, workers=2, mp_context="fork",
                            chunksize=2)
        assert _bytes(serial) == _bytes(chunked)

    def test_stream_is_deterministic_and_wall_free(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        run_batch(_configs(telemetry=True), workers=2,
                  mp_context="fork", stream_path=path)
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert events, "telemetered batch must produce events"
        assert all("wall_s" not in event for event in events)
        sim_times = [event["sim_s"] for event in events]
        assert sim_times == sorted(sim_times)

    def test_batch_telemetry_summary_merges_in_input_order(self):
        configs = _configs(telemetry=True)
        serial = run_batch(configs, workers=1)
        parallel = run_batch(configs, workers=2, mp_context="fork")
        merged = batch_telemetry_summary(serial)
        assert merged["sessions_with_telemetry"] == len(configs)
        assert merged["events"]["total"] == sum(
            entry["telemetry"]["events"]["total"] for entry in serial)
        assert _bytes(merged) == _bytes(
            batch_telemetry_summary(parallel))

    def test_untelemetered_sessions_contribute_nothing(self):
        results = run_batch(_configs(n=2), workers=1)
        merged = batch_telemetry_summary(results)
        assert merged["sessions_with_telemetry"] == 0
        assert merged["events"]["total"] == 0


class TestMergePrimitives:
    def _snapshot(self, counter=0, gauge=0.0, observations=()):
        registry = MetricsRegistry()
        registry.counter("c").inc(counter)
        registry.gauge("g").set(gauge)
        histogram = registry.histogram("h", (0.0, 1.0, 2.0))
        for value in observations:
            histogram.observe(value)
        return registry.as_dict()

    def test_counters_add_and_gauges_take_last(self):
        merged = merge_snapshots([
            self._snapshot(counter=2, gauge=1.0),
            self._snapshot(counter=3, gauge=7.0),
        ])
        assert merged["counters"]["c"] == 5
        assert merged["gauges"]["g"] == 7.0

    def test_histograms_combine(self):
        merged = merge_snapshots([
            self._snapshot(observations=(0.5,)),
            self._snapshot(observations=(1.5, 2.5)),
        ])
        histogram = merged["histograms"]["h"]
        assert histogram["count"] == 3
        assert histogram["min"] == 0.5
        assert histogram["max"] == 2.5

    def test_mismatched_histogram_edges_refuse_to_merge(self):
        registry = MetricsRegistry()
        registry.histogram("h", (0.0, 5.0)).observe(1.0)
        with pytest.raises(TelemetryError):
            merge_snapshots([self._snapshot(observations=(0.5,)),
                             registry.as_dict()])

    def test_interleave_orders_by_sim_time_then_stream(self):
        stream_a = [{"sim_s": 1.0, "tag": "a1"},
                    {"sim_s": 3.0, "tag": "a2"}]
        stream_b = [{"sim_s": 1.0, "tag": "b1"},
                    {"sim_s": 2.0, "tag": "b2"}]
        tags = [event["tag"]
                for event in interleave_streams([stream_a, stream_b])]
        assert tags == ["a1", "b1", "b2", "a2"]


def _kill_seed_99(config, capture):
    if config.seed == 99:
        os._exit(13)
    return _REAL_PAYLOAD(config, capture)


def _hang_seed_99(config, capture):
    if config.seed == 99:
        time.sleep(60)
    return _REAL_PAYLOAD(config, capture)


_REAL_PAYLOAD = batch._session_payload


class TestFailureIsolation:
    def _poisoned(self, n=4, bad_index=2, duration_s=2.0):
        configs = _configs(n=n, duration_s=duration_s)
        bad = configs[bad_index]
        configs[bad_index] = SessionConfig(
            app=bad.app, governor=bad.governor,
            duration_s=bad.duration_s, seed=99)
        return configs

    def test_worker_death_is_isolated_to_its_config(self, monkeypatch):
        monkeypatch.setattr(batch, "_session_payload", _kill_seed_99)
        results = run_batch(self._poisoned(), workers=2,
                            mp_context="fork", chunksize=1)
        assert [is_failure_record(r) for r in results] == \
            [False, False, True, False]
        record = results[2]
        assert record["error_type"] == "WorkerCrashError"
        assert record["config_index"] == 2
        summary = batch_failure_summary(results)
        assert summary["counters"]["batch.worker_crashes"] == 1
        assert summary["succeeded"] == 3

    def test_worker_death_raises_in_strict_mode(self, monkeypatch):
        from repro.errors import WorkerCrashError
        monkeypatch.setattr(batch, "_session_payload", _kill_seed_99)
        with pytest.raises(WorkerCrashError):
            run_batch(self._poisoned(), workers=2, mp_context="fork",
                      chunksize=1, on_error="raise")

    def test_timeout_records_only_the_slow_config(self, monkeypatch):
        monkeypatch.setattr(batch, "_session_payload", _hang_seed_99)
        results = run_batch(self._poisoned(), workers=2,
                            mp_context="fork", timeout_s=1.0)
        assert [is_failure_record(r) for r in results] == \
            [False, False, True, False]
        record = results[2]
        assert record["error_type"] == "TimeoutError"
        assert "1 s" in record["error_message"]
        summary = batch_failure_summary(results)
        assert summary["counters"]["batch.timeouts"] == 1

    def test_timeout_raises_in_strict_mode(self, monkeypatch):
        monkeypatch.setattr(batch, "_session_payload", _hang_seed_99)
        with pytest.raises(TimeoutError):
            run_batch(self._poisoned(), workers=2, mp_context="fork",
                      timeout_s=1.0, on_error="raise")

    def test_session_errors_stay_failure_records_in_workers(self):
        configs = _configs(n=3)
        configs[1] = SessionConfig(app="NoSuchApp", duration_s=2.0)
        results = run_batch(configs, workers=2, mp_context="fork",
                            chunksize=1)
        assert [is_failure_record(r) for r in results] == \
            [False, True, False]
        assert results[1]["error_type"] == "WorkloadError"


class TestValidationAndProgress:
    def test_legacy_processes_alias_still_works(self):
        results = run_batch(_configs(n=2, duration_s=2.0), 1)
        assert len(results) == 2

    def test_bad_chunksize_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch(_configs(n=2), workers=1, chunksize=0)

    def test_timeout_requires_per_session_dispatch(self):
        with pytest.raises(ConfigurationError):
            run_batch(_configs(n=2), workers=2, timeout_s=1.0,
                      chunksize=2)

    def test_unknown_mp_context_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch(_configs(n=2), workers=2, mp_context="thread")

    def test_progress_reports_in_input_order(self):
        seen = []
        configs = _configs(n=4, duration_s=2.0)
        run_batch(configs, workers=2, mp_context="fork", chunksize=1,
                  progress=lambda done, total, entry:
                  seen.append((done, total, entry["seed"])))
        assert [s[0] for s in seen] == [1, 2, 3, 4]
        assert all(s[1] == 4 for s in seen)
        assert [s[2] for s in seen] == [0, 1, 2, 3]
