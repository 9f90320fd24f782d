"""Tests for the service's observability plane.

Covers job-scoped tracing (`repro.telemetry.tracing`): deterministic
trace IDs, journal → Chrome-trace folding across simulated `kill -9`
generations, checkpoint trace-ID round trips, trace and wall stamps on
a live service's journal records; heartbeat staleness detection; and
the CLI surfaces (`trace-export`, `stats --format prom`, `submit` trace
echo, `status` staleness flag).
"""

import asyncio
import json
import time

import pytest

from repro.cli import main
from repro.errors import ServiceError, TelemetryError
from repro.pipeline.spec import SessionSpec
from repro.service import (
    JobRequest,
    ServiceConfig,
    ServicePaths,
    SessionService,
    submit_job,
)
from repro.service.service import _health_staleness, service_status
from repro.sim.runner import SessionRunner, resume_runner
from repro.sim.session import SessionConfig
from repro.telemetry.expose import parse_exposition
from repro.telemetry.tracing import (
    chrome_trace_document,
    journal_trace_events,
    mint_trace_id,
    validate_trace_id,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _spec(duration_s=1.0, seed=0):
    return SessionSpec.from_config(SessionConfig(
        app="Jelly Splash", governor="section+boost",
        duration_s=duration_s, seed=seed))


def _submit(state_dir, job_id, seq=0, duration_s=1.0):
    submit_job(state_dir, JobRequest(
        job_id=job_id, spec=_spec(duration_s, seed=seq).to_json_dict(),
        deadline_s=None, submitted_seq=seq))


# ----------------------------------------------------------------------
# Trace IDs
# ----------------------------------------------------------------------

class TestTraceIds:
    def test_minting_is_deterministic(self):
        assert mint_trace_id("job-a", 3) == mint_trace_id("job-a", 3)

    def test_distinct_jobs_get_distinct_ids(self):
        assert mint_trace_id("job-a", 0) != mint_trace_id("job-b", 0)
        assert mint_trace_id("job-a", 0) != mint_trace_id("job-a", 1)

    def test_minted_ids_validate(self):
        trace_id = mint_trace_id("job-a", 0)
        assert validate_trace_id(trace_id) == trace_id
        assert len(trace_id) == 32

    @pytest.mark.parametrize("bad", ["", "xyz!", "ABCDEF12", "a" * 65])
    def test_invalid_ids_rejected(self, bad):
        with pytest.raises(TelemetryError):
            validate_trace_id(bad)

    def test_job_request_rejects_bad_trace_id(self):
        with pytest.raises(ServiceError):
            JobRequest(job_id="j", spec=_spec().to_json_dict(),
                       deadline_s=None, submitted_seq=0,
                       trace_id="not hex!")

    def test_job_request_trace_id_round_trips_json(self):
        trace_id = mint_trace_id("j", 0)
        job = JobRequest(job_id="j", spec=_spec().to_json_dict(),
                        deadline_s=None, submitted_seq=0,
                        trace_id=trace_id)
        again = JobRequest.from_json_dict(job.to_json_dict())
        assert again.trace_id == trace_id


class TestCheckpointTraceId:
    def test_checkpoint_carries_and_survives_resume(self):
        trace_id = mint_trace_id("j1", 0)
        runner = SessionRunner(SessionConfig(
            app="Jelly Splash", governor="section+boost",
            duration_s=1.0, seed=0))
        runner.advance(0.5)
        document = runner.checkpoint_document(job_id="j1",
                                              trace_id=trace_id)
        assert document["trace_id"] == trace_id
        assert document["job_id"] == "j1"
        resumed = resume_runner(document)
        assert resumed.now == pytest.approx(runner.now)


# ----------------------------------------------------------------------
# Journal -> Chrome trace folding
# ----------------------------------------------------------------------

def _two_generation_journal(trace_id):
    """A synthetic journal: gen 0 is SIGKILLed mid-attempt, gen 1
    resumes and finishes — the crash-spanning export fixture."""
    return [
        {"op": "service_start", "seq": 1},
        {"op": "job_ingested", "seq": 2, "job_id": "j1",
         "trace_id": trace_id},
        {"op": "attempt_start", "seq": 3, "job_id": "j1",
         "trace_id": trace_id},
        {"op": "checkpoint_written", "seq": 4, "job_id": "j1",
         "trace_id": trace_id},
        # kill -9 lands here: no closing record in generation 0.
        {"op": "service_start", "seq": 1},
        {"op": "job_ingested", "seq": 2, "job_id": "j1",
         "trace_id": trace_id},
        {"op": "attempt_start", "seq": 3, "job_id": "j1",
         "trace_id": trace_id},
        {"op": "job_done", "seq": 4, "job_id": "j1",
         "trace_id": trace_id},
        {"op": "service_stop", "seq": 5},
    ]


class TestJournalTraceExport:
    def test_two_generations_one_timeline(self):
        trace_id = mint_trace_id("j1", 0)
        events = journal_trace_events(
            _two_generation_journal(trace_id))
        slices = [e for e in events if e.get("ph") == "X"]
        # gen 0: queue_wait + truncated attempt; gen 1: queue_wait +
        # completed attempt.
        assert len(slices) == 4
        assert {e["pid"] for e in slices} == {1, 2}
        # One lane for the one job, across both generations.
        assert {e["tid"] for e in slices} == {1}
        # Every slice carries the single trace id.
        assert {e["args"].get("trace_id") for e in slices} == \
            {trace_id}

    def test_kill_truncates_the_open_span_visibly(self):
        events = journal_trace_events(
            _two_generation_journal(mint_trace_id("j1", 0)))
        truncated = [e for e in events if e.get("ph") == "X"
                     and e["args"].get("truncated")]
        assert len(truncated) == 1
        assert truncated[0]["pid"] == 1

    def test_generations_get_process_metadata(self):
        events = journal_trace_events(
            _two_generation_journal(mint_trace_id("j1", 0)))
        names = [e for e in events
                 if e.get("ph") == "M"
                 and e.get("name") == "process_name"]
        assert {e["pid"] for e in names} == {1, 2}

    def test_job_filter(self):
        trace_id = mint_trace_id("j1", 0)
        events = journal_trace_events(
            _two_generation_journal(trace_id), job_ids=["other"])
        assert not [e for e in events if e.get("ph") == "X"]

    def test_completed_attempt_named_after_terminal_op(self):
        events = journal_trace_events(
            _two_generation_journal(mint_trace_id("j1", 0)))
        assert any(e.get("ph") == "X" and e["name"] == "job_done"
                   for e in events)

    def test_chrome_document_shape(self):
        document = chrome_trace_document(
            journal_trace_events(
                _two_generation_journal(mint_trace_id("j1", 0))),
            metadata={"source": "test"})
        assert isinstance(document["traceEvents"], list)
        assert document["displayTimeUnit"] == "ms"


class TestLiveServiceScrape:
    def test_journal_records_carry_trace_and_wall(self, tmp_path):
        from repro.service import read_journal
        _submit(tmp_path, "traced-job")
        service = SessionService(ServiceConfig(
            state_dir=str(tmp_path), workers=1, slice_sleep_s=0.0,
            fsync_journal=False, until_idle=True, max_runtime_s=120.0))
        asyncio.run(service.serve())
        journal = read_journal(ServicePaths(tmp_path).journal_path)
        expected = mint_trace_id("traced-job", 0)
        job_records = journal.ops_for("traced-job")
        assert job_records
        assert {r["trace_id"] for r in job_records} == {expected}
        assert all(isinstance(r.get("wall_s"), float)
                   for r in job_records)


# ----------------------------------------------------------------------
# Staleness
# ----------------------------------------------------------------------

class TestHealthStaleness:
    def _write_health(self, tmp_path, **fields):
        paths = ServicePaths(tmp_path).ensure()
        paths.health_path.write_text(json.dumps(fields))
        return paths

    def test_fresh_heartbeat_not_stale(self, tmp_path):
        paths = self._write_health(
            tmp_path, state="running", health_period_s=0.25,
            written_unix=time.time())
        age, stale = _health_staleness(
            paths, json.loads(paths.health_path.read_text()))
        assert not stale
        assert age == pytest.approx(0.0, abs=1.0)

    def test_old_heartbeat_is_stale(self, tmp_path):
        status = self._status_for(tmp_path, state="running")
        assert status["health_stale"]
        assert status["health_age_s"] > 0.5

    def test_stopped_state_never_stale(self, tmp_path):
        status = self._status_for(tmp_path, state="stopped")
        assert not status["health_stale"]

    def test_missing_health_not_stale(self, tmp_path):
        ServicePaths(tmp_path).ensure()
        status = service_status(tmp_path)
        assert not status["health_stale"]
        assert status["health_age_s"] is None

    def _status_for(self, tmp_path, state):
        self._write_health(
            tmp_path, state=state, health_period_s=0.25,
            written_unix=time.time() - 10.0)
        return service_status(tmp_path)


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------

class TestObservabilityCli:
    def _drained_state_dir(self, tmp_path):
        _submit(tmp_path, "cli-job")
        service = SessionService(ServiceConfig(
            state_dir=str(tmp_path), workers=1, slice_sleep_s=0.0,
            fsync_journal=False, until_idle=True, max_runtime_s=120.0))
        asyncio.run(service.serve())
        return tmp_path

    def test_submit_echoes_trace_id(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "submit", "--state-dir", str(tmp_path),
            "--app", "Jelly Splash", "--duration", "1")
        assert code == 0
        assert "(trace " in out

    def test_trace_export_writes_chrome_trace(self, capsys, tmp_path):
        state_dir = self._drained_state_dir(tmp_path / "state")
        out_path = tmp_path / "trace.json"
        code, out = run_cli(
            capsys, "trace-export", "--state-dir", str(state_dir),
            "--out", str(out_path))
        assert code == 0
        assert "trace event" in out
        document = json.loads(out_path.read_text())
        slices = [e for e in document["traceEvents"]
                  if e.get("ph") == "X"]
        assert any(e["name"] == "job_done" for e in slices)
        assert document["metadata"]["trace_ids"] == \
            [mint_trace_id("cli-job", 0)]

    def test_trace_export_needs_a_source(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace-export", "--out", "-"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_status_flags_stale_heartbeat(self, capsys, tmp_path):
        paths = ServicePaths(tmp_path).ensure()
        paths.health_path.write_text(json.dumps(
            {"state": "running", "health_period_s": 0.25,
             "written_unix": time.time() - 60.0}))
        code, out = run_cli(capsys, "status",
                            "--state-dir", str(tmp_path))
        assert code == 0
        assert "STALE" in out

    def test_stats_prom_from_telemetry_stream(self, capsys, tmp_path):
        from repro.sim.session import run_session
        from repro.telemetry import TelemetryConfig
        stream = tmp_path / "out.jsonl"
        run_session(SessionConfig(
            app="Jelly Splash", governor="section+boost",
            duration_s=1.0, seed=0,
            telemetry=TelemetryConfig(jsonl_path=str(stream))))
        code, out = run_cli(capsys, "stats", str(stream),
                            "--format", "prom")
        assert code == 0
        families = parse_exposition(out)
        assert "repro_stream_events_total" in families
        assert families["repro_stream_sessions"]["samples"][
            ("repro_stream_sessions", ())] == 1
