"""Tests for the durable session service (`repro.service`).

Covers the append-only journal, then the service itself run in-process
with ``until_idle``: correct byte-identical summaries, structured
failure records, rejected job files, retry exhaustion, deadlines, and
a job stopped mid-run that the next start reruns from its spec.

Byte-identity assertions always compare against an uninterrupted
in-process :func:`run_session` of the same spec; configs stay
untelemetered because telemetry spans carry wall-clock time.
"""

import asyncio
import json

import pytest

from repro.analysis.export import json_sanitize
from repro.errors import JournalError, ServiceError
from repro.ioutil import atomic_write_json
from repro.pipeline.spec import SessionSpec
from repro.service import (
    JobRequest,
    JobStatus,
    Journal,
    ServiceConfig,
    ServicePaths,
    SessionService,
    read_journal,
    submit_job,
)
from repro.service.jobs import load_result, write_result
from repro.service.journal import KNOWN_OPS
from repro.service.service import (
    backoff_delay_s,
    job_id_for_spec,
    next_submit_seq,
    service_status,
)
from repro.sim.batch import summarize_result
from repro.sim.session import SessionConfig, run_session


def _spec(app="Jelly Splash", duration_s=2.0, seed=0, **kw):
    return SessionSpec.from_config(SessionConfig(
        app=app, governor="section+boost", duration_s=duration_s,
        seed=seed, **kw))


def _job(job_id, spec, seq=0, deadline_s=None):
    return JobRequest(job_id=job_id, spec=spec.to_json_dict(),
                      deadline_s=deadline_s, submitted_seq=seq)


def _expected_summary_bytes(spec):
    summary = json_sanitize(summarize_result(run_session(spec.to_config())))
    return json.dumps(summary, sort_keys=True)


def _serve(state_dir, **overrides):
    """Run a service in-process until idle; returns its exit summary."""
    defaults = dict(state_dir=str(state_dir), workers=2,
                    slice_sleep_s=0.0, fsync_journal=False,
                    until_idle=True, max_runtime_s=120.0)
    defaults.update(overrides)
    service = SessionService(ServiceConfig(**defaults))
    return asyncio.run(service.serve())


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------

class TestJournal:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path, fsync=False)
        journal.append("service_start", workers=2)
        journal.append("job_ingested", job_id="j1")
        journal.close()
        state = read_journal(path)
        assert state.count("service_start") == 1
        assert state.count("job_ingested", job_id="j1") == 1
        assert [r["seq"] for r in state.records] == [0, 1]

    def test_seq_continues_across_incarnations(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = Journal(path, fsync=False)
        first.append("service_start")
        first.close()
        second = Journal(path, fsync=False)
        record = second.append("service_start")
        second.close()
        assert record["seq"] == 1

    def test_unknown_op_rejected(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl", fsync=False)
        with pytest.raises(JournalError):
            journal.append("not_a_real_op")
        journal.close()

    def test_torn_tail_does_not_lose_prior_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path, fsync=False)
        journal.append("service_start")
        journal.append("job_ingested", job_id="j1")
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        state = read_journal(path)
        assert state.count("service_start") == 1
        assert state.damage.damaged

    def test_reopen_heals_torn_tail_before_appending(self, tmp_path):
        # A torn final line must cost exactly one record: the next
        # incarnation's appends land on a fresh line, not welded onto
        # the torn garbage.
        path = tmp_path / "journal.jsonl"
        first = Journal(path, fsync=False)
        first.append("service_start")
        first.append("job_ingested", job_id="j1")
        first.close()
        path.write_bytes(path.read_bytes()[:-5])
        second = Journal(path, fsync=False)
        second.append("service_start")
        second.close()
        state = read_journal(path)
        assert state.count("service_start") == 2
        assert state.bad_lines == 1
        assert not state.torn_tail

    def test_retired_op_still_reads(self, tmp_path):
        # Ops retired from KNOWN_OPS stay readable, and a reopened
        # journal keeps appending after them.
        retired = ["breaker_open", "checkpoint_written",
                   "checkpoint_invalid", "job_parked", "job_resumed"]
        path = tmp_path / "journal.jsonl"
        path.write_text("".join(
            json.dumps({"op": op, "seq": seq, "job_id": "j0"}) + "\n"
            for seq, op in enumerate(retired)))
        state = read_journal(path)
        for op in retired:
            assert op not in KNOWN_OPS
            assert state.count(op, job_id="j0") == 1
        assert state.bad_lines == 0
        journal = Journal(path, fsync=False)
        record = journal.append("service_start")
        journal.close()
        assert record["seq"] == len(retired)
        state = read_journal(path)
        assert [r["op"] for r in state.records] == retired + [
            "service_start"]
        assert state.bad_lines == 0


# ----------------------------------------------------------------------
# Jobs, results, spool
# ----------------------------------------------------------------------

class TestJobsAndResults:
    def test_job_request_round_trip(self):
        job = _job("j1", _spec(), seq=3, deadline_s=9.0)
        assert JobRequest.from_json_dict(job.to_json_dict()) == job

    def test_unknown_key_rejected(self):
        doc = _job("j1", _spec()).to_json_dict()
        doc["surprise"] = True
        with pytest.raises(ServiceError):
            JobRequest.from_json_dict(doc)

    def test_bad_job_id_rejected(self):
        for bad in ("", ".hidden", "a/b", "x" * 101):
            with pytest.raises(ServiceError):
                _job(bad, _spec())

    def test_write_result_is_write_once(self, tmp_path):
        paths = ServicePaths(tmp_path).ensure()
        first = write_result(paths, "j1", JobStatus.DONE,
                             {"summary": {"v": 1}})
        second = write_result(paths, "j1", JobStatus.FAILED,
                              {"failure": {}})
        assert first is not None
        assert second is None
        assert load_result(paths, "j1")["summary"] == {"v": 1}

    def test_corrupt_result_raises(self, tmp_path):
        paths = ServicePaths(tmp_path).ensure()
        paths.result_path("j1").write_text("{broken")
        with pytest.raises(ServiceError):
            load_result(paths, "j1")

    def test_submit_refuses_duplicates(self, tmp_path):
        job = _job("dup", _spec())
        submit_job(tmp_path, job)
        with pytest.raises(ServiceError):
            submit_job(tmp_path, job)

    def test_submit_refuses_finished_job_id(self, tmp_path):
        paths = ServicePaths(tmp_path).ensure()
        write_result(paths, "done-job", JobStatus.DONE,
                     {"summary": {}})
        with pytest.raises(ServiceError):
            submit_job(tmp_path, _job("done-job", _spec()))

    def test_submit_seq_monotonic(self, tmp_path):
        assert next_submit_seq(tmp_path) == 0
        submit_job(tmp_path, _job("a", _spec(), seq=0))
        assert next_submit_seq(tmp_path) == 1

    def test_job_id_for_spec_is_content_addressed(self):
        spec = _spec()
        a = job_id_for_spec(spec.to_json_dict())
        b = job_id_for_spec(spec.to_json_dict())
        c = job_id_for_spec(_spec(seed=7).to_json_dict())
        assert a == b
        assert a != c
        assert a.startswith("job-")

    def test_backoff_is_exponential_and_capped(self):
        delays = [backoff_delay_s(n, 0.1, 1.0) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.0]


# ----------------------------------------------------------------------
# The service, in process
# ----------------------------------------------------------------------

class TestServiceRuns:
    def test_jobs_complete_with_byte_identical_summaries(self, tmp_path):
        specs = {"j0": _spec(seed=0), "j1": _spec(seed=1)}
        for seq, (job_id, spec) in enumerate(sorted(specs.items())):
            submit_job(tmp_path, _job(job_id, spec, seq=seq))
        exit_summary = _serve(tmp_path)
        assert exit_summary["jobs"]["done"] == 2
        paths = ServicePaths(tmp_path)
        for job_id, spec in specs.items():
            result = load_result(paths, job_id)
            assert result["status"] == JobStatus.DONE
            assert json.dumps(result["summary"], sort_keys=True) == \
                _expected_summary_bytes(spec)

    def test_bad_spec_fails_with_structured_record(self, tmp_path):
        doc = _spec().to_json_dict()
        doc["app"] = "NoSuchAppAnywhere"
        submit_job(tmp_path, JobRequest(
            job_id="bad", spec=doc, deadline_s=None, submitted_seq=0))
        exit_summary = _serve(tmp_path, max_attempts=1)
        assert exit_summary["jobs"]["failed"] == 1
        result = load_result(ServicePaths(tmp_path), "bad")
        assert result["status"] == JobStatus.FAILED
        assert result["failure"]["error_type"] == "WorkloadError"
        assert result["failure"]["attempts"] == 1

    def test_undecodable_job_file_terminalizes(self, tmp_path):
        # Job files the strict decoder refuses, or whose job_id is not
        # their file name, are input refusals: rejected, never run.
        paths = ServicePaths(tmp_path).ensure()
        paths.job_path("mangled").write_text("{not json")
        atomic_write_json(paths.job_path("renamed"),
                          _job("other-id", _spec()).to_json_dict())
        exit_summary = _serve(tmp_path)
        assert exit_summary["jobs"]["rejected"] == 2
        assert exit_summary["jobs"]["failed"] == 0
        journal = read_journal(paths.journal_path)
        for job_id in ("mangled", "renamed"):
            result = load_result(paths, job_id)
            assert result["status"] == JobStatus.REJECTED
            assert result["failure"]["attempts"] == 0
            assert journal.count("job_rejected", job_id=job_id) == 1

    def test_failing_jobs_retry_then_exhaust(self, tmp_path):
        doc = _spec().to_json_dict()
        doc["app"] = "NoSuchAppAnywhere"
        submit_job(tmp_path, JobRequest(
            job_id="retry", spec=doc, deadline_s=None, submitted_seq=0))
        _serve(tmp_path, max_attempts=3, backoff_base_s=0.0)
        result = load_result(ServicePaths(tmp_path), "retry")
        assert result["failure"]["attempts"] == 3
        journal = read_journal(ServicePaths(tmp_path).journal_path)
        assert journal.count("attempt_start", job_id="retry") == 3
        assert journal.count("attempt_failed", job_id="retry") == 3

    def test_deadline_fails_job_with_timeout(self, tmp_path):
        submit_job(tmp_path, _job("slow", _spec(duration_s=30.0),
                                  deadline_s=0.2))
        exit_summary = _serve(tmp_path, max_attempts=1,
                              slice_s=0.5, slice_sleep_s=0.05)
        assert exit_summary["jobs"]["failed"] == 1
        result = load_result(ServicePaths(tmp_path), "slow")
        assert result["failure"]["error_type"] == "TimeoutError"

    def test_stopped_job_reruns_byte_identical(self, tmp_path):
        spec = _spec(duration_s=6.0)
        submit_job(tmp_path, _job("stopme", spec))

        async def serve_then_shutdown():
            config = ServiceConfig(
                state_dir=str(tmp_path), workers=1,
                slice_s=1.0, slice_sleep_s=0.05, fsync_journal=False,
                max_runtime_s=60.0)
            service = SessionService(config)
            task = asyncio.ensure_future(service.serve())
            # A worker yields only between slices, so an in-flight job
            # seen here has run at least one slice.
            for _ in range(2000):
                if service.in_flight:
                    break
                await asyncio.sleep(0.005)
            assert service.in_flight == 1
            service.request_shutdown()
            return await task

        exit_summary = asyncio.run(serve_then_shutdown())
        paths = ServicePaths(tmp_path)
        assert load_result(paths, "stopme") is None
        assert exit_summary["jobs"]["pending"] >= 1
        assert not (tmp_path / "checkpoints").exists()

        # The next start reruns the stopped job from its spec.
        _serve(tmp_path)
        result = load_result(paths, "stopme")
        assert result["status"] == JobStatus.DONE
        assert json.dumps(result["summary"], sort_keys=True) == \
            _expected_summary_bytes(spec)
        journal = read_journal(paths.journal_path)
        assert journal.count("attempt_start", job_id="stopme") == 2
        assert journal.count("job_done", job_id="stopme") == 1


class TestControlAndStatus:
    def test_offline_status_classifies_jobs(self, tmp_path):
        paths = ServicePaths(tmp_path).ensure()
        submit_job(tmp_path, _job("pending-job", _spec(), seq=0))
        submit_job(tmp_path, _job("done-job", _spec(seed=1), seq=1))
        write_result(paths, "done-job", JobStatus.DONE, {"summary": {}})
        # Files an older version left in checkpoints/ and control/ are
        # ignored: a job without a result is pending.
        submit_job(tmp_path, _job("old-job", _spec(seed=2), seq=2))
        for leftover in ("checkpoints/old-job.json", "control/stop"):
            (tmp_path / leftover).parent.mkdir()
            (tmp_path / leftover).write_text("{}")
        status = service_status(tmp_path)
        jobs = {j["job_id"]: j["status"] for j in status["jobs"]}
        assert jobs == {"pending-job": "pending", "done-job": "done",
                        "old-job": "pending"}
        assert status["counts"] == {"pending": 2, "done": 1,
                                    "failed": 0, "rejected": 0}

    def test_health_file_written(self, tmp_path):
        submit_job(tmp_path, _job("j0", _spec()))
        _serve(tmp_path)
        health = json.loads(
            ServicePaths(tmp_path).health_path.read_text())
        assert health["schema"] == "repro-health/1"
        assert health["state"] == "stopped"
        assert health["jobs"]["done"] == 1
        # Each event is counted once, under its service.* name.
        counters = health["metrics"]["counters"]
        assert counters["service.attempts"] == 1
        assert counters["service.jobs_done"] == 1
        assert "worker.attempts" not in counters
        assert "worker.jobs_done" not in counters

    def test_service_config_validation(self, tmp_path):
        with pytest.raises(ServiceError):
            ServiceConfig(state_dir=str(tmp_path), workers=0)
