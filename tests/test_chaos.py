"""Chaos tests: induced crashes must salvage, never corrupt.

Three layers:

* the batch pool — a worker SIGKILLed mid-batch costs exactly its own
  config; the survivors' results stay byte-identical to a serial run
  (the merge is deterministic even through a crash);
* checkpoint damage — a torn write, bit rot and a forged state digest
  each render a checkpoint unusable (``CheckpointError``);
* an in-process service recovery — a corrupted checkpoint is detected
  (``checkpoint_invalid``), discarded, and the job restarted from
  scratch with a byte-identical summary.

A torn journal tail is covered by ``test_service.py::TestJournal``.

Process-pool tests use ``fork`` so the parent's monkeypatches reach
the workers (spawn re-imports the module pristine).
"""

import json
import os
import random
import signal

import pytest

import repro.sim.batch as batch
from repro.errors import CheckpointError
from repro.pipeline.spec import SessionSpec
from repro.service import (
    JobRequest,
    JobStatus,
    ServicePaths,
    read_journal,
    submit_job,
)
from repro.service.jobs import load_result
from repro.sim.batch import (
    batch_failure_summary,
    is_failure_record,
    run_batch,
)
from repro.sim.runner import SessionRunner, load_checkpoint
from repro.sim.session import SessionConfig


def _configs(n=4, duration_s=2.0):
    return [SessionConfig(app="Jelly Splash", governor="section+boost",
                          duration_s=duration_s, seed=i)
            for i in range(n)]


def _corrupt_checkpoint(path, mode):
    """Damage a checkpoint file in place: ``truncate`` keeps the first
    half of the bytes (torn write), ``garbage`` overwrites 32 middle
    bytes with seeded noise (bit rot), ``digest`` rewrites the JSON
    with a flipped state digest (structurally valid, semantically a
    lie)."""
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[:len(data) // 2])
    elif mode == "garbage":
        rng = random.Random(3)
        noise = bytes(rng.randrange(256) for _ in range(32))
        middle = len(data) // 2
        path.write_bytes(data[:middle] + noise + data[middle + 32:])
    else:
        document = json.loads(data)
        digest = document["digest"]
        document["digest"] = digest[:-8] + (
            "f" * 8 if digest.endswith("0" * 8) else "0" * 8)
        path.write_text(json.dumps(document))


_REAL_PAYLOAD = batch._session_payload


def _sigkill_seed_99(config, capture):
    # A real SIGKILL (not a clean exit): the kernel tears the worker
    # down with no Python cleanup, the hardest crash the pool can see.
    if config.seed == 99:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_PAYLOAD(config, capture)


class TestPooledWorkerSigkill:
    def test_sigkill_mid_batch_salvages_survivors(self, monkeypatch):
        monkeypatch.setattr(batch, "_session_payload",
                            _sigkill_seed_99)
        configs = _configs()
        victim = configs[1]
        configs[1] = SessionConfig(
            app=victim.app, governor=victim.governor,
            duration_s=victim.duration_s, seed=99)
        results = run_batch(configs, workers=2, mp_context="fork",
                            chunksize=1)
        assert [is_failure_record(r) for r in results] == \
            [False, True, False, False]
        record = results[1]
        assert record["error_type"] == "WorkerCrashError"
        assert record["config_index"] == 1
        summary = batch_failure_summary(results)
        assert summary["counters"]["batch.worker_crashes"] == 1
        # Survivors are byte-identical to an uncontested serial run —
        # the crash must not perturb the deterministic merge.
        innocents = [configs[0], configs[2], configs[3]]
        serial = run_batch(innocents, workers=1)
        survivors = [results[0], results[2], results[3]]
        assert json.dumps(survivors, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)


class TestDamageHelpers:
    def _checkpoint(self, tmp_path):
        runner = SessionRunner(_configs(n=1)[0])
        runner.advance(0.5)
        path = tmp_path / "ckpt.json"
        runner.save_checkpoint(path, job_id="j1")
        return path

    @pytest.mark.parametrize("mode",
                             ["truncate", "garbage", "digest"])
    def test_every_corruption_mode_is_detected(self, tmp_path, mode):
        path = self._checkpoint(tmp_path)
        _corrupt_checkpoint(path, mode)
        if mode == "digest":
            # Structurally valid JSON: the lie only surfaces when the
            # replayed state digest is compared.
            from repro.sim.runner import resume_runner
            with pytest.raises(CheckpointError):
                resume_runner(load_checkpoint(path))
        else:
            with pytest.raises(CheckpointError):
                load_checkpoint(path)


class TestServiceRecoversFromCorruptCheckpoint:
    def test_corrupt_checkpoint_restarts_job_from_scratch(
            self, tmp_path):
        import asyncio

        from repro.analysis.export import json_sanitize
        from repro.service import ServiceConfig, SessionService
        from repro.sim.batch import summarize_result
        from repro.sim.session import run_session

        config = _configs(n=1, duration_s=2.0)[0]
        spec = SessionSpec.from_config(config)
        submit_job(tmp_path, JobRequest(
            job_id="hurt", spec=spec.to_json_dict(),
            deadline_s=None, submitted_seq=0))
        # Plant a corrupted checkpoint where the service will look.
        paths = ServicePaths(tmp_path).ensure()
        runner = SessionRunner(config)
        runner.advance(1.0)
        runner.save_checkpoint(paths.checkpoint_path("hurt"),
                               job_id="hurt")
        _corrupt_checkpoint(paths.checkpoint_path("hurt"), "garbage")

        service = SessionService(ServiceConfig(
            state_dir=str(tmp_path), workers=1, slice_sleep_s=0.0,
            fsync_journal=False, until_idle=True, max_runtime_s=60.0))
        asyncio.run(service.serve())

        result = load_result(paths, "hurt")
        assert result["status"] == JobStatus.DONE
        expected = json_sanitize(summarize_result(run_session(config)))
        assert json.dumps(result["summary"], sort_keys=True) == \
            json.dumps(expected, sort_keys=True)
        journal = read_journal(paths.journal_path)
        assert journal.count("checkpoint_invalid", job_id="hurt") == 1
        assert journal.count("job_done", job_id="hurt") == 1
