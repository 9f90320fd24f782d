"""Chaos tests: induced crashes must salvage, never corrupt.

The batch pool: a worker SIGKILLed mid-batch costs exactly its own
config; the survivors' results stay byte-identical to a serial run
(the merge is deterministic even through a crash).

A torn journal tail is covered by ``test_service.py::TestJournal``, a
service job stopped mid-run and rerun from its spec by
``test_service.py::TestServiceRuns``, and a checkpoint document whose
digest lies by ``test_checkpoint.py::TestCheckpointValidation``.

Process-pool tests use ``fork`` so the parent's monkeypatches reach
the workers (spawn re-imports the module pristine).
"""

import json
import os
import signal

import repro.sim.batch as batch
from repro.sim.batch import (
    batch_failure_summary,
    is_failure_record,
    run_batch,
)
from repro.sim.session import SessionConfig


def _configs():
    return [SessionConfig(app="Jelly Splash", governor="section+boost",
                          duration_s=2.0, seed=i)
            for i in range(4)]


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

