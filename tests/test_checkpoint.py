"""Checkpoint/resume round-trip tests (`repro.sim.runner`).

The core property: a session paused at *any* frame boundary and
resumed from its in-memory checkpoint document produces a summary
byte-identical to an uninterrupted run.  The checkpoint carries no
simulator state — only the spec, the resume point, and a state
digest — so the property holds exactly when deterministic replay
holds; these tests sweep every boundary of a short session to pin
that down, for plain, faulted, and pooled execution.  Validation is
strict, and a document whose digest or event count lies fails to
resume.

Configs stay untelemetered: telemetry spans carry wall-clock times,
which are the one legitimately nondeterministic output.
"""

import json

import pytest

from repro.errors import CheckpointError
from repro.faults.plan import FaultPlan
from repro.pipeline.spec import SessionSpec
from repro.sim.batch import run_batch, summarize_result
from repro.sim.runner import (
    SessionRunner,
    resume_runner,
    validate_checkpoint,
)
from repro.sim.session import SessionConfig, run_session

FRAME_S = 1.0 / 60.0


def _config(duration_s=1.0, seed=0, faults=False):
    plan = (FaultPlan(panel_refuse=0.2, touch_drop=0.2, seed=seed)
            if faults else None)
    return SessionConfig(app="Jelly Splash", governor="section+boost",
                         duration_s=duration_s, seed=seed, faults=plan)


def _summary_bytes(result):
    return json.dumps(summarize_result(result), sort_keys=True)


class TestEveryFrameBoundary:
    @pytest.mark.parametrize("faults", [False, True],
                             ids=["plain", "faulted"])
    def test_resume_at_every_boundary_matches_uninterrupted(
            self, faults):
        config = _config(faults=faults)
        reference = _summary_bytes(run_session(config))
        boundaries = int(round(config.duration_s / FRAME_S))
        walker = SessionRunner(config)
        for index in range(1, boundaries):
            walker.advance(index * FRAME_S)
            document = walker.checkpoint_document()
            resumed = resume_runner(document)
            assert resumed.now == pytest.approx(walker.now)
            assert _summary_bytes(resumed.finish()) == reference, \
                f"divergence resuming at boundary {index}"
        # The walker itself — which advanced one frame at a time —
        # must also land on the identical summary.
        assert _summary_bytes(walker.finish()) == reference

    def test_resume_matches_pooled_batch_output(self):
        # The pooled path must agree with a checkpoint-resumed run:
        # summaries from run_batch workers are byte-identical to what
        # a kill-and-resume at an arbitrary boundary produces.
        configs = [_config(seed=s) for s in (0, 1)]
        pooled = run_batch(configs, workers=2, mp_context="fork",
                           chunksize=1)
        for config, expected in zip(configs, pooled):
            runner = SessionRunner(config)
            runner.advance(17 * FRAME_S)
            resumed = resume_runner(runner.checkpoint_document())
            assert _summary_bytes(resumed.finish()) == \
                json.dumps(expected, sort_keys=True)


class TestCheckpointFiles:
    def test_checkpoint_has_no_wall_clock_fields(self):
        runner = SessionRunner(_config())
        runner.advance(0.1)
        document = runner.checkpoint_document()
        assert set(document) == {"schema", "spec", "sim_time_s",
                                 "events_processed", "digest"}
        assert document["digest"].startswith("sha256:")

    def test_checkpoint_documents_are_deterministic(self):
        first = SessionRunner(_config())
        second = SessionRunner(_config())
        first.advance(0.25)
        second.advance(0.25)
        assert first.checkpoint_document() == \
            second.checkpoint_document()


class TestCheckpointValidation:
    def _document(self):
        runner = SessionRunner(_config())
        runner.advance(0.1)
        return runner.checkpoint_document()

    def test_missing_key_rejected(self):
        document = self._document()
        del document["digest"]
        with pytest.raises(CheckpointError):
            validate_checkpoint(document, where="test")

    def test_unknown_key_rejected(self):
        document = self._document()
        document["extra"] = 1
        with pytest.raises(CheckpointError):
            validate_checkpoint(document, where="test")

    def test_wrong_schema_rejected(self):
        document = self._document()
        document["schema"] = "repro-checkpoint/99"
        with pytest.raises(CheckpointError):
            validate_checkpoint(document, where="test")

    def test_digest_lie_detected_on_resume(self):
        document = self._document()
        document["digest"] = "sha256:" + "0" * 64
        with pytest.raises(CheckpointError):
            resume_runner(document)

    def test_wrong_event_count_detected_on_resume(self):
        document = self._document()
        document["events_processed"] += 1
        with pytest.raises(CheckpointError):
            resume_runner(document)


class TestRunnerSemantics:
    def test_run_equals_run_session(self):
        config = _config()
        assert _summary_bytes(SessionRunner(config).run()) == \
            _summary_bytes(run_session(config))

    def test_spec_source_equivalent_to_config(self):
        config = _config()
        spec = SessionSpec.from_config(config)
        assert _summary_bytes(SessionRunner(spec.to_config()).run()) == \
            _summary_bytes(run_session(config))

    def test_advance_past_duration_clamps(self):
        runner = SessionRunner(_config())
        runner.advance(99.0)
        assert runner.now == pytest.approx(1.0)
        assert runner.done

    def test_finish_is_idempotent(self):
        runner = SessionRunner(_config())
        first = runner.finish()
        assert runner.finish() is first

    def test_checkpoint_after_finish_rejected(self):
        runner = SessionRunner(_config())
        runner.run()
        with pytest.raises(CheckpointError):
            runner.checkpoint_document()
