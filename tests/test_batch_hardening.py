"""Tests for error-isolated batch execution (`repro.sim.batch`)."""

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.sim.batch import (
    batch_failure_summary,
    format_batch_failures,
    is_failure_record,
    make_failure_record,
    run_batch,
)
from repro.sim.session import SessionConfig


def _configs(bad_index=None, n=3, duration_s=5.0):
    """N cheap configs; the one at ``bad_index`` names an unknown app."""
    configs = []
    for i in range(n):
        app = "NoSuchApp" if i == bad_index else "Facebook"
        configs.append(SessionConfig(app=app, governor="section",
                                     duration_s=duration_s, seed=i + 1))
    return configs


class TestFailureRecords:
    def test_make_failure_record_fields(self):
        config = SessionConfig(app="Facebook", governor="section",
                               duration_s=5.0, seed=7)
        error = WorkloadError("no such app",
                              context={"subsystem": "apps"})
        record = make_failure_record(2, config, error, attempts=3)
        assert record["batch_failed"] is True
        assert record["config_index"] == 2
        assert record["app"] == "Facebook"
        assert record["governor"] == "section"
        assert record["seed"] == 7
        assert record["duration_s"] == 5.0
        assert record["error_type"] == "WorkloadError"
        assert record["error_message"] == "no such app"
        assert record["context"] == {"subsystem": "apps"}
        assert record["attempts"] == 3

    def test_context_defaults_empty_for_plain_exceptions(self):
        config = SessionConfig(app="Facebook", duration_s=5.0)
        record = make_failure_record(0, config, ValueError("boom"),
                                     attempts=1)
        assert record["context"] == {}
        assert record["error_type"] == "ValueError"

    def test_is_failure_record(self):
        assert is_failure_record({"batch_failed": True})
        assert not is_failure_record({"app": "Facebook"})
        assert not is_failure_record({})

    def test_batch_failure_summary_counts(self):
        ok = {"app": "Facebook"}
        bad = {"batch_failed": True, "config_index": 1}
        summary = batch_failure_summary([ok, bad, ok])
        assert summary["total"] == 3
        assert summary["succeeded"] == 2
        assert summary["failed"] == 1
        assert summary["failures"] == [bad]

    def test_format_batch_failures(self):
        config = SessionConfig(app="Facebook", governor="section",
                               duration_s=5.0, seed=7)
        error = WorkloadError("no such app",
                              context={"subsystem": "apps"})
        record = make_failure_record(1, config, error, attempts=2)
        text = format_batch_failures([{"app": "ok"}, record])
        assert "1/2 sessions succeeded" in text
        assert "#1 Facebook" in text
        assert "WorkloadError: no such app" in text
        assert "subsystem=apps" in text
        assert "after 2 attempt(s)" in text


class TestBatchIsolation:
    @pytest.mark.parametrize("processes", [1, 2])
    def test_one_bad_config_isolated(self, processes):
        configs = _configs(bad_index=1)
        results = run_batch(configs, workers=processes)
        assert len(results) == 3
        assert not is_failure_record(results[0])
        assert is_failure_record(results[1])
        assert not is_failure_record(results[2])
        # Results stay in input order: seeds identify the configs.
        assert results[0]["seed"] == 1
        assert results[2]["seed"] == 3
        record = results[1]
        assert record["config_index"] == 1
        assert record["app"] == "NoSuchApp"
        assert record["error_type"] == "WorkloadError"
        assert record["attempts"] == 1

    def test_all_good_batch_has_no_failures(self):
        results = run_batch(_configs(), workers=1)
        summary = batch_failure_summary(results)
        assert summary["failed"] == 0
        assert summary["succeeded"] == 3

    def test_retries_counted_in_record(self):
        configs = _configs(bad_index=0, n=1)
        results = run_batch(configs, workers=1, retries=2)
        assert results[0]["attempts"] == 3

    def test_on_error_raise_propagates(self):
        configs = _configs(bad_index=1)
        with pytest.raises(WorkloadError):
            run_batch(configs, workers=1, on_error="raise")

    @pytest.mark.parametrize("processes", [1, 2])
    def test_serial_and_pooled_agree(self, processes):
        configs = _configs(bad_index=2, duration_s=4.0)
        results = run_batch(configs, workers=processes)
        record = results[2]
        assert is_failure_record(record)
        assert record["error_type"] == "WorkloadError"
        assert [is_failure_record(r) for r in results] == \
            [False, False, True]

    def test_summaries_match_serial_vs_pooled(self):
        configs = _configs(duration_s=4.0)
        serial = run_batch(configs, workers=1)
        pooled = run_batch(configs, workers=2)
        assert serial == pooled


class TestBatchValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch([])

    def test_bad_processes_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch(_configs(n=1), workers=0)

    def test_bad_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch(_configs(n=1), retries=-1)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch(_configs(n=1), timeout_s=0.0)

    def test_bad_on_error_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch(_configs(n=1), on_error="explode")
