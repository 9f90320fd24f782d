"""Tests for the `repro bench` harness and its regression gate."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    compare_bench,
    format_bench,
    load_bench,
    run_bench,
    write_bench,
)
from repro.errors import ConfigurationError

METRICS = ("meter_compare_9k_s", "spec_roundtrip_s",
           "native_session_s", "trace_replay_s",
           "batch32_workers1_s", "batch32_workersN_s",
           "batch32_speedup_x", "expose_render_s",
           "sweep_warm_vs_cold_x",
           "tournament_small_s")


def _document(fast=False, **values):
    metrics = {}
    for name in METRICS:
        metrics[name] = {
            "value": values.get(name, 1.0),
            "unit": "x" if name.endswith("_x") else "s",
            "higher_is_better": name.endswith("_x"),
        }
    return {"schema": BENCH_SCHEMA, "rev": "test", "python": "3.11",
            "cpu_count": 4, "workers": 4, "fast": fast,
            "sessions": 32, "metrics": metrics}


class TestRunBench:
    @pytest.fixture(scope="class")
    def bench(self):
        return run_bench(workers=1, fast=True)

    def test_document_schema(self, bench):
        assert bench["schema"] == BENCH_SCHEMA
        assert bench["fast"] is True
        assert set(bench["metrics"]) == set(METRICS)
        for metric in bench["metrics"].values():
            assert metric["value"] > 0
            assert isinstance(metric["higher_is_better"], bool)

    def test_document_round_trips_through_json(self, bench, tmp_path):
        path = write_bench(bench, tmp_path / "bench.json")
        assert load_bench(path) == json.loads(
            json.dumps(bench))

    def test_format_is_human_table(self, bench):
        text = format_bench(bench)
        assert "repro bench" in text
        for name in METRICS:
            assert name in text

    def test_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError):
            run_bench(workers=0)


class TestCompareBench:
    def test_identical_documents_pass(self):
        assert compare_bench(_document(), _document()) == []

    def test_small_drift_passes(self):
        current = _document(native_session_s=1.15,
                            batch32_speedup_x=0.85)
        assert compare_bench(current, _document(), threshold=0.2) == []

    def test_lower_is_better_regression_fails(self):
        current = _document(native_session_s=1.3)
        regressions = compare_bench(current, _document(),
                                    threshold=0.2)
        assert [r["metric"] for r in regressions] == \
            ["native_session_s"]
        assert "rose to" in regressions[0]["message"]

    def test_higher_is_better_regression_fails(self):
        current = _document(batch32_speedup_x=0.7)
        regressions = compare_bench(current, _document(),
                                    threshold=0.2)
        assert [r["metric"] for r in regressions] == \
            ["batch32_speedup_x"]
        assert "fell to" in regressions[0]["message"]

    def test_missing_metric_is_a_regression(self):
        current = _document()
        del current["metrics"]["meter_compare_9k_s"]
        regressions = compare_bench(current, _document())
        assert [r["metric"] for r in regressions] == \
            ["meter_compare_9k_s"]

    def test_extra_current_metric_is_fine(self):
        current = _document()
        current["metrics"]["new_metric_s"] = {
            "value": 1.0, "unit": "s", "higher_is_better": False}
        assert compare_bench(current, _document()) == []

    def test_fast_vs_full_refused(self):
        with pytest.raises(ConfigurationError):
            compare_bench(_document(fast=True), _document())

    def test_unknown_schema_refused(self):
        broken = _document()
        broken["schema"] = "repro-bench/999"
        with pytest.raises(ConfigurationError):
            compare_bench(broken, _document())

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_bench(_document(), _document(), threshold=0.0)


class TestCli:
    def test_bench_check_gate_exit_codes(self, tmp_path, capsys):
        from repro.cli import main
        baseline = tmp_path / "baseline.json"
        write_bench(run_bench(workers=1, fast=True), baseline)
        assert main(["bench", "--fast", "--workers", "1",
                     "--threshold", "10.0",
                     "--check", str(baseline)]) == 0
        assert "bench gate: OK" in capsys.readouterr().err

        strict = load_bench(baseline)
        for metric in strict["metrics"].values():
            metric["value"] = (metric["value"] * 1e6
                               if metric["higher_is_better"]
                               else metric["value"] / 1e6)
        write_bench(strict, baseline)
        assert main(["bench", "--fast", "--workers", "1",
                     "--check", str(baseline)]) == 1
        assert "bench gate: FAIL" in capsys.readouterr().err


class TestCoreAwareGate:
    """The parallel metrics only gate when the cores back them up."""

    def _docs(self, base_cores, cur_cores, speedup=0.25):
        baseline = _document(batch32_speedup_x=4.0,
                             batch32_workersN_s=1.0)
        baseline["cpu_count"] = base_cores
        current = _document(batch32_speedup_x=speedup,
                            batch32_workersN_s=100.0)
        current["cpu_count"] = cur_cores
        return current, baseline

    def test_single_core_baseline_gates_nothing_parallel(self):
        from repro.bench import gate_skips
        current, baseline = self._docs(base_cores=1, cur_cores=8)
        assert compare_bench(current, baseline) == []
        skips = {s["metric"] for s in gate_skips(current, baseline)}
        assert skips == {"batch32_workersN_s", "batch32_speedup_x"}

    def test_core_downgrade_skips_parallel_metrics(self):
        current, baseline = self._docs(base_cores=8, cur_cores=1)
        assert compare_bench(current, baseline) == []

    def test_enough_cores_still_gate(self):
        current, baseline = self._docs(base_cores=4, cur_cores=4)
        regressed = {r["metric"] for r in
                     compare_bench(current, baseline)}
        assert "batch32_speedup_x" in regressed
        assert "batch32_workersN_s" in regressed

    def test_serial_metrics_always_gate(self):
        current, baseline = self._docs(base_cores=1, cur_cores=1)
        current["metrics"]["native_session_s"]["value"] = 1e6
        regressed = {r["metric"] for r in
                     compare_bench(current, baseline)}
        assert regressed == {"native_session_s"}

    def test_report_annotates_skipped_metrics(self):
        """A skipped metric must not print a misleading delta."""
        current, baseline = self._docs(base_cores=1, cur_cores=8)
        text = format_bench(current, baseline)
        for line in text.splitlines():
            if "batch32_speedup_x" in line or \
                    "batch32_workersN_s" in line:
                assert "SKIPPED (core-aware)" in line
                assert "%" not in line
            elif "native_session_s" in line:
                assert "SKIPPED" not in line
                assert "%" in line

    def test_report_unskipped_has_no_annotation(self):
        current, baseline = self._docs(base_cores=4, cur_cores=4)
        assert "SKIPPED" not in format_bench(current, baseline)


class TestPerMetricThresholds:
    def test_override_loosens_one_metric_only(self):
        baseline = _document()
        current = _document(native_session_s=1.5,
                            trace_replay_s=1.5)
        loose = compare_bench(
            current, baseline,
            metric_thresholds={"native_session_s": 0.6,
                               "trace_replay_s": 0.6})
        assert loose == []
        strict = {r["metric"] for r in compare_bench(current, baseline)}
        assert strict == {"native_session_s", "trace_replay_s"}

    def test_override_can_tighten(self):
        baseline = _document()
        current = _document(native_session_s=1.1)
        regressed = compare_bench(
            current, baseline,
            metric_thresholds={"native_session_s": 0.05})
        assert [r["metric"] for r in regressed] == ["native_session_s"]

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_bench(_document(), _document(),
                          metric_thresholds={"native_session_s": 0.0})

    def test_cli_metric_threshold_flag(self, tmp_path, capsys):
        from repro.cli import main
        baseline_path = tmp_path / "baseline.json"
        document = run_bench(workers=1, fast=True)
        write_bench(document, baseline_path)
        # Shrink one serial metric in the baseline so it regresses by
        # ~1000x, far beyond any timing noise; the default threshold is
        # kept huge so every other metric passes regardless of load.
        loaded = load_bench(baseline_path)
        loaded["metrics"]["meter_compare_9k_s"]["value"] /= 1000.0
        write_bench(loaded, baseline_path)
        assert main(["bench", "--fast", "--workers", "1",
                     "--threshold", "50.0",
                     "--check", str(baseline_path)]) == 1
        assert "bench gate: FAIL" in capsys.readouterr().err
        assert main(["bench", "--fast", "--workers", "1",
                     "--threshold", "50.0",
                     "--check", str(baseline_path),
                     "--metric-threshold",
                     "meter_compare_9k_s=10000.0"]) == 0
        assert "bench gate: OK" in capsys.readouterr().err

    def test_cli_rejects_malformed_override(self, tmp_path):
        from repro.cli import main
        baseline_path = tmp_path / "baseline.json"
        write_bench(run_bench(workers=1, fast=True), baseline_path)
        with pytest.raises(SystemExit):
            main(["bench", "--fast", "--workers", "1",
                  "--check", str(baseline_path),
                  "--metric-threshold", "nonsense"])
