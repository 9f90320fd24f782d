"""Tests for the service's observability plane.

Covers heartbeat staleness detection and the CLI surfaces: the
`status` staleness flag, `stats --format prom` over a telemetry
stream, and the exact `submit` echo line.
"""

import json
import time

import pytest

from repro.cli import main
from repro.service import ServicePaths
from repro.service.service import _health_staleness, service_status
from repro.sim.session import SessionConfig
from repro.telemetry.expose import parse_exposition


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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
    def test_submit_echoes_job_id(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "submit", "--state-dir", str(tmp_path),
            "--app", "Jelly Splash", "--duration", "1",
            "--job-id", "cli-job")
        assert code == 0
        job_path = ServicePaths(tmp_path).job_path("cli-job")
        assert out == f"submitted cli-job -> {job_path}\n"
        assert set(json.loads(job_path.read_text())) == {
            "schema", "job_id", "spec", "submitted_seq"}

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
