"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_governor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--app", "Facebook", "--governor", "psychic"])

    def test_unknown_panel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--app", "Facebook", "--panel", "crt"])


class TestApps:
    def test_lists_all_thirty(self, capsys):
        code, out = run_cli(capsys, "apps")
        assert code == 0
        assert "Facebook" in out
        assert "Jelly Splash" in out
        assert out.count("general") >= 15
        assert out.count("game") >= 15


class TestTable:
    def test_galaxy_s3_table(self, capsys):
        code, out = run_cli(capsys, "table", "--panel", "galaxy-s3")
        assert code == 0
        assert "[0, 10) fps -> 20 Hz" in out
        assert "[35, inf) fps -> 60 Hz" in out

    def test_custom_rates(self, capsys):
        code, out = run_cli(capsys, "table", "--rates", "30,60,120")
        assert code == 0
        assert "30 Hz" in out and "120 Hz" in out
        # First threshold is r1/2 = 15.
        assert "[0, 15)" in out

    def test_invalid_custom_rates_exit_code(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "--rates", "60,60"])


class TestRun:
    def test_run_summary(self, capsys):
        code, out = run_cli(capsys, "run", "--app", "Facebook",
                            "--duration", "6", "--seed", "2")
        assert code == 0
        assert "mean power:" in out
        assert "mean refresh:" in out
        assert "Facebook" in out

    def test_run_with_oled(self, capsys):
        code, out = run_cli(capsys, "run", "--app", "Facebook",
                            "--duration", "6", "--oled")
        assert code == 0
        assert "emission" in out

    def test_unknown_app_exits_with_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--app", "Nonexistent", "--duration", "5"])


class TestCompare:
    def test_compare_table(self, capsys):
        code, out = run_cli(capsys, "compare", "--app", "Facebook",
                            "--duration", "8",
                            "--governors", "section")
        assert code == 0
        assert "fixed" in out
        assert "section" in out
        assert "saved mW" in out

    def test_telemetry_flag_rejected(self, capsys, tmp_path):
        # compare never captured a stream; the flag is not offered.
        stream = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--app", "Facebook", "--duration", "2",
                  "--telemetry", str(stream)])
        assert excinfo.value.code == 2
        assert not stream.exists()
        capsys.readouterr()


class TestExperiment:
    def test_listing(self, capsys):
        code, out = run_cli(capsys, "experiment")
        assert code == 0
        for experiment_id in ("fig2", "fig6", "table1"):
            assert experiment_id in out

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestExport:
    def test_writes_three_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "session")
        code, out = run_cli(capsys, "export", "--app", "Facebook",
                            "--duration", "6", "--out", prefix)
        assert code == 0
        assert (tmp_path / "session.json").exists()
        assert (tmp_path / "session_trace.csv").exists()
        assert (tmp_path / "session_events.csv").exists()


class TestScenario:
    def test_scenario_table(self, capsys):
        code, out = run_cli(capsys, "scenario",
                            "--apps", "KakaoTalk,Facebook",
                            "--segment-duration", "8")
        assert code == 0
        assert "KakaoTalk" in out and "Facebook" in out
        assert "total:" in out

    def test_oracle_not_offered(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "--apps", "Facebook",
                 "--governor", "oracle"])


class TestTelemetryCli:
    def test_run_with_telemetry_writes_stream(self, capsys, tmp_path):
        path = tmp_path / "out.jsonl"
        code, out = run_cli(capsys, "run", "--app", "Facebook",
                            "--duration", "10",
                            "--telemetry", str(path))
        assert code == 0
        assert "telemetry:" in out
        assert path.exists()
        lines = [line for line in path.read_text().splitlines() if line]
        assert lines, "stream must not be empty"

    def test_stats_summarizes_stream(self, capsys, tmp_path):
        path = tmp_path / "out.jsonl"
        run_cli(capsys, "run", "--app", "Facebook",
                "--duration", "10", "--telemetry", str(path))
        code, out = run_cli(capsys, "stats", str(path))
        assert code == 0
        assert "rate switches:" in out
        assert "touch boosts:" in out
        assert "span" in out

    def test_stats_rejects_garbage(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("definitely not json\n")
        with pytest.raises(SystemExit):
            main(["stats", str(path)])

    def test_stats_missing_file_exits_with_error(self, capsys,
                                                 tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", str(tmp_path / "absent.jsonl")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "absent.jsonl" in err

    def test_run_without_telemetry_prints_no_telemetry_line(
            self, capsys):
        code, out = run_cli(capsys, "run", "--app", "Facebook",
                            "--duration", "5")
        assert code == 0
        assert "telemetry:" not in out


class TestTraceCli:
    def test_gen_info_replay_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "idle.rptrace")
        code, out = run_cli(capsys, "trace", "gen", "--kind", "idle",
                            "--duration", "5", "--out", path)
        assert code == 0
        assert "generated idle trace" in out

        code, out = run_cli(capsys, "trace", "info", path)
        assert code == 0
        assert "repro-trace/1" in out
        assert "synthetic:idle" in out

        summary_path = tmp_path / "summary.json"
        code, out = run_cli(capsys, "trace", "replay", path,
                            "--summary-json", str(summary_path))
        assert code == 0
        assert "mean power:" in out
        import json as json_module
        summary = json_module.loads(summary_path.read_text())
        assert summary["app"] == "trace-idle"

    def test_record_then_replay(self, capsys, tmp_path):
        path = str(tmp_path / "fb.rptrace")
        code, out = run_cli(capsys, "trace", "record",
                            "--app", "Facebook", "--duration", "5",
                            "--seed", "2", "--out", path)
        assert code == 0
        assert "recorded" in out

        code, out = run_cli(capsys, "trace", "replay", path,
                            "--governor", "section")
        assert code == 0
        assert "section-based" in out

    def test_info_missing_file_exits_two(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "info", str(tmp_path / "nope.rptrace")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nope.rptrace" in err

    def test_info_corrupt_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "garbage.rptrace"
        path.write_bytes(b"REPROTRC" + b"\x00" * 20)
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "info", str(path)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_replay_unknown_governor_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "replay", "x.rptrace",
                 "--governor", "psychic"])

    def test_gen_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "gen", "--kind", "fire", "--out", "x"])


class TestErrorPaths:
    def test_non_numeric_rates_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "--rates", "30,abc"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "comma-separated" in err
