"""The governor tournament: determinism, caching, fast-forward, probe.

The tournament's contract is the sweep's, generalized: the
``repro-tournament/1`` document is a pure function of the config —
byte-identical across runs, worker counts, skipped ticks, cache state,
and trace-file locations — while everything nondeterministic lives in
the separate stats document.
"""

import json
import pathlib

import pytest

from repro.cache import ResultCache
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.experiments import tournament
from repro.experiments.tournament import (
    BASELINE,
    TOURNAMENT_SCHEMA,
    TournamentConfig,
    format_tournament,
    probe_trace,
    run_tournament,
)
from repro.sim.session import GOVERNOR_CHOICES
from repro.traces import profile

#: A tournament small enough for tests, wide enough to be honest:
#: every registered governor, two catalog apps, one synthetic trace.
SMALL = dict(apps=("Facebook", "Jelly Splash"),
             trace_kinds=("video",),
             duration_s=3.0, trace_duration_s=3.0)


@pytest.fixture(scope="module")
def small_document():
    return run_tournament(TournamentConfig(**SMALL), workers=1)


def canonical(document):
    return json.dumps(document, sort_keys=True)


class TestDeterminism:
    def test_two_runs_byte_identical(self, small_document):
        again = run_tournament(TournamentConfig(**SMALL), workers=1)
        assert canonical(small_document) == canonical(again)

    def test_pooled_run_byte_identical(self, small_document):
        pooled = run_tournament(TournamentConfig(**SMALL), workers=2)
        assert canonical(small_document) == canonical(pooled)

    def test_engines_byte_identical(self, small_document):
        # Catalog cells skip the ticks the fast-forward proves inert;
        # firing every tick gives the same bytes.
        from .reference import reference_path

        with reference_path():
            reference = run_tournament(TournamentConfig(**SMALL),
                                       workers=1)
        assert canonical(small_document) == canonical(reference)

    def test_workdir_never_leaks_into_document(self, tmp_path,
                                               small_document):
        pinned = run_tournament(TournamentConfig(**SMALL), workers=1,
                                workdir=str(tmp_path / "traces"))
        assert canonical(small_document) == canonical(pinned)
        assert str(tmp_path) not in canonical(pinned)


class TestTraceCacheEviction:
    def test_temp_dir_traces_leave_the_decode_cache(self, monkeypatch):
        workdirs = []
        write = tournament._trace_workloads

        def recording(config, workdir):
            workdirs.append(workdir)
            return write(config, workdir)

        monkeypatch.setattr(tournament, "_trace_workloads", recording)
        config = TournamentConfig(governors=("fixed", "section"),
                                  apps=("Facebook",),
                                  trace_kinds=("video", "scroll"),
                                  duration_s=2.0, trace_duration_s=2.0)
        for _ in range(2):
            run_tournament(config, workers=1)
        assert len(workdirs) == 2
        assert not [key for key in profile._CACHE
                    for workdir in workdirs
                    if pathlib.Path(key).is_relative_to(workdir)]


class TestCaching:
    def test_warm_rerun_all_hits(self, tmp_path, small_document):
        cache_dir = tmp_path / "cache"
        cold_cache = ResultCache(cache_dir)
        cold = run_tournament(TournamentConfig(**SMALL), workers=1,
                              cache=cold_cache)
        cold_stats = cold_cache.stats_dict()
        catalog_cells = len(GOVERNOR_CHOICES) * len(SMALL["apps"])
        assert cold_stats["hits"] == 0
        assert cold_stats["misses"] == catalog_cells

        warm_cache = ResultCache(cache_dir)
        warm = run_tournament(TournamentConfig(**SMALL), workers=1,
                              cache=warm_cache)
        warm_stats = warm_cache.stats_dict()
        assert warm_stats["misses"] == 0
        assert warm_stats["hits"] == catalog_cells
        assert canonical(cold) == canonical(warm)
        assert canonical(small_document) == canonical(warm)


class TestDocument:
    def test_schema_and_coverage(self, small_document):
        assert small_document["schema"] == TOURNAMENT_SCHEMA
        assert tuple(small_document["governors"]) == GOVERNOR_CHOICES
        assert len(small_document["governors"]) >= 7
        workloads = small_document["workloads"]
        assert "app:Facebook" in workloads
        assert "synth:video" in workloads
        assert len(small_document["cells"]) == \
            len(GOVERNOR_CHOICES) * len(workloads)

    def test_leaderboard_ranked_by_power(self, small_document):
        board = small_document["leaderboard"]
        assert [row["rank"] for row in board] == \
            list(range(1, len(board) + 1))
        powers = [row["mean_power_mw"] for row in board]
        assert powers == sorted(powers)
        by_name = {row["governor"]: row for row in board}
        assert by_name[BASELINE]["savings_vs_fixed_pct"] == \
            pytest.approx(0.0)
        # Every governed policy saves power over fixed-60 on this
        # workload mix.
        for row in board:
            if row["governor"] != BASELINE:
                assert row["savings_vs_fixed_pct"] > 0

    def test_luminance_probe_dark_beats_light(self, small_document):
        probe = small_document["luminance_probe"]
        assert probe["governor"] == "luminance"
        assert probe["dark_below_light"] is True
        assert probe["dark"]["mean_power_mw"] < \
            probe["light"]["mean_power_mw"]
        # The dark frame also tolerates a lower refresh rate — the
        # SmartNight coupling, not just the emission model.
        assert probe["dark"]["mean_refresh_hz"] <= \
            probe["light"]["mean_refresh_hz"]

    def test_format_renders_leaderboard(self, small_document):
        text = format_tournament(small_document)
        assert "tournament:" in text
        for governor in GOVERNOR_CHOICES:
            assert governor in text
        assert "dark < light" in text


class TestProbeTrace:
    def test_probe_pair_is_deterministic(self):
        first = probe_trace(True, duration_s=3.0, seed=1)
        second = probe_trace(True, duration_s=3.0, seed=1)
        assert first.frame_count == second.frame_count
        assert [r.payload for r in first.records] == \
            [r.payload for r in second.records]

    def test_probe_pair_differs_only_in_emission(self):
        dark = probe_trace(True, duration_s=3.0, seed=1)
        light = probe_trace(False, duration_s=3.0, seed=1)
        assert dark.frame_count == light.frame_count
        assert [r.time for r in dark.records] == \
            [r.time for r in light.records]


class TestValidation:
    def test_unknown_trace_kind(self):
        with pytest.raises(ConfigurationError):
            TournamentConfig(trace_kinds=("cartoon",))

    def test_unknown_governor(self):
        config = TournamentConfig(governors=("no-such-governor",),
                                  **SMALL)
        with pytest.raises(ConfigurationError):
            config.resolve_governors()

    def test_baseline_required(self):
        config = TournamentConfig(governors=("section",), **SMALL)
        with pytest.raises(ConfigurationError):
            run_tournament(config)

    def test_needs_some_workload(self):
        with pytest.raises(ConfigurationError):
            TournamentConfig(apps=(), trace_kinds=())


class TestCli:
    def test_cli_roundtrip_and_check(self, tmp_path, capsys):
        out = tmp_path / "tournament.json"
        argv = ["tournament", "--apps", "Facebook",
                "--traces", "video", "--duration", "2",
                "--trace-duration", "2", "--no-probe",
                "--out", str(out)]
        assert cli_main(argv) == 0
        document = json.loads(out.read_text())
        assert document["schema"] == TOURNAMENT_SCHEMA
        assert document["luminance_probe"] is None
        capsys.readouterr()
        assert cli_main(argv + ["--check", str(out)]) == 0
        assert "tournament check: OK" in capsys.readouterr().out

    def test_cli_check_fails_on_drift(self, tmp_path, capsys):
        out = tmp_path / "tournament.json"
        argv = ["tournament", "--apps", "Facebook",
                "--traces", "video", "--duration", "2",
                "--trace-duration", "2", "--no-probe"]
        assert cli_main(argv + ["--out", str(out)]) == 0
        drifted = json.loads(out.read_text())
        drifted["leaderboard"][0]["mean_power_mw"] += 1.0
        out.write_text(json.dumps(drifted))
        capsys.readouterr()
        assert cli_main(argv + ["--check", str(out)]) == 1
