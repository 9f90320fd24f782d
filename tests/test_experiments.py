"""Tests for the experiment drivers (short configurations)."""

import numpy as np
import pytest

from repro.apps.profile import AppCategory
from repro.experiments import (
    fig2,
    fig3,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    run_survey,
    table1,
)
from repro.experiments.registry import EXPERIMENTS, experiment
from repro.experiments.survey import SurveyConfig

# One small shared survey for all survey-based experiment tests: four
# apps (two per category), short sessions.
SMALL = SurveyConfig(
    apps=("Facebook", "MX Player", "Jelly Splash", "TempleRun"),
    duration_s=12.0,
    seed=2,
)


@pytest.fixture(scope="module")
def survey():
    return run_survey(SMALL)


class TestSurvey:
    def test_sessions_indexed_by_app_and_governor(self, survey):
        assert set(survey.sessions) == set(SMALL.apps)
        for app in SMALL.apps:
            assert set(survey.sessions[app]) == set(SMALL.governors)

    def test_cache_returns_same_object(self, survey):
        assert run_survey(SMALL) is survey

    def test_measurements_cover_all_apps(self, survey):
        rows = survey.measurements("section")
        assert {r.app_name for r in rows} == set(SMALL.apps)
        for r in rows:
            assert r.baseline_power_mw > 0
            assert 0.0 <= r.display_quality <= 1.0

    def test_missing_baseline_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            SurveyConfig(governors=("section",))


class TestFig2:
    def test_traces_and_shape_claims(self):
        result = fig2.run(duration_s=20.0, seed=2)
        fb = result.traces["Facebook"]
        jelly = result.traces["Jelly Splash"]
        # Facebook idles near zero; Jelly Splash holds ~60 fps.
        assert fb.median_frame_rate < 20.0
        assert jelly.median_frame_rate > 55.0
        assert jelly.mean_redundant_rate > 30.0
        assert "Figure 2" in result.format()


class TestFig3:
    def test_rows_and_categories(self, survey):
        result = fig3.run(survey)
        assert len(result.rows) == 4
        games = result.category_rows(AppCategory.GAME)
        assert all(r.frame_rate_fps > 30.0 for r in games)
        for r in result.rows:
            assert r.redundant_fps >= 0.0
            assert r.meaningful_fps <= r.frame_rate_fps + 0.5
        assert "Figure 3" in result.format()

    def test_redundancy_fraction_helper(self, survey):
        result = fig3.run(survey)
        frac = result.fraction_with_redundancy_above(AppCategory.GAME,
                                                     20.0)
        assert 0.0 <= frac <= 1.0


class TestFig6:
    def test_accuracy_decreases_with_budget(self):
        acc = fig6.run_accuracy(duration_s=5.0, seed=3)
        by_label = {a.label: a for a in acc}
        # 9K and up: exact; 2K: visibly wrong (the paper's shape).
        assert by_label["9K"].error_rate == 0.0
        assert by_label["36K"].error_rate == 0.0
        assert by_label["921K"].error_rate == 0.0
        assert by_label["2K"].error_rate > 0.02
        assert by_label["2K"].error_rate >= by_label["4K"].error_rate

    def test_cost_monotone_and_921k_blows_budget(self):
        cost = fig6.run_cost(repeats=10)
        by_label = {c.label: c for c in cost}
        assert by_label["921K"].median_compare_s > \
            by_label["36K"].median_compare_s > \
            by_label["9K"].median_compare_s
        assert not by_label["921K"].within_vsync_budget
        assert by_label["9K"].within_vsync_budget

    def test_format(self):
        result = fig6.run(duration_s=3.0, repeats=5)
        assert "Figure 6" in result.format()

    def test_catalog_accuracy_is_exact(self):
        # Section 4.1: against ordinary app content (scrolls, scene
        # changes, video) the 9K meter was "initially 100 %" accurate,
        # because real app changes dwarf a 10 px grid cell.
        apps = ("Facebook", "MX Player", "Jelly Splash", "TempleRun",
                "Cash Slide", "Naver Webtoon")
        errors = fig6.run_catalog_accuracy(duration_s=15.0, seed=5,
                                           apps=list(apps))
        assert errors == {app: 0.0 for app in apps}


class TestFig7:
    def test_traces_present_and_boost_helps(self):
        result = fig7.run(duration_s=20.0, seed=2)
        assert set(result.traces) == {
            (app, method)
            for app in ("Facebook", "Jelly Splash")
            for method in ("section", "section+boost")
        }
        for app in ("Facebook", "Jelly Splash"):
            section = result.traces[(app, "section")]
            boosted = result.traces[(app, "section+boost")]
            assert boosted.quality >= section.quality - 0.05
            assert boosted.boosts >= 0
        assert "Figure 7" in result.format()


class TestFig8:
    def test_savings_positive_and_jelly_dominates(self):
        result = fig8.run(duration_s=20.0, seed=2)
        fb = result.traces[("Facebook", "section")]
        jelly = result.traces[("Jelly Splash", "section")]
        assert fb.mean_saved_mw > 0
        assert jelly.mean_saved_mw > fb.mean_saved_mw
        assert len(fb.saved_power_mw) == 20
        assert "Figure 8" in result.format()


class TestFig9:
    def test_rows_and_category_stats(self, survey):
        result = fig9.run(survey)
        assert len(result.rows) == 4
        mean = result.category_mean(AppCategory.GAME, "section")
        assert mean.mean > 0
        assert result.category_max(AppCategory.GAME, "section") >= \
            mean.mean
        assert "Figure 9" in result.format()


class TestFig10:
    def test_estimates_bounded_by_actual(self, survey):
        result = fig10.run(survey)
        for row in result.rows:
            for method in ("section", "section+boost"):
                assert row.dropped_fps(method) >= 0.0
        assert "Figure 10" in result.format()

    def test_percentile_helper(self, survey):
        result = fig10.run(survey)
        d = result.dropped_fps_80th(AppCategory.GENERAL, "section")
        assert d >= 0.0


class TestFig11:
    def test_quality_fractions(self, survey):
        result = fig11.run(survey)
        for row in result.rows:
            for method in ("section", "section+boost"):
                assert 0.0 <= row.quality[method] <= 1.0
        assert 0.0 <= result.worst_quality("section+boost") <= 1.0
        assert "Figure 11" in result.format()


class TestTable1:
    def test_structure_and_cells(self, survey):
        result = table1.run(survey)
        for category in (AppCategory.GENERAL, AppCategory.GAME):
            for method in ("section", "section+boost"):
                cell = result.cell(category, method)
                assert cell.n_apps == 2
                assert cell.saved_power_percent.mean > 0
        assert "Table 1" in result.format()

    def test_unknown_category_rejected(self, survey):
        result = table1.run(survey)
        with pytest.raises(KeyError):
            result.cell("not-a-category", "section")


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        ids = {e.experiment_id for e in EXPERIMENTS}
        assert ids == {"fig2", "fig3", "fig5", "fig6", "fig7", "fig8",
                       "fig9", "fig10", "fig11", "table1",
                       "tournament", "resilience"}

    def test_lookup(self):
        info = experiment("fig9")
        assert "power" in info.paper_content.lower()
        assert info.benchmark.startswith("benchmarks/")

    def test_unknown_experiment_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            experiment("fig99")

    def test_runners_are_callable(self):
        for info in EXPERIMENTS:
            assert callable(info.runner)
