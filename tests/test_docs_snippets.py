"""Executable checks for the docs/ code snippets.

Documentation that drifts from the code is worse than none; these
tests execute the behaviour each docs/api_tour.md snippet promises.
"""

import pathlib

import numpy as np
import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDocsExist:
    @pytest.mark.parametrize("name", ["methodology.md",
                                      "calibration.md",
                                      "api_tour.md",
                                      "architecture.md",
                                      "traces.md",
                                      "caching.md"])
    def test_doc_present_and_substantial(self, name):
        path = REPO_ROOT / "docs" / name
        assert path.stat().st_size > 1500, name


class TestApiTourSnippets:
    def test_simulator_snippet(self):
        from repro import Simulator
        sim = Simulator()
        fired = []
        sim.call_after(1.5, lambda s: fired.append(s.now))
        sim.run_until(10.0)
        assert fired == [1.5]

    def test_graphics_snippet(self):
        from repro import Framebuffer, Surface, SurfaceManager
        from repro.graphics import ScrollRenderer
        fb = Framebuffer(width=90, height=160)
        compositor = SurfaceManager(fb)
        surface = Surface(90, 160, name="app")
        compositor.register_surface(surface)
        ScrollRenderer().render(surface, np.random.default_rng(0))
        compositor.post(surface)
        assert compositor.on_vsync(time=0.016)
        assert fb.generation == 1

    def test_table_snippet(self):
        from repro import GALAXY_S3_PANEL, SectionTable
        table = SectionTable.for_panel(GALAXY_S3_PANEL)
        assert table.lookup(33.0) == 40.0
        assert "20 Hz" in table.describe()

    def test_session_snippet(self):
        from repro import SessionConfig, run_session
        result = run_session(SessionConfig(
            app="Jelly Splash", governor="section+boost",
            duration_s=5.0, seed=1, track_oled=True, status_bar=True))
        assert result.power_report().mean_power_mw > 0
        assert 0.0 <= result.quality_report().display_quality <= 1.0
        centers, power = result.power_trace(bin_width_s=1.0)
        assert len(centers) == 5

    def test_scenario_snippet(self):
        from repro import ScenarioConfig, ScenarioSegment, run_scenario
        scenario = run_scenario(ScenarioConfig(segments=(
            ScenarioSegment("KakaoTalk", 5.0),
            ScenarioSegment("Jelly Splash", 5.0),
        ), governor="section+boost", seed=1))
        assert scenario.segment_power(
            scenario.segments[1]).mean_power_mw > 0

    def test_batch_snippet(self):
        from repro import SessionConfig, run_batch
        summaries = run_batch(
            [SessionConfig(app="Facebook", governor="fixed",
                           duration_s=4.0, seed=s) for s in range(2)],
            workers=1)
        assert len(summaries) == 2

    def test_analysis_imports(self):
        from repro.analysis import (
            bar_chart,
            mean_std,
            percentile_of_apps,
            session_touch_latency,
            sparkline,
            timeline,
            write_session_json,
            write_trace_csv,
        )
        from repro.power import minutes_gained
        assert callable(minutes_gained)
        del (bar_chart, mean_std, percentile_of_apps,
             session_touch_latency, sparkline, timeline,
             write_session_json, write_trace_csv)

    def test_calibration_snippet(self):
        from repro import (
            PowerCalibration,
            PowerModel,
            SessionConfig,
            run_session,
        )
        my_cal = PowerCalibration(device_base_mw=600.0,
                                  panel_mw_per_hz=2.1,
                                  compose_mj_per_frame=0.8)
        model = PowerModel(my_cal)
        result = run_session(SessionConfig(app="Facebook",
                                           governor="section",
                                           duration_s=4.0, seed=1))
        default_power = result.power_report().mean_power_mw
        custom_power = result.power_report(model).mean_power_mw
        assert custom_power != default_power
