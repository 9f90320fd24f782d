"""Tests for the session runner (end-to-end wiring)."""

import pytest

from repro.apps.wallpaper import nexus_revamped
from repro.core.content_rate import MeterConfig
from repro.errors import ConfigurationError
from repro.sim.session import (
    GOVERNOR_CHOICES,
    SessionConfig,
    run_session,
)

SHORT = 8.0


def session(app="Facebook", governor="fixed", duration=SHORT, seed=1,
            **kwargs):
    return run_session(SessionConfig(app=app, governor=governor,
                                     duration_s=duration, seed=seed,
                                     **kwargs))


class TestSessionConfig:
    def test_unknown_governor_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(app="Facebook", governor="psychic")

    def test_invalid_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(app="Facebook", duration_s=0.0)

    def test_invalid_control_timing_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(app="Facebook", decision_period_s=0.0)
        with pytest.raises(ConfigurationError):
            SessionConfig(app="Facebook", boost_hold_s=-1.0)

    def test_profile_resolution_by_name(self):
        cfg = SessionConfig(app="Facebook")
        assert cfg.resolve_profile().name == "Facebook"

    def test_profile_resolution_wallpaper(self):
        cfg = SessionConfig(app=nexus_revamped())
        assert cfg.resolve_profile().name == "Nexus Revamped"

    def test_monkey_derived_from_profile(self):
        cfg = SessionConfig(app="Facebook", duration_s=30.0)
        monkey = cfg.resolve_monkey()
        assert monkey.duration_s == 30.0
        assert monkey.events_per_s == \
            cfg.resolve_profile().touch_events_per_s


class TestFixedBaseline:
    def test_panel_stays_at_60(self):
        result = session(governor="fixed")
        times, values = result.panel.rate_history.transitions
        assert (values == 60.0).all()
        assert result.mean_refresh_rate_hz == 60.0

    def test_free_running_game_fills_every_vsync(self):
        result = session(app="Jelly Splash", governor="fixed")
        assert result.mean_frame_rate_fps == pytest.approx(60.0, abs=1.0)

    def test_metering_inactive_flag(self):
        result = session(governor="fixed")
        assert not result.metering_active


class TestGovernedSessions:
    @pytest.mark.parametrize("governor", [g for g in GOVERNOR_CHOICES
                                          if g != "fixed"])
    def test_all_governors_run(self, governor):
        result = session(governor=governor, duration=6.0)
        assert result.duration_s == 6.0
        assert result.metering_active

    def test_section_reduces_mean_refresh(self):
        fixed = session(app="Facebook", governor="fixed")
        governed = session(app="Facebook", governor="section")
        assert governed.mean_refresh_rate_hz < \
            fixed.mean_refresh_rate_hz - 10.0

    def test_section_reduces_power(self):
        fixed = session(app="Jelly Splash", governor="fixed", duration=15.0)
        governed = session(app="Jelly Splash", governor="section",
                           duration=15.0)
        assert governed.power_report().mean_power_mw < \
            fixed.power_report().mean_power_mw

    def test_boost_costs_power_vs_plain_section(self):
        plain = session(app="Facebook", governor="section", duration=30.0,
                        seed=3)
        boosted = session(app="Facebook", governor="section+boost",
                          duration=30.0, seed=3)
        assert boosted.power_report().mean_power_mw >= \
            plain.power_report().mean_power_mw - 1.0

    def test_governor_names(self):
        assert session(governor="section").governor_name == \
            "section-based"
        assert "touch-boost" in \
            session(governor="section+boost").governor_name


class TestDeterminism:
    def test_same_seed_identical_results(self):
        a = session(app="Jelly Splash", governor="section+boost", seed=7)
        b = session(app="Jelly Splash", governor="section+boost", seed=7)
        assert a.power_report().energy_mj == \
            b.power_report().energy_mj
        assert list(a.application.content_changes.times) == \
            list(b.application.content_changes.times)
        assert a.touch_script.times == b.touch_script.times

    def test_content_stream_invariant_across_governors(self):
        """The controlled-comparison property: the same seed produces
        the same ground-truth content instants and touch script no
        matter which governor runs."""
        a = session(app="Facebook", governor="fixed", seed=5)
        b = session(app="Facebook", governor="section", seed=5)
        assert list(a.application.content_changes.times) == \
            list(b.application.content_changes.times)
        assert a.touch_script.times == b.touch_script.times

    def test_different_seeds_differ(self):
        a = session(app="Facebook", governor="fixed", seed=1)
        b = session(app="Facebook", governor="fixed", seed=2)
        assert list(a.application.content_changes.times) != \
            list(b.application.content_changes.times)


class TestResultDerivations:
    def test_rates_are_consistent(self):
        result = session(app="Jelly Splash", governor="fixed")
        assert result.mean_frame_rate_fps == pytest.approx(
            result.mean_content_rate_fps +
            result.mean_redundant_rate_fps)

    def test_quality_report_runs(self):
        result = session(app="Facebook", governor="section")
        report = result.quality_report()
        assert 0.0 <= report.display_quality <= 1.0

    def test_power_trace_covers_session(self):
        result = session(app="Facebook", governor="fixed")
        centers, power = result.power_trace(bin_width_s=1.0)
        assert len(centers) == int(SHORT)
        assert (power > 0).all()

    def test_meter_vs_ground_truth_at_fixed_60(self):
        # At 60 Hz with large content changes, the 9K-grid meter and
        # the compositor's full comparison must agree closely.
        result = session(app="Facebook", governor="fixed", duration=20.0)
        measured = result.meter.total_meaningful
        actual = len(result.meaningful_compositions)
        assert abs(measured - actual) <= max(2, 0.02 * actual)


class TestVsyncThrottle:
    def test_content_rate_never_exceeds_refresh(self):
        """V-Sync clips the measurable content rate at the refresh rate
        (Section 2.1) — checked bin by bin."""
        result = session(app="Jelly Splash", governor="section",
                         duration=20.0, seed=2)
        centers, content = result.meter.meaningful_frames.binned_rate(
            0.0, 20.0, 1.0)
        t_trans, v_trans = result.panel.rate_history.transitions
        for center, rate in zip(centers, content):
            lo, hi = center - 0.5, center + 0.5
            # Max refresh in effect at any instant of the bin: the value
            # entering the bin plus any transitions inside it.
            entering = result.panel.rate_history.value_at(lo)
            inside = v_trans[(t_trans > lo) & (t_trans <= hi)]
            max_refresh = max([entering] + list(inside))
            # One frame of slack for bin-edge effects.
            assert rate <= max_refresh + 1.0 + 1e-9


class TestResolutionScaling:
    def test_native_resolution_session(self):
        result = session(app=nexus_revamped(), governor="fixed",
                         duration=2.0, resolution_divisor=1,
                         meter=MeterConfig(sample_count=9216))
        assert result.meter.grid.buffer_shape == (1280, 720)

    def test_scaled_session_grid_adapts(self):
        result = session(governor="fixed", duration=2.0,
                         resolution_divisor=8)
        assert result.meter.grid.buffer_shape == (160, 90)
        assert result.meter.grid.sample_count <= 160 * 90
