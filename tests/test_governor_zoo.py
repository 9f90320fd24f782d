"""The governor zoo: policy behaviour, registration, touch-boost
chaining, and the fast-forward allowlist regression.

The four related-work governors (luminance, scene, burst, predictive)
are registered builtins, so they must behave like any other selector:
valid in :class:`~repro.sim.session.SessionConfig`, identical serial
vs pooled, and kept off the fast-forward by its gate (none of them are
on its allowlist), so their sessions fire every tick.
"""

import json

import numpy as np
import pytest

from repro.core.governor import GovernorPolicy, TouchBoostGovernor
from repro.core.section_table import SectionTable
from repro.display.presets import GALAXY_S3_PANEL
from repro.errors import ConfigurationError
from repro.governors import (
    BurstRefreshGovernor,
    ContentLuminanceGovernor,
    PredictiveRateGovernor,
    SceneRateGovernor,
)
from repro.graphics.framebuffer import Framebuffer
from repro.pipeline.governors import GOVERNORS, GovernorContext
from repro.power.oled import OledModel
from repro.sim.batch import run_batch
from repro.sim.session import GOVERNOR_CHOICES, SessionConfig, \
    run_session
from repro.sim.fastforward import REPLICABLE_GOVERNORS, _gate
from repro.sim.runner import SessionRunner
from repro.sim.tracing import EventLog

ZOO = ("luminance", "scene", "burst", "predictive")


class StubMeter:
    """A content-rate meter stub with a settable reading."""

    def __init__(self, rate=0.0):
        self.rate = rate
        self.meaningful_frames = EventLog("meaningful")

    def content_rate(self, now, window_s=None):
        del now, window_s
        return self.rate


class StubPolicy(GovernorPolicy):
    name = "stub"

    def __init__(self, rate_hz, touch_rate_hz=None):
        self.rate_hz = rate_hz
        self.touch_rate_hz = touch_rate_hz
        self.touches = 0

    def select_rate(self, now):
        del now
        return self.rate_hz

    def on_touch(self, time):
        del time
        self.touches += 1
        return self.touch_rate_hz


def section_table():
    return SectionTable.for_panel(GALAXY_S3_PANEL)


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
class TestZooRegistration:
    def test_zoo_selectors_are_builtins(self):
        for governor in ZOO:
            assert governor in GOVERNOR_CHOICES
            assert governor in GOVERNORS.builtin_names()

    def test_builtin_order_keeps_paper_policies_first(self):
        assert GOVERNOR_CHOICES[:7] == (
            "fixed", "section", "section+boost", "section+hysteresis",
            "naive", "oracle", "e3")
        assert GOVERNOR_CHOICES[7:] == ZOO

    @pytest.mark.parametrize("governor", ZOO)
    def test_zoo_governor_runs_a_session(self, governor):
        result = run_session(SessionConfig(
            app="Facebook", governor=governor, duration_s=3.0,
            seed=1))
        assert result.mean_refresh_rate_hz > 0

    def test_luminance_factory_requires_framebuffer(self):
        result = run_session(SessionConfig(
            app="Facebook", governor="fixed", duration_s=1.0, seed=1))
        context = GovernorContext(
            panel=result.panel, meter=StubMeter(),
            application=None)
        with pytest.raises(ConfigurationError):
            GOVERNORS.get("luminance")(context)

    @pytest.mark.parametrize("governor", ZOO)
    def test_zoo_serial_equals_pooled(self, governor):
        configs = [SessionConfig(app=app, governor=governor,
                                 duration_s=3.0, seed=2)
                   for app in ("Facebook", "Jelly Splash")]
        serial = run_batch(configs, workers=1)
        pooled = run_batch(configs, workers=2, mp_context="fork")
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(pooled, sort_keys=True))


# ----------------------------------------------------------------------
# Content-luminance governor (SmartNight lineage)
# ----------------------------------------------------------------------
class TestContentLuminance:
    def build(self, level, inner_rate=40.0):
        framebuffer = Framebuffer(8, 8)
        framebuffer.pixels[:] = level
        inner = StubPolicy(inner_rate)
        policy = ContentLuminanceGovernor(
            inner, framebuffer, GALAXY_S3_PANEL.refresh_rates_hz)
        return policy

    def test_dark_frame_steps_down(self):
        dark = self.build(level=0)
        light = self.build(level=255)
        assert dark.select_rate(0.0) < light.select_rate(0.0)
        assert light.select_rate(0.0) == 40.0

    def test_deep_dark_steps_twice(self):
        policy = self.build(level=0)
        # 40 Hz is index 3 of (20, 24, 30, 40, 60): two steps -> 24.
        assert policy.select_rate(0.0) == 24.0
        assert policy.last_luminance < policy.deep_dark_threshold

    def test_floor_clamps(self):
        policy = self.build(level=0, inner_rate=20.0)
        assert policy.select_rate(0.0) == 20.0

    def test_emission_shape_monotone(self):
        """Property: darker content -> lower emission -> never a
        *higher* rate than lighter content (the dark-beats-light
        shape the tournament probe demonstrates end to end)."""
        model = OledModel()
        levels = list(range(0, 256, 15))
        emissions = []
        rates = []
        luminances = []
        for level in levels:
            policy = self.build(level=level)
            rates.append(policy.select_rate(0.0))
            luminances.append(policy.last_luminance)
            pixels = np.full((8, 8, 3), level, dtype=np.uint8)
            emissions.append(model.frame_power_mw(pixels))
        assert emissions == sorted(emissions)
        assert rates == sorted(rates)
        assert luminances == sorted(luminances)
        assert 0.0 <= min(luminances) <= max(luminances) <= 1.0

    def test_threshold_validation(self):
        framebuffer = Framebuffer(4, 4)
        with pytest.raises(ConfigurationError):
            ContentLuminanceGovernor(
                StubPolicy(40.0), framebuffer, (20.0, 60.0),
                dark_threshold=0.1, deep_dark_threshold=0.5)

    def test_touch_chains_to_inner(self):
        policy = self.build(level=0)
        assert policy.on_touch(1.0) is None
        assert policy.inner.touches == 1


# ----------------------------------------------------------------------
# Scene-rate governor (EVSO lineage)
# ----------------------------------------------------------------------
class TestSceneRate:
    def test_rate_latches_within_scene(self):
        meter = StubMeter(rate=24.0)
        policy = SceneRateGovernor(section_table(), meter)
        first = policy.select_rate(0.0)
        meter.rate = 26.0  # drift below the boundary threshold
        assert policy.select_rate(1.0) == first
        assert policy.scenes == 1

    def test_scene_boundary_relatches(self):
        meter = StubMeter(rate=24.0)
        policy = SceneRateGovernor(section_table(), meter)
        slow = policy.select_rate(0.0)
        meter.rate = 2.0
        fast_cut = policy.select_rate(1.0)
        assert policy.scenes == 2
        assert fast_cut < slow

    def test_silent_scene_ends_when_content_starts(self):
        meter = StubMeter(rate=0.0)
        policy = SceneRateGovernor(section_table(), meter)
        idle = policy.select_rate(0.0)
        meter.rate = 30.0
        assert policy.select_rate(1.0) > idle
        assert policy.scenes == 2

    def test_change_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            SceneRateGovernor(section_table(), StubMeter(),
                              change_fraction=0.0)


# ----------------------------------------------------------------------
# Burst-mode governor (BurstLink lineage)
# ----------------------------------------------------------------------
class TestBurstMode:
    def test_static_screen_sits_at_floor(self):
        policy = BurstRefreshGovernor(
            GALAXY_S3_PANEL.refresh_rates_hz, StubMeter(rate=0.0))
        assert policy.select_rate(0.25) == policy.floor_hz

    def test_saturated_screen_holds_ceiling(self):
        policy = BurstRefreshGovernor(
            GALAXY_S3_PANEL.refresh_rates_hz, StubMeter(rate=60.0))
        for now in (0.0, 0.4, 0.9):
            assert policy.select_rate(now) == policy.ceiling_hz

    def test_duty_cycle_bursts_then_dwells(self):
        policy = BurstRefreshGovernor(
            GALAXY_S3_PANEL.refresh_rates_hz, StubMeter(rate=30.0),
            period_s=1.0)
        # duty = 30/60 = 0.5: ceiling in the first half-period,
        # floor in the second.
        assert policy.select_rate(0.1) == policy.ceiling_hz
        assert policy.select_rate(0.75) == policy.floor_hz

    def test_touch_opens_burst(self):
        policy = BurstRefreshGovernor(
            GALAXY_S3_PANEL.refresh_rates_hz, StubMeter(rate=0.0))
        assert policy.on_touch(0.9) == policy.ceiling_hz

    def test_needs_rates(self):
        with pytest.raises(ConfigurationError):
            BurstRefreshGovernor((), StubMeter())


# ----------------------------------------------------------------------
# Predictive-rate governor (dynamic-sampling-rate lineage)
# ----------------------------------------------------------------------
class TestPredictiveRate:
    def test_no_history_means_idle(self):
        policy = PredictiveRateGovernor(section_table(), StubMeter())
        assert policy.forecast_rate(0.0) == 0.0
        assert policy.select_rate(0.0) == \
            GALAXY_S3_PANEL.min_refresh_hz

    def test_steady_stream_forecast(self):
        meter = StubMeter()
        meter.meaningful_frames.extend(
            [i / 24.0 for i in range(1, 25)])
        policy = PredictiveRateGovernor(section_table(), meter)
        assert policy.forecast_rate(1.0) == pytest.approx(24.0)

    def test_idle_gap_decays_forecast(self):
        meter = StubMeter()
        meter.meaningful_frames.extend(
            [i / 24.0 for i in range(1, 25)])
        policy = PredictiveRateGovernor(section_table(), meter)
        busy = policy.forecast_rate(1.0)
        quiet = policy.forecast_rate(6.0)
        assert quiet < busy
        assert quiet == pytest.approx(1.0 / 5.0)

    def test_incremental_ingest_consumes_each_event_once(self):
        meter = StubMeter()
        meter.meaningful_frames.extend([0.1, 0.2])
        policy = PredictiveRateGovernor(section_table(), meter,
                                        alpha=0.5)
        policy.select_rate(0.3)
        first = policy._ewma_interval
        policy.select_rate(0.35)  # no new events: EWMA untouched
        assert policy._ewma_interval == first
        meter.meaningful_frames.append(0.4)
        policy.select_rate(0.45)
        assert policy._ewma_interval != first

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            PredictiveRateGovernor(section_table(), StubMeter(),
                                   alpha=0.0)
        with pytest.raises(ConfigurationError):
            PredictiveRateGovernor(section_table(), StubMeter(),
                                   idle_factor=-1.0)


# ----------------------------------------------------------------------
# Touch-boost chaining (bugfix regression)
# ----------------------------------------------------------------------
class TestTouchBoostChaining:
    def test_inner_none_yields_boost_rate(self):
        policy = TouchBoostGovernor(StubPolicy(30.0),
                                    boost_rate_hz=60.0, hold_s=1.0)
        assert policy.on_touch(0.0) == 60.0
        assert policy.inner.touches == 1

    def test_inner_higher_immediate_rate_wins(self):
        # Regression: the wrapper used to discard the inner policy's
        # immediate rate, so a composed policy demanding more than
        # the boost rate was silently capped.
        policy = TouchBoostGovernor(
            StubPolicy(30.0, touch_rate_hz=90.0),
            boost_rate_hz=60.0, hold_s=1.0)
        assert policy.on_touch(0.0) == 90.0

    def test_inner_lower_immediate_rate_does_not_weaken_boost(self):
        policy = TouchBoostGovernor(
            StubPolicy(30.0, touch_rate_hz=24.0),
            boost_rate_hz=60.0, hold_s=1.0)
        assert policy.on_touch(0.0) == 60.0


# ----------------------------------------------------------------------
# Fast-forward allowlist (bugfix regression)
# ----------------------------------------------------------------------
class ThirdPartyGovernor(GovernorPolicy):
    name = "third-party"

    def __init__(self, rate_hz):
        self.rate_hz = rate_hz

    def select_rate(self, now):
        del now
        return self.rate_hz


def make_third_party(context):
    # Module-level: pooled workers import this by reference.
    return ThirdPartyGovernor(context.spec.refresh_rates_hz[0])


@pytest.fixture
def third_party_governor():
    GOVERNORS.register("third-party", make_third_party)
    try:
        yield "third-party"
    finally:
        GOVERNORS.unregister("third-party")


class TestEligibilityAllowlist:
    def test_zoo_is_off_the_allowlist(self):
        for governor in ZOO:
            assert governor not in REPLICABLE_GOVERNORS

    @pytest.mark.parametrize("governor", ZOO)
    def test_zoo_governor_probes_ineligible_with_code(self, governor):
        assert _gate(SessionConfig(
            app="Facebook", governor=governor,
            duration_s=3.0)) == ("governor",)

    def test_eligible_config_has_no_codes(self):
        assert _gate(SessionConfig(
            app="Facebook", governor="fixed", duration_s=3.0)) == ()

    def test_third_party_governor_probes_ineligible(
            self, third_party_governor):
        assert _gate(SessionConfig(
            app="Facebook", governor="third-party",
            duration_s=3.0)) == ("governor",)

    def test_auto_and_vector_route_to_scalar_byte_identical(
            self, third_party_governor):
        # Regression: a registry-registered governor must never reach
        # the fast-forward; its sessions fire every tick and batch
        # runs match one-session runs byte for byte.
        configs = [SessionConfig(app="Facebook",
                                 governor="third-party",
                                 duration_s=3.0, seed=seed)
                   for seed in (1, 2)]
        for config in configs:
            assert SessionRunner(config)._fast_forward is None
        batch = run_batch(configs, workers=1)
        single = [run_batch([config], workers=1)[0]
                  for config in configs]
        assert json.dumps(batch, sort_keys=True) == \
            json.dumps(single, sort_keys=True)
        assert all(s["governor"] == "third-party" for s in batch)
