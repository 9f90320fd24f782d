"""Precise control-loop dynamics: ladder climbs, decay, boost hand-off.

These tests pin the *timing* of the governor's behaviour, not just its
endpoints — the mechanism behind Figure 7's traces.
"""

import pytest

from repro.apps.profile import (
    AppCategory,
    AppProfile,
    ContentProcess,
    RenderStyle,
)
from repro.inputs.monkey import MonkeyConfig
from repro.sim.session import SessionConfig, run_session


def burst_profile(idle=0.5, active=40.0, burst_s=20.0):
    """Idle app that bursts hard on touch (and stays bursting)."""
    return AppProfile(
        name="dynamics-app", category=AppCategory.GENERAL,
        idle_content_fps=idle, active_content_fps=active,
        burst_duration_s=burst_s,
        content_process=ContentProcess.ANIMATION,
        idle_submit_fps=0.0, render_style=RenderStyle.SCENE,
        touch_events_per_s=0.0, scroll_fraction=0.0)


class TestLadderClimb:
    def _session(self, governor):
        # One touch at t=10 (monkey: a single-event window).
        monkey = MonkeyConfig(duration_s=30.0, events_per_s=0.0)
        result = run_session(SessionConfig(
            app=burst_profile(), governor=governor, duration_s=30.0,
            seed=3, monkey=monkey))
        return result

    def test_idle_app_settles_at_floor_quickly(self):
        result = self._session("section")
        # With ~0.5 fps content the first decision (200 ms) already
        # selects 20 Hz.
        assert result.panel.rate_history.value_at(1.0) == 20.0

    def test_climb_reaches_maximum_within_seconds(self):
        # The section governor, starting fresh at 60 Hz, never needs
        # to climb for constant-high content: it stays at 60.
        profile = burst_profile(idle=40.0, active=40.0)
        result = run_session(SessionConfig(
            app=profile, governor="section", duration_s=20.0, seed=3,
            monkey=MonkeyConfig(duration_s=20.0, events_per_s=0.0)))
        # Constant 40 fps content -> 60 Hz section, held throughout
        # (after the first window fills).
        assert result.panel.rate_history.mean(5.0, 20.0) > 55.0

    def test_decay_to_floor_after_content_stops(self):
        # Content at 40 fps for the first segment only (burst ends).
        profile = AppProfile(
            name="decay-app", category=AppCategory.GENERAL,
            idle_content_fps=0.0, active_content_fps=40.0,
            burst_duration_s=5.0,
            content_process=ContentProcess.ANIMATION,
            idle_submit_fps=0.0, render_style=RenderStyle.SCENE,
            touch_events_per_s=0.3, scroll_fraction=0.0)
        result = run_session(SessionConfig(
            app=profile, governor="section", duration_s=40.0, seed=6))
        # Find a burst end: last touch + burst duration; within
        # window + a couple of decision periods the rate is back at
        # the floor.
        touches = result.touch_script.times
        assert touches, "seed produced no touches; pick another seed"
        quiet_start = max(touches) + 5.0
        if quiet_start + 3.0 < 40.0:
            assert result.panel.rate_history.value_at(
                quiet_start + 2.0) == 20.0


class TestBoostHandOff:
    def test_boost_expires_to_section_choice(self):
        # After the boost hold, the section governor should keep a
        # rate covering the (still-bursting) content, not fall to the
        # floor.
        profile = burst_profile(idle=0.5, active=30.0, burst_s=10.0)
        result = run_session(SessionConfig(
            app=profile, governor="section+boost", duration_s=30.0,
            seed=8,
            monkey=MonkeyConfig(duration_s=30.0, events_per_s=0.12,
                                scroll_fraction=0.0, warmup_s=5.0)))
        touches = result.touch_script.times
        if not touches:
            pytest.skip("seed produced no touches")
        touch = touches[0]
        # During the hold: maximum rate.
        assert result.panel.rate_history.value_at(touch + 0.5) == 60.0
        # Well after the hold but mid-burst (content 30 fps): the
        # section table selects 40 Hz (30 in [27, 35)).
        probe = touch + 3.0
        if all(abs(probe - t) > 2.0 for t in touches[1:]):
            assert result.panel.rate_history.value_at(probe) >= 40.0

    def test_boost_rate_switch_count_scales_with_touches(self):
        profile = burst_profile(idle=0.5, active=30.0, burst_s=2.0)
        few = run_session(SessionConfig(
            app=profile, governor="section+boost", duration_s=30.0,
            seed=8,
            monkey=MonkeyConfig(duration_s=30.0, events_per_s=0.1,
                                scroll_fraction=0.0)))
        many = run_session(SessionConfig(
            app=profile, governor="section+boost", duration_s=30.0,
            seed=8,
            monkey=MonkeyConfig(duration_s=30.0, events_per_s=0.6,
                                scroll_fraction=0.0)))
        assert len(many.touch_script) > len(few.touch_script)
        assert many.panel.rate_switches >= few.panel.rate_switches


class TestWindowDynamics:
    def test_measured_rate_ramps_at_window_speed(self):
        """After a mid-session step in true content, the sliding
        window ramps the measurement linearly over ~window_s — the lag
        that makes the governor climb one section at a time."""
        import numpy as np
        from repro.core.content_rate import ContentRateMeter, MeterConfig
        from repro.graphics.framebuffer import Framebuffer

        fb = Framebuffer(32, 24)
        meter = ContentRateMeter(fb, MeterConfig(window_s=1.0))
        # Quiet until t=5, then meaningful frames at 40 fps.
        value = 1
        for i in range(80):
            t = 5.0 + i / 40.0
            value = (value + 13) % 256
            fb.write(np.full(fb.shape, value, dtype=np.uint8), t)
        # Half a window after the step: roughly half the true rate.
        assert meter.content_rate(5.5) == pytest.approx(20.0, abs=3.0)
        # A full window after: the true rate.
        assert meter.content_rate(6.5) == pytest.approx(40.0, abs=3.0)


class TestVsyncLatchedRateSwitch:
    """The panel's V-Sync cadence around a mid-frame rate switch.

    Audit note: :class:`~repro.display.panel.DisplayPanel` deliberately
    does *not* use :class:`~repro.sim.engine.PeriodicTask` — it owns a
    cancel-free reschedule-at-fire loop where a mid-frame
    ``set_refresh_rate`` only marks a pending rate.  The pending V-Sync
    keeps its scheduled time (the panel cannot abandon a scan-out in
    progress) and the *next* interval runs at the new rate.  This test
    pins those V-Sync-latched semantics; controllers that instead need
    a retimed pending tick use ``PeriodicTask.set_period(retime=True)``.
    """

    def test_pending_vsync_keeps_old_cadence(self):
        from repro.display.panel import DisplayPanel
        from repro.display.presets import panel_preset
        from repro.sim.engine import Simulator

        sim = Simulator()
        panel = DisplayPanel(sim, panel_preset("galaxy-s3"),
                             initial_rate_hz=20.0)
        vsyncs = []
        panel.add_vsync_listener(lambda t: vsyncs.append(t))
        panel.start()
        # Mid-frame request at t=0.06 (between the 0.05 and 0.10
        # V-Syncs of the 20 Hz cadence).
        sim.call_at(0.06, lambda s: panel.set_refresh_rate(60.0))
        sim.run_until(0.06)
        assert panel.refresh_rate_hz == 20.0  # not applied yet
        sim.run_until(0.2)
        # The pending V-Sync fired on the old 20 Hz cadence at 0.10;
        # every interval after runs at 60 Hz.
        assert vsyncs[0] == pytest.approx(0.05)
        assert vsyncs[1] == pytest.approx(0.10)
        assert vsyncs[2] == pytest.approx(0.10 + 1.0 / 60.0)
        assert vsyncs[3] == pytest.approx(0.10 + 2.0 / 60.0)
        assert panel.refresh_rate_hz == 60.0

    def test_rate_history_steps_at_the_boundary(self):
        from repro.display.panel import DisplayPanel
        from repro.display.presets import panel_preset
        from repro.sim.engine import Simulator

        sim = Simulator()
        panel = DisplayPanel(sim, panel_preset("galaxy-s3"),
                             initial_rate_hz=20.0)
        panel.start()
        sim.call_at(0.06, lambda s: panel.set_refresh_rate(60.0))
        sim.run_until(0.2)
        # The recorded switch instant is the frame boundary (0.10),
        # not the request instant (0.06).
        assert panel.rate_history.sample([0.09])[0] == 20.0
        assert panel.rate_history.sample([0.11])[0] == 60.0
