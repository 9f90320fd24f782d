"""Tests for the fault-injection subsystem and the governor watchdog."""

import pytest

from repro.analysis.export import session_summary_dict
from repro.core.content_rate import ContentRateMeter, MeterConfig
from repro.core.governor import GovernorPolicy
from repro.core.watchdog import (
    GovernorWatchdog,
    STATE_FAILSAFE,
    STATE_NOMINAL,
    STATE_RETRYING,
    WatchdogConfig,
)
from repro.display.panel import DisplayPanel
from repro.display.presets import GALAXY_S3_PANEL
from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    MeteringError,
    ReproError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultWindow,
    SITE_METER_FAIL,
    SITE_PANEL_REFUSE,
    SITE_TOUCH_DROP,
)
from repro.graphics.framebuffer import Framebuffer
from repro.inputs.monkey import MonkeyConfig
from repro.inputs.touch import (
    TouchEvent,
    TouchKind,
    TouchScript,
    TouchSource,
)
from repro.pipeline import SessionBuilder
from repro.sim.engine import Simulator
from repro.sim.session import SessionConfig, run_session


class TestErrorContext:
    def test_default_context_empty_dict(self):
        err = ReproError("boom")
        assert err.context == {}
        assert str(err) == "boom"

    def test_context_stored_and_copied(self):
        ctx = {"subsystem": "meter", "sim_time_s": 1.5}
        err = MeteringError("fail", context=ctx)
        assert err.context == ctx
        ctx["subsystem"] = "mutated"
        assert err.context["subsystem"] == "meter"

    def test_fault_injection_error_is_repro_error(self):
        assert issubclass(FaultInjectionError, ReproError)


class TestFaultPlan:
    def test_defaults_inactive(self):
        plan = FaultPlan()
        assert not plan.any_active()

    def test_rate_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(meter_fail=1.5)
        with pytest.raises(FaultInjectionError):
            FaultPlan(touch_drop=-0.1)

    def test_parse_simple_spec(self):
        plan = FaultPlan.parse(
            "panel_refuse=0.05,meter_fail=0.01,touch_drop=0.1", seed=9)
        assert plan.panel_refuse == 0.05
        assert plan.meter_fail == 0.01
        assert plan.touch_drop == 0.1
        assert plan.seed == 9
        assert plan.any_active()

    def test_parse_window_spec(self):
        plan = FaultPlan.parse("meter_fail@10:20=1.0")
        assert plan.meter_fail == 0.0
        assert plan.windows == (FaultWindow(SITE_METER_FAIL, 10.0,
                                            20.0, 1.0),)
        assert plan.rate_at(SITE_METER_FAIL, 9.9) == 0.0
        assert plan.rate_at(SITE_METER_FAIL, 10.0) == 1.0
        assert plan.rate_at(SITE_METER_FAIL, 20.0) == 0.0

    def test_parse_magnitude_keys(self):
        plan = FaultPlan.parse("touch_delay=0.5,touch_delay_max_s=0.8")
        assert plan.touch_delay_max_s == 0.8

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse("panel_explode=0.5")

    def test_parse_rejects_bad_value(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse("meter_fail=lots")

    def test_parse_rejects_bad_window(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse("meter_fail@10=1.0")

    def test_window_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultWindow(SITE_METER_FAIL, 5.0, 5.0, 1.0)
        with pytest.raises(FaultInjectionError):
            FaultWindow("bogus", 0.0, 1.0, 1.0)

    def test_describe_mentions_active_sites(self):
        plan = FaultPlan.parse("meter_fail=0.25,touch_drop@1:2=1.0",
                               seed=3)
        text = plan.describe()
        assert "meter_fail=0.25" in text
        assert "touch_drop@1:2=1" in text
        assert "seed 3" in text


class TestFaultInjector:
    def test_zero_rate_never_fires_or_draws(self):
        injector = FaultInjector(FaultPlan())
        for t in range(100):
            assert not injector.fires(SITE_METER_FAIL, float(t))
        assert injector.total_faults == 0
        assert injector.timeline == ()

    def test_rate_one_always_fires(self):
        injector = FaultInjector(FaultPlan(meter_fail=1.0))
        assert all(injector.fires(SITE_METER_FAIL, float(t))
                   for t in range(10))
        assert injector.count(SITE_METER_FAIL) == 10

    def test_same_seed_same_timeline(self):
        plan = FaultPlan(meter_fail=0.3, touch_drop=0.4, seed=11)
        a, b = FaultInjector(plan), FaultInjector(plan)
        times = [0.1 * i for i in range(200)]
        for t in times:
            assert a.fires(SITE_METER_FAIL, t) == \
                b.fires(SITE_METER_FAIL, t)
            assert a.fires(SITE_TOUCH_DROP, t) == \
                b.fires(SITE_TOUCH_DROP, t)
        assert a.timeline == b.timeline
        assert a.counts == b.counts

    def test_different_seed_different_timeline(self):
        times = [0.1 * i for i in range(300)]

        def timeline(seed):
            injector = FaultInjector(FaultPlan(meter_fail=0.3,
                                               seed=seed))
            for t in times:
                injector.fires(SITE_METER_FAIL, t)
            return injector.timeline

        assert timeline(1) != timeline(2)

    def test_sites_have_independent_streams(self):
        plan = FaultPlan(meter_fail=0.3, touch_drop=0.3, seed=5)
        lone = FaultInjector(plan)
        mixed = FaultInjector(plan)
        times = [0.05 * i for i in range(200)]
        lone_fires = [lone.fires(SITE_TOUCH_DROP, t) for t in times]
        mixed_fires = []
        for t in times:
            mixed.fires(SITE_METER_FAIL, t)  # interleave other site
            mixed_fires.append(mixed.fires(SITE_TOUCH_DROP, t))
        assert lone_fires == mixed_fires

    def test_magnitude_drawn_and_recorded(self):
        injector = FaultInjector(FaultPlan(touch_delay=1.0))
        assert injector.fires("touch_delay", 0.0, magnitude_max_s=0.5)
        assert 0.0 <= injector.last_magnitude() < 0.5
        assert injector.timeline[0].magnitude_s == \
            injector.last_magnitude()

    def test_summary_dict(self):
        injector = FaultInjector(FaultPlan(meter_fail=1.0))
        injector.fires(SITE_METER_FAIL, 0.0)
        assert injector.summary_dict() == {
            "injected_total": 1,
            "injected_by_site": {SITE_METER_FAIL: 1},
        }


class TestPanelFaults:
    def _panel(self, plan):
        sim = Simulator()
        injector = FaultInjector(plan) if plan else None
        return sim, DisplayPanel(sim, GALAXY_S3_PANEL,
                                 injector=injector)

    def test_refusal_drops_the_request(self):
        sim, panel = self._panel(FaultPlan(panel_refuse=1.0))
        panel.start()
        panel.set_refresh_rate(20.0)
        sim.run_until(1.0)
        assert panel.refresh_rate_hz == 60.0
        assert panel.refused_switches == 1
        assert panel.rate_switches == 0

    def test_no_injector_behaviour_unchanged(self):
        sim, panel = self._panel(None)
        panel.start()
        panel.set_refresh_rate(20.0)
        sim.run_until(1.0)
        assert panel.refresh_rate_hz == 20.0
        assert panel.refused_switches == 0

    def test_latency_jitter_delays_the_switch(self):
        sim, panel = self._panel(FaultPlan(panel_latency=1.0,
                                           panel_latency_max_s=0.5))
        panel.start()
        panel.set_refresh_rate(20.0)
        switch_times = []
        panel.add_rate_change_listener(
            lambda time, rate: switch_times.append((time, rate)))
        sim.run_until(2.0)
        assert panel.refresh_rate_hz == 20.0
        assert panel.delayed_switches >= 1
        # Without the fault the switch lands exactly at the first
        # V-Sync (1/60 s); injected latency pushes it strictly later.
        first_vsync = 1.0 / 60.0
        assert switch_times[0][0] > first_vsync
        assert switch_times[0][0] < first_vsync + 0.5 + 1e-9


class TestMeterFaults:
    def _meter(self, plan):
        fb = Framebuffer(16, 16)
        injector = FaultInjector(plan) if plan else None
        return ContentRateMeter(fb, MeterConfig(sample_count=64),
                                injector=injector)

    def test_read_raises_metering_error_with_context(self):
        meter = self._meter(FaultPlan(meter_fail=1.0))
        with pytest.raises(MeteringError) as excinfo:
            meter.content_rate(1.25)
        assert excinfo.value.context["subsystem"] == "meter"
        assert excinfo.value.context["sim_time_s"] == 1.25
        assert meter.read_failures == 1

    def test_zero_rate_reads_clean(self):
        meter = self._meter(FaultPlan())
        assert meter.content_rate(1.0) == 0.0
        assert meter.read_failures == 0

    def test_window_gates_failures(self):
        meter = self._meter(FaultPlan.parse("meter_fail@2:3=1.0"))
        assert meter.content_rate(1.0) == 0.0
        with pytest.raises(MeteringError):
            meter.content_rate(2.5)
        assert meter.content_rate(3.5) == 0.0


class TestTouchFaults:
    def _run_source(self, plan, n=20):
        sim = Simulator()
        script = TouchScript([TouchEvent(time=0.5 * i + 0.25)
                              for i in range(n)])
        injector = FaultInjector(plan) if plan else None
        source = TouchSource(sim, script, injector=injector)
        received = []
        source.add_listener(lambda event: received.append(event))
        source.start()
        sim.run_until(0.5 * n + 5.0)
        return source, received

    def test_drop_all(self):
        source, received = self._run_source(FaultPlan(touch_drop=1.0))
        assert received == []
        assert source.dropped == 20
        assert source.delivered == 0

    def test_drop_partial_deterministic(self):
        plan = FaultPlan(touch_drop=0.5, seed=3)
        source_a, received_a = self._run_source(plan)
        source_b, received_b = self._run_source(plan)
        assert 0 < source_a.dropped < 20
        assert source_a.dropped == source_b.dropped
        assert [e.time for e in received_a] == \
            [e.time for e in received_b]

    def test_delay_shifts_delivery(self):
        plan = FaultPlan(touch_delay=1.0, touch_delay_max_s=0.2)
        source, received = self._run_source(plan, n=10)
        assert source.delivered == 10
        assert source.delayed >= 1
        original = [0.5 * i + 0.25 for i in range(10)]
        for event, scripted in zip(received, original):
            assert scripted <= event.time < scripted + 0.2

    def test_no_injector_delivers_everything(self):
        source, received = self._run_source(None)
        assert source.delivered == 20
        assert source.dropped == 0


class _FlakyPolicy(GovernorPolicy):
    """Test double: fails on demand, counts probes."""

    name = "flaky"

    def __init__(self):
        self.failing = False
        self.probes = 0
        self.rate = 24.0

    def select_rate(self, now):
        self.probes += 1
        if self.failing:
            raise MeteringError("meter down",
                                context={"subsystem": "meter",
                                         "sim_time_s": now})
        return self.rate


class TestWatchdogUnit:
    def _watchdog(self, **kwargs):
        inner = _FlakyPolicy()
        config = WatchdogConfig(fail_threshold=3,
                                backoff_initial_s=0.2,
                                backoff_multiplier=2.0,
                                backoff_max_s=1.0, **kwargs)
        return inner, GovernorWatchdog(inner, failsafe_rate_hz=60.0,
                                       config=config)

    def test_transparent_when_healthy(self):
        inner, dog = self._watchdog()
        assert dog.name == inner.name
        assert dog.select_rate(0.0) == 24.0
        assert dog.state == STATE_NOMINAL
        assert dog.meter_failures == 0

    def test_holds_last_good_rate_while_retrying(self):
        inner, dog = self._watchdog()
        dog.select_rate(0.0)
        inner.failing = True
        assert dog.select_rate(0.2) == 24.0  # first failure: hold
        assert dog.state == STATE_RETRYING
        assert dog.consecutive_failures == 1

    def test_failsafe_after_threshold_and_recovery(self):
        inner, dog = self._watchdog()
        dog.select_rate(0.0)
        inner.failing = True
        dog.select_rate(0.2)            # fail 1 -> retry at 0.4
        dog.select_rate(0.4)            # fail 2 -> retry at 0.8
        assert dog.state == STATE_RETRYING
        dog.select_rate(0.8)            # fail 3 -> failsafe
        assert dog.state == STATE_FAILSAFE
        assert dog.failsafe_entries == 1
        assert dog.select_rate(1.0) == 60.0  # pinned at max
        inner.failing = False
        # Next allowed probe succeeds: control re-engages at once.
        assert dog.select_rate(2.0) == 24.0
        assert dog.state == STATE_NOMINAL
        assert dog.recoveries == 1
        assert dog.consecutive_failures == 0

    def test_backoff_gates_probes(self):
        inner, dog = self._watchdog()
        dog.select_rate(0.0)
        inner.failing = True
        dog.select_rate(0.2)            # probe (fail), retry at 0.4
        probes = inner.probes
        dog.select_rate(0.3)            # inside backoff: no probe
        assert inner.probes == probes
        dog.select_rate(0.4)            # backoff expired: probes again
        assert inner.probes == probes + 1

    def test_backoff_bounded(self):
        inner, dog = self._watchdog()
        inner.failing = True
        now = 0.0
        for _ in range(10):
            dog.select_rate(now)
            now += 5.0  # always past any backoff
        # Backoff is capped at backoff_max_s regardless of streak.
        dog.select_rate(now)
        assert dog.select_rate(now + 0.99) == 60.0  # still backed off
        probes = inner.probes
        dog.select_rate(now + 1.01)     # past the 1.0 s cap: probes
        assert inner.probes == probes + 1

    def test_transitions_recorded(self):
        inner, dog = self._watchdog()
        dog.select_rate(0.0)
        inner.failing = True
        for t in (0.2, 0.4, 0.8):
            dog.select_rate(t)
        inner.failing = False
        dog.select_rate(3.0)
        states = [state for _, state in dog.transitions]
        assert states == [STATE_RETRYING, STATE_FAILSAFE,
                          STATE_NOMINAL]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            WatchdogConfig(fail_threshold=0)
        with pytest.raises(ConfigurationError):
            WatchdogConfig(backoff_multiplier=0.5)


NO_TOUCH = MonkeyConfig(duration_s=20.0, events_per_s=0.0)


class TestSessionFaults:
    def _config(self, **kwargs):
        defaults = dict(app="Facebook", governor="section",
                        duration_s=20.0, seed=1, monkey=NO_TOUCH)
        defaults.update(kwargs)
        return SessionConfig(**defaults)

    def test_zero_fault_plan_bit_identical_to_disabled(self):
        pristine = run_session(self._config())
        zeroed = run_session(self._config(faults=FaultPlan()))
        assert session_summary_dict(pristine) == \
            session_summary_dict(zeroed)
        p_times, p_rates = pristine.panel.rate_history.transitions
        z_times, z_rates = zeroed.panel.rate_history.transitions
        assert p_times.tolist() == z_times.tolist()
        assert p_rates.tolist() == z_rates.tolist()

    def test_deterministic_fault_replay(self):
        config = self._config(
            faults=FaultPlan(meter_fail=0.2, touch_drop=0.3, seed=17),
            monkey=None)
        a = run_session(config)
        b = run_session(config)
        assert a.injector.timeline == b.injector.timeline
        assert a.watchdog.transitions == b.watchdog.transitions
        assert session_summary_dict(a) == session_summary_dict(b)
        assert a.injector.total_faults > 0

    def test_watchdog_burst_failsafe_and_recovery(self):
        burst = FaultPlan.parse("meter_fail@5:10=1.0")
        result = run_session(self._config(faults=burst))
        faults = result.fault_summary_dict()
        assert faults["meter_failures"] > 0
        assert faults["failsafe_entries"] >= 1
        assert faults["recoveries"] >= 1
        assert faults["watchdog_state"] == "nominal"
        history = result.panel.rate_history
        # Facebook idles at ~1 fps: section control sits at the 20 Hz
        # floor before the burst, is pinned at the 60 Hz maximum while
        # the meter is down, and returns to the floor after recovery.
        assert history.sample([4.0])[0] == 20.0
        assert history.sample([8.0])[0] == 60.0
        assert history.sample([15.0])[0] == 20.0

    def test_burst_counters_surfaced_in_summary(self):
        burst = FaultPlan.parse("meter_fail@5:10=1.0")
        summary = session_summary_dict(
            run_session(self._config(faults=burst)))
        assert summary["faults"]["failsafe_entries"] >= 1
        assert summary["faults"]["recoveries"] >= 1
        assert summary["faults"]["injected_by_site"] == \
            {"meter_fail": summary["faults"]["meter_failures"]}

    def test_watchdog_disabled_lets_faults_crash(self):
        always_failing = FaultPlan(meter_fail=1.0)
        with pytest.raises(MeteringError):
            run_session(self._config(faults=always_failing,
                                     watchdog=False))

    def test_touch_drop_reduces_boosts(self):
        config = dict(app="Jelly Splash", governor="section+boost",
                      duration_s=20.0, seed=2)
        clean = run_session(SessionConfig(**config))
        dropped = run_session(SessionConfig(
            **config, faults=FaultPlan(touch_drop=1.0)))
        assert dropped.driver.touch_times == ()
        assert len(clean.driver.touch_times) > 0


class TestManagerIntegration:
    """The paper's system as ``SessionBuilder`` stage 8 assembles it."""

    @staticmethod
    def _builder(faults=None):
        return SessionBuilder(SessionConfig(
            app="Facebook", governor="section+boost", duration_s=1.0,
            meter=MeterConfig(sample_count=64), faults=faults)).assemble()

    def test_manager_builds_watchdog_with_injector(self):
        builder = self._builder(faults=FaultPlan(meter_fail=0.5))
        assert isinstance(builder.watchdog, GovernorWatchdog)
        assert builder.driver.policy is builder.watchdog
        assert builder.watchdog.failsafe_rate_hz == 60.0

    def test_manager_without_injector_unwrapped(self):
        builder = self._builder()
        assert builder.watchdog is None
        assert not isinstance(builder.policy, GovernorWatchdog)
