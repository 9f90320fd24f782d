"""Tests for the typed component pipeline (`repro.pipeline`).

The contracts under test:

* registries reject unknown keys with every valid key listed, protect
  builtins, and ship extension entries across process boundaries;
* :class:`SessionSpec` round-trips losslessly (config <-> spec <->
  JSON) and rejects malformed documents loudly;
* :class:`SessionBuilder` / :func:`run_spec` produce sessions
  byte-identical to the legacy :func:`run_session` facade, serial and
  pooled alike;
* a governor registered from one external module — no core edits — is
  selectable everywhere a builtin is: config validation, ``run_batch``
  worker pools, the ``repro compare`` CLI, and the replication
  experiment.

Process-pool tests use the ``fork`` start method so the parent's
registry state is visible in workers without an installed package.
"""

import json
import time

import pytest

from repro.cli import main as cli_main
from repro.analysis.export import session_summary_dict
from repro.apps.catalog import app_profile
from repro.core.content_rate import MeterConfig
from repro.core.governor import (
    GovernorPolicy,
    SectionBasedGovernor,
    TouchBoostGovernor,
)
from repro.display.presets import GALAXY_S3_PANEL, panel_preset
from repro.errors import ConfigurationError, SpecError, WorkloadError
from repro.faults.plan import FaultPlan, FaultWindow
from repro.pipeline import (
    APPS,
    GOVERNORS,
    PANELS,
    GovernorContext,
    Registry,
    SessionBuilder,
    SessionSpec,
    fixed_baseline_config,
    governor_names,
    run_fixed_baseline,
    run_spec,
    spec_roundtrip,
)
from repro.sim.batch import run_batch
from repro.sim.session import GOVERNOR_CHOICES, SessionConfig, run_session
from repro.telemetry import TelemetryConfig


def _summary_bytes(result):
    return json.dumps(session_summary_dict(result), sort_keys=True)


# ----------------------------------------------------------------------
# Registry mechanics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_unknown_key_lists_choices(self):
        registry = Registry("widget")
        registry.register("a", lambda: 1, builtin=True)
        registry.register("b", lambda: 2)
        with pytest.raises(ConfigurationError) as err:
            registry.get("c")
        assert "unknown widget 'c'" in str(err.value)
        assert "'a'" in str(err.value) and "'b'" in str(err.value)

    def test_governor_registry_error_lists_builtins(self):
        with pytest.raises(ConfigurationError) as err:
            GOVERNORS.get("psychic")
        message = str(err.value)
        for name in GOVERNOR_CHOICES:
            assert repr(name) in message

    def test_app_registry_raises_workload_error(self):
        with pytest.raises(WorkloadError) as err:
            APPS.get("NoSuchApp")
        assert "Facebook" in str(err.value)

    def test_config_validation_uses_registry_message(self):
        with pytest.raises(ConfigurationError) as err:
            SessionConfig(app="Facebook", governor="psychic")
        assert "choices" in str(err.value)
        assert "'section+boost'" in str(err.value)

    def test_builtin_cannot_be_replaced(self):
        with pytest.raises(ConfigurationError) as err:
            GOVERNORS.register("fixed", lambda context: None)
        assert "builtin" in str(err.value)

    def test_builtin_cannot_be_unregistered(self):
        with pytest.raises(ConfigurationError):
            GOVERNORS.unregister("fixed")

    def test_duplicate_needs_replace_flag(self):
        registry = Registry("widget")
        registry.register("a", lambda: 1)
        with pytest.raises(ConfigurationError) as err:
            registry.register("a", lambda: 2)
        assert "replace=True" in str(err.value)
        registry.register("a", lambda: 2, replace=True)
        assert registry.get("a")() == 2

    def test_unregister_removes_extension(self):
        registry = Registry("widget")
        registry.register("a", lambda: 1)
        registry.unregister("a")
        assert "a" not in registry
        with pytest.raises(ConfigurationError):
            registry.unregister("a")

    def test_names_keep_registration_order(self):
        assert GOVERNORS.builtin_names() == GOVERNOR_CHOICES
        assert governor_names()[:len(GOVERNOR_CHOICES)] == GOVERNOR_CHOICES

    def test_extras_exclude_builtins(self):
        registry = Registry("widget")
        registry.register("core", lambda: 1, builtin=True)
        registry.register("plug", lambda: 2)
        assert [key for key, _ in registry.extras()] == ["plug"]
        fresh = Registry("widget")
        fresh.register("core", lambda: 1, builtin=True)
        fresh.restore(registry.extras())
        assert fresh.get("plug")() == 2

    def test_decorator_form(self):
        registry = Registry("widget")

        @registry.register("deco")
        def make():
            return 3

        assert registry.create("deco") == 3
        assert make() == 3

    def test_panel_presets_keep_identity(self):
        assert PANELS.get("galaxy-s3")() is GALAXY_S3_PANEL
        assert panel_preset("galaxy-s3") is GALAXY_S3_PANEL


# ----------------------------------------------------------------------
# SessionSpec codec
# ----------------------------------------------------------------------
def _rich_config():
    return SessionConfig(
        app="Jelly Splash", governor="section+hysteresis",
        duration_s=4.0, seed=9, panel=panel_preset("ltpo-120"),
        meter=MeterConfig(sample_count=4096),
        boost_hold_s=0.5, table_bias=1, status_bar=True,
        track_oled=True,
        faults=FaultPlan(meter_fail=0.2, seed=3, windows=(
            FaultWindow(site="meter_fail", start_s=1.0, end_s=2.0,
                        rate=0.9),)),
        telemetry=TelemetryConfig(profile_spans=False))


class TestSessionSpec:
    @pytest.mark.parametrize("config", [
        SessionConfig(app="Facebook", duration_s=3.0, seed=1),
        SessionConfig(app=app_profile("CGV"), governor="oracle",
                      duration_s=3.0, seed=2),
        _rich_config(),
    ], ids=["plain", "inline-profile", "rich"])
    def test_config_roundtrip_is_lossless(self, config):
        spec = SessionSpec.from_config(config)
        assert spec.to_config() == config
        assert SessionSpec.from_json(spec.to_json()) == spec
        assert spec_roundtrip(config) == config

    def test_document_is_pure_json(self):
        document = SessionSpec.from_config(_rich_config()).to_json_dict()
        assert document["schema"] == "repro-session/1"
        assert document["panel"] == "ltpo-120"
        assert document["faults"]["windows"][0]["start_s"] == 1.0
        # json must serialize without a custom encoder
        json.loads(json.dumps(document))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SpecError) as err:
            SessionSpec.from_json_dict(
                {"app": "Facebook", "goverour": "fixed"})
        assert "goverour" in str(err.value)
        assert "'governor'" in str(err.value)

    def test_unknown_nested_key_rejected(self):
        spec = SessionSpec(app="Facebook",
                           meter={"sample_cout": 9216})
        with pytest.raises(SpecError) as err:
            spec.to_config()
        assert "sample_cout" in str(err.value)
        assert "'sample_count'" in str(err.value)

    def test_wrong_schema_rejected(self):
        with pytest.raises(SpecError):
            SessionSpec.from_json_dict(
                {"schema": "repro-session/99", "app": "Facebook"})

    def test_missing_app_rejected(self):
        with pytest.raises(SpecError):
            SessionSpec.from_json_dict({"governor": "fixed"})

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError):
            SessionSpec.from_json("{not json")

    def test_unknown_panel_name_lists_presets(self):
        with pytest.raises(ConfigurationError) as err:
            SessionSpec(app="Facebook", panel="crt").to_config()
        assert "'galaxy-s3'" in str(err.value)

    def test_unknown_app_type_rejected(self):
        with pytest.raises(SpecError):
            SessionSpec(app={"type": "movie"}).to_config()

    def test_spec_error_is_configuration_error(self):
        assert issubclass(SpecError, ConfigurationError)

    def test_roundtrip_cost_budget(self):
        # The batch engine pays one round trip per session it ships to
        # a worker.  A catastrophe bound (~0.2 ms measured), not a
        # regression gate: absolute timings on a shared machine are
        # too noisy for a tight one.
        config = SessionConfig(app="Facebook", governor="section+boost",
                               duration_s=30.0, seed=1,
                               resolution_divisor=1)
        spec_roundtrip(config)  # warm-up
        timings = []
        for _ in range(50):
            t0 = time.perf_counter()
            spec_roundtrip(config)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 0.005


# ----------------------------------------------------------------------
# Builder / facade equivalence
# ----------------------------------------------------------------------
class TestBuilderEquivalence:
    def test_builder_matches_legacy_facade(self):
        config = _rich_config()
        legacy = run_session(config)
        built = SessionBuilder(config).run()
        assert _summary_bytes(legacy) == _summary_bytes(built)
        legacy_times, legacy_rates = legacy.panel.rate_history.transitions
        built_times, built_rates = built.panel.rate_history.transitions
        assert legacy_times.tolist() == built_times.tolist()
        assert legacy_rates.tolist() == built_rates.tolist()

    def test_run_spec_matches_run_session(self):
        config = _rich_config()
        document = SessionSpec.from_config(config).to_json_dict()
        assert (_summary_bytes(run_spec(document))
                == _summary_bytes(run_session(config)))

    def test_to_spec_inverse(self):
        config = _rich_config()
        assert config.to_spec().to_config() == config

    def test_fixed_baseline_helper_matches_inline_config(self):
        config = fixed_baseline_config("Facebook", duration_s=3.0,
                                       seed=5)
        assert config.governor == "fixed"
        inline = SessionConfig(app="Facebook", governor="fixed",
                               duration_s=3.0, seed=5)
        assert config == inline
        helper = run_fixed_baseline("Facebook", duration_s=3.0, seed=5)
        assert _summary_bytes(helper) == _summary_bytes(
            run_session(inline))

    def test_batch_ships_specs_byte_identically(self):
        configs = [
            SessionConfig(app="Facebook", governor="section+boost",
                          duration_s=3.0, seed=seed)
            for seed in range(4)
        ] + [_rich_config()]
        serial = run_batch(configs, workers=1)
        pooled = run_batch(configs, workers=4, mp_context="fork")
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(pooled, sort_keys=True))


# ----------------------------------------------------------------------
# The paper's system (stage 8)
# ----------------------------------------------------------------------
class TestPaperSystem:
    @pytest.mark.parametrize("governor", ["section", "section+boost"])
    def test_section_policy_stack(self, governor):
        builder = SessionBuilder(SessionConfig(
            app="Facebook", governor=governor, duration_s=1.0)).assemble()
        panel = builder.panel
        policy = builder.policy
        if governor == "section+boost":
            assert type(policy) is TouchBoostGovernor
            assert policy.boost_rate_hz == panel.spec.max_refresh_hz
            policy = policy.inner
        assert type(policy) is SectionBasedGovernor
        assert policy.meter is builder.meter
        assert (policy.table.refresh_rates_hz
                == panel.spec.refresh_rates_hz)
        assert builder.driver.policy is builder.policy


# ----------------------------------------------------------------------
# One-module governor extension
# ----------------------------------------------------------------------
class HalfMaxGovernor(GovernorPolicy):
    """Test extension: always half the panel's maximum rate."""

    name = "half-max"

    def __init__(self, rate_hz):
        self.rate_hz = rate_hz

    def select_rate(self, now):
        del now
        return self.rate_hz


def make_half_max(context: GovernorContext) -> HalfMaxGovernor:
    # Module-level (not a closure): the batch engine ships extension
    # factories to fork/spawn workers by pickle-by-reference.
    return HalfMaxGovernor(context.spec.max_refresh_hz / 2.0)


@pytest.fixture
def half_max_governor():
    GOVERNORS.register("half-max", make_half_max)
    try:
        yield "half-max"
    finally:
        GOVERNORS.unregister("half-max")


class TestGovernorExtension:
    def test_registration_makes_config_valid(self, half_max_governor):
        config = SessionConfig(app="Facebook", governor="half-max",
                               duration_s=3.0, seed=1)
        result = run_session(config)
        assert session_summary_dict(result)["governor"] == "half-max"
        half = GALAXY_S3_PANEL.max_refresh_hz / 2.0
        assert result.mean_refresh_rate_hz < GALAXY_S3_PANEL.max_refresh_hz
        assert half in set(
            result.panel.rate_history.transitions[1].tolist())

    def test_unregistered_name_is_invalid_again(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(app="Facebook", governor="half-max")

    def test_extension_crosses_worker_pool(self, half_max_governor):
        configs = [SessionConfig(app="Facebook", governor="half-max",
                                 duration_s=3.0, seed=seed)
                   for seed in range(3)]
        serial = run_batch(configs, workers=1)
        pooled = run_batch(configs, workers=3, mp_context="fork")
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(pooled, sort_keys=True))
        assert all(s["governor"] == "half-max" for s in pooled)

    def test_extension_selectable_from_cli_compare(
            self, half_max_governor, capsys):
        code = cli_main(["compare", "--app", "Facebook",
                         "--governors", "half-max",
                         "--duration", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "half-max" in out

    def test_extension_selectable_from_experiment(
            self, half_max_governor):
        from repro.experiments.replication import replicate_comparison

        replicated = replicate_comparison("Facebook",
                                          governor="half-max",
                                          seeds=(1,), duration_s=3.0)
        assert replicated.governor == "half-max"
