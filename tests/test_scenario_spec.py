"""Multi-app scenarios as a session workload.

A segment list (:class:`ScenarioWorkload`) runs through the same
``SessionBuilder`` / ``SessionRunner`` path as every other session:
it round-trips as a ``SessionSpec``, checkpoints and resumes, is
declined by the fast-forward gate by type, and ``SessionConfig``
rejects the combinations a scenario cannot honour.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.inputs.monkey import MonkeyConfig
from repro.pipeline.builder import run_spec
from repro.pipeline.spec import SessionSpec
from repro.sim.fastforward import _gate
from repro.sim.runner import SessionRunner, resume_runner
from repro.sim.scenario import (
    ScenarioConfig,
    ScenarioResult,
    ScenarioSegment,
    ScenarioWorkload,
    run_scenario,
)
from repro.sim.session import SessionConfig

from .test_golden_scenario import canonical, golden_record, scenario_config

SHORT_SEGMENTS = (
    ScenarioSegment("KakaoTalk", 4.0),
    ScenarioSegment("Jelly Splash", 4.0),
    ScenarioSegment("Facebook", 4.0),
)


def short_config(governor: str = "section+boost") -> SessionConfig:
    return ScenarioConfig(segments=SHORT_SEGMENTS, governor=governor,
                          seed=5).session_config()


class TestSpec:
    def test_json_round_trip(self):
        config = scenario_config("section+boost").session_config()
        spec = SessionSpec.from_config(config)
        document = json.loads(spec.to_json())
        assert document["app"]["type"] == "scenario"
        assert SessionSpec.from_json(spec.to_json()) == spec
        assert spec.to_config() == config

    def test_inline_profile_segment_round_trips(self):
        from repro.apps.catalog import app_profile
        workload = ScenarioWorkload((
            ScenarioSegment(app_profile("Facebook"), 2.0),
            ScenarioSegment("KakaoTalk", 3.0)))
        config = SessionConfig(app=workload, duration_s=5.0)
        spec = SessionSpec.from_json(SessionSpec.from_config(config).to_json())
        assert spec.to_config() == config

    @pytest.mark.parametrize("governor", ["fixed", "e3"])
    def test_run_spec_matches_run_scenario(self, governor):
        scenario = scenario_config(governor)
        spec_json = SessionSpec.from_config(
            scenario.session_config()).to_json()
        via_spec = ScenarioResult(scenario, run_spec(spec_json))
        assert canonical(golden_record(via_spec)) == \
            canonical(golden_record(run_scenario(scenario)))


class TestCheckpoint:
    @pytest.fixture(scope="class")
    def uninterrupted(self):
        runner = SessionRunner(short_config())
        result = runner.run()
        return runner.state_digest(), result.power_report()

    @pytest.mark.parametrize("until", [2.7, 4.0],
                             ids=["mid-segment", "segment-boundary"])
    def test_resume_matches_uninterrupted(self, uninterrupted, until):
        runner = SessionRunner(short_config())
        runner.advance(until)
        document = json.loads(json.dumps(runner.checkpoint_document()))
        resumed = resume_runner(document)
        result = resumed.run()
        digest, report = uninterrupted
        assert resumed.state_digest() == digest
        assert result.power_report() == report


class TestSessionIntegration:
    def test_fast_forward_gate_declines_by_type(self):
        assert _gate(short_config()) == ("workload",)

    def test_power_trace_raises(self):
        result = SessionRunner(short_config()).run()
        with pytest.raises(ConfigurationError):
            result.power_trace()

    def test_quality_report_sees_every_segment(self):
        result = SessionRunner(short_config()).run()
        renders = result.application.renders
        for segment in result.segments:
            assert renders.count_in(segment.start_s, segment.end_s) == \
                len(segment.application.renders)
        assert result.quality_report() is not None

    def test_mismatched_total_rejected(self):
        with pytest.raises(ConfigurationError, match="total"):
            SessionConfig(app=ScenarioWorkload(SHORT_SEGMENTS),
                          duration_s=13.0)

    def test_monkey_rejected(self):
        with pytest.raises(ConfigurationError, match="monkey"):
            SessionConfig(app=ScenarioWorkload(SHORT_SEGMENTS),
                          duration_s=12.0,
                          monkey=MonkeyConfig(duration_s=12.0))

    def test_oracle_rejected(self):
        with pytest.raises(ConfigurationError, match="oracle"):
            SessionConfig(app=ScenarioWorkload(SHORT_SEGMENTS),
                          duration_s=12.0, governor="oracle")


class TestScenarioConfigValidation:
    def test_list_segments_are_hashable(self):
        config = ScenarioConfig(segments=list(SHORT_SEGMENTS))
        assert config.segments == SHORT_SEGMENTS
        assert hash(config) == hash(ScenarioConfig(segments=SHORT_SEGMENTS))

    def test_zero_decision_period_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(segments=SHORT_SEGMENTS, decision_period_s=0)

    def test_negative_boost_hold_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(segments=SHORT_SEGMENTS, boost_hold_s=-1)

    def test_unknown_app_rejected(self):
        with pytest.raises(WorkloadError):
            ScenarioConfig(segments=(ScenarioSegment("No Such App", 3.0),))
