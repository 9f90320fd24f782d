"""Golden pin for multi-app scenarios.

Runs the three-segment scenario of ``tests/test_scenario.py``
(KakaoTalk -> Jelly Splash -> Facebook, 12 s each, seed 3) under four
governors and compares against ``tests/data/golden_scenario.json``:
the per-segment and total energy breakdowns, the mean refresh rate,
both composition counts, the meter's frame and byte counters, and
sha256 digests of the panel's rate-history transitions and of the
touch times.  Floats are pinned as ``repr`` strings, so any drift in
how a scenario is assembled, run or priced shows here bit for bit.

Regenerate the file only when a change is *meant* to alter outputs::

    PYTHONPATH=src python -m tests.test_golden_scenario
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Any, Dict

import numpy as np
import pytest

from repro.power.model import PowerReport
from repro.sim.scenario import (
    ScenarioConfig,
    ScenarioResult,
    ScenarioSegment,
    run_scenario,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_scenario.json"

GOVERNORS = ("fixed", "section+boost", "e3", "luminance")


def scenario_config(governor: str) -> ScenarioConfig:
    return ScenarioConfig(segments=(
        ScenarioSegment("KakaoTalk", 12.0),
        ScenarioSegment("Jelly Splash", 12.0),
        ScenarioSegment("Facebook", 12.0),
    ), governor=governor, seed=3)


def _sha256(array: Any) -> str:
    data = np.asarray(array, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()


def _breakdown(report: PowerReport) -> Dict[str, str]:
    fields = {f.name: repr(getattr(report.breakdown, f.name))
              for f in dataclasses.fields(report.breakdown)}
    fields["energy_mj"] = repr(report.energy_mj)
    return fields


def golden_record(result: ScenarioResult) -> Dict[str, Any]:
    """Everything the golden pins for one scenario run."""
    times, values = result.panel.rate_history.transitions
    return {
        "segments": [_breakdown(result.segment_power(segment))
                     for segment in result.segments],
        "total": _breakdown(result.power_report()),
        "mean_refresh_rate_hz": repr(result.mean_refresh_rate_hz),
        "compositions": len(result.compositions),
        "meaningful_compositions": len(result.meaningful_compositions),
        "meter_total_frames": result.meter.total_frames,
        "meter_bytes_copied": result.meter.bytes_copied,
        "rate_history_sha256": _sha256(np.concatenate([times, values])),
        "touch_times_sha256": _sha256(result.touch_script.times),
    }


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_governor(golden):
    assert sorted(golden) == sorted(GOVERNORS)


@pytest.mark.parametrize("governor", GOVERNORS)
def test_scenario_matches_golden(golden, governor):
    record = golden_record(run_scenario(scenario_config(governor)))
    assert canonical(record) == canonical(golden[governor])


if __name__ == "__main__":
    GOLDEN.write_text(canonical(
        {governor: golden_record(run_scenario(scenario_config(governor)))
         for governor in GOVERNORS}) + "\n")
    print(f"wrote {GOLDEN} ({len(GOVERNORS)} scenarios)")
