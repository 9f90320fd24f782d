"""Golden pin for catalog sessions.

Each case runs one session on :class:`SessionRunner` and
compares its summary, its ``state_digest`` and the meter's counters
byte for byte against ``tests/data/golden_catalog.json``.  Together
they fix every number a catalog session reports, so a
performance change to the frame path (compositor, meter, OLED pricing)
that alters any output fails here.

Regenerate the file only when a change is *meant* to alter outputs::

    PYTHONPATH=src python -m tests.test_golden_catalog
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict

import pytest

from repro.analysis.export import json_sanitize, session_summary_dict
from repro.sim.runner import SessionRunner
from repro.sim.session import MeterConfig, SessionConfig

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_catalog.json"

#: Case name -> session config.  Catalog apps covering a scroller, a
#: redundant-heavy game and video, under the fixed baseline (meter
#: attached but unused) and the paper's full governor.
CASES: Dict[str, SessionConfig] = {
    f"{app}/{governor}": SessionConfig(app=app, governor=governor,
                                       duration_s=10.0, seed=7)
    for app in ("Facebook", "Jelly Splash", "MX Player")
    for governor in ("fixed", "section+boost")
}
CASES["Jelly Splash/section+boost/oled"] = SessionConfig(
    app="Jelly Splash", governor="section+boost", duration_s=10.0,
    seed=7, track_oled=True)
CASES["Jelly Splash/section+boost/native"] = SessionConfig(
    app="Jelly Splash", governor="section+boost", duration_s=4.0,
    seed=7, resolution_divisor=1)
# Video at the panel's native 720x1280: every composite is meaningful,
# so each one takes the full blit, present and ground-truth compare.
CASES["MX Player/fixed/native"] = SessionConfig(
    app="MX Player", governor="fixed", duration_s=4.0, seed=7,
    resolution_divisor=1)
CASES["Asphalt 8/section/native"] = SessionConfig(
    app="Asphalt 8", governor="section", duration_s=4.0, seed=7,
    resolution_divisor=1)
CASES["Facebook/section/sampled-store"] = SessionConfig(
    app="Facebook", governor="section", duration_s=10.0, seed=7,
    meter=MeterConfig(store_full_frames=False, min_changed_cells=3))


def golden_record(config: SessionConfig) -> Dict[str, Any]:
    """Everything the golden pins for one session."""
    runner = SessionRunner(config)
    result = runner.run()
    meter = result.meter
    record: Dict[str, Any] = {
        "summary": json_sanitize(session_summary_dict(result)),
        "state_digest": runner.state_digest(),
        "meter": {
            "comparisons": meter.comparator.comparisons,
            "mismatches": meter.comparator.mismatches,
            "bytes_copied": meter.bytes_copied,
            "total_frames": meter.total_frames,
            "total_meaningful": meter.total_meaningful,
        },
    }
    if result.oled_tracker is not None:
        record["oled_evaluations"] = result.oled_tracker.evaluations
    return record


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_session_matches_golden(golden, name):
    assert canonical(golden_record(CASES[name])) == canonical(golden[name])


if __name__ == "__main__":
    GOLDEN.write_text(canonical(
        {name: golden_record(config) for name, config in CASES.items()})
        + "\n")
    print(f"wrote {GOLDEN} ({len(CASES)} sessions)")
