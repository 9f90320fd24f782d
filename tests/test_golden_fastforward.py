"""Golden pin for sessions the V-Sync fast-forward covers.

Each case runs one session on :class:`SessionRunner`, stopping at three
advance boundaries on the way, and compares against
``tests/data/golden_fastforward.json``: the ``state_digest`` and
``events_processed`` at every boundary, and the final summary, byte for
byte.  The cases are idle-heavy on purpose (an always-on reading
screen), so most of their V-Syncs and governor ticks are the ones the
runner proves inert and skips; any drift between skipping and firing a
tick shows here.  ``section+hysteresis`` is a session the fast-forward
never covers, pinned alongside so the gate stays honest too.

Regenerate the file only when a change is *meant* to alter outputs::

    PYTHONPATH=src python -m tests.test_golden_fastforward
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict

import pytest

from repro.analysis.export import json_sanitize, session_summary_dict
from repro.apps.profile import AppCategory, AppProfile, RenderStyle
from repro.pipeline import PANELS
from repro.sim.runner import SessionRunner
from repro.sim.session import SessionConfig

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_fastforward.json"

#: A static reading screen: a content change every ~20 s, a 1 fps
#: re-post of the unchanged frame in between, almost no touches.
READER = AppProfile(
    name="always-on reader", category=AppCategory.GENERAL,
    idle_content_fps=0.05, active_content_fps=2.0,
    idle_submit_fps=1.0, touch_events_per_s=0.02,
    render_style=RenderStyle.SMALL_REGION)

#: Sim times at which each case stops and records its state.
BOUNDARIES = (4.1, 12.5, 21.7)


def _reader(governor: str, **kwargs: Any) -> SessionConfig:
    return SessionConfig(app=READER, governor=governor, duration_s=30.0,
                         seed=3, **kwargs)


CASES: Dict[str, SessionConfig] = {
    "reader/ltpo-120/fixed": _reader("fixed",
                                     panel=PANELS.get("ltpo-120")()),
}
for _governor in ("fixed", "section", "section+boost", "naive",
                  "section+hysteresis"):
    CASES[f"reader/{_governor}"] = _reader(_governor)
CASES["reader/section/oled"] = _reader("section", track_oled=True)
CASES["reader/section+boost/status-bar"] = _reader("section+boost",
                                                   status_bar=True)


def golden_record(config: SessionConfig) -> Dict[str, Any]:
    """Everything the golden pins for one session."""
    runner = SessionRunner(config)
    boundaries = []
    for until in BOUNDARIES:
        runner.advance(until)
        boundaries.append({"until": until,
                           "events_processed": runner.sim.events_processed,
                           "state_digest": runner.state_digest()})
    result = runner.run()
    return {"boundaries": boundaries,
            "events_processed": runner.sim.events_processed,
            "state_digest": runner.state_digest(),
            "summary": json_sanitize(session_summary_dict(result))}


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
