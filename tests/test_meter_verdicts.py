"""Golden pin for the content-rate meter's verdicts.

Two things are fixed byte for byte against
``tests/data/golden_meter_verdicts.json``:

* Figure 6's accuracy sweep (``fig6.run_accuracy`` on the moving-dots
  wallpaper at the panel's native 720x1280): the measured and actual
  meaningful-frame counts per pixel budget and each meter's comparison
  counters;
* a framebuffer listener that writes the framebuffer from inside its
  own update callback, registered before and after the meter: frame
  counts, comparator counters and the meaningful-frame times.

Any change to how the meter reads frames must leave all of it as is.
Regenerate the file only when a change is *meant* to alter verdicts::

    PYTHONPATH=src python -m tests.test_meter_verdicts
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict

import numpy as np
import pytest

from repro.core.content_rate import ContentRateMeter, MeterConfig
from repro.experiments import fig6
from repro.graphics.compositor import SurfaceManager
from repro.graphics.framebuffer import Framebuffer
from repro.graphics.surface import Surface

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_meter_verdicts.json"


def fig6_record() -> Dict[str, Any]:
    """Figure 6's accuracy sweep with each budget's meter counters."""
    meters = []
    run_fixed_baseline = fig6.run_fixed_baseline

    def capturing(*args, **kwargs):
        session = run_fixed_baseline(*args, **kwargs)
        meters.append(session.meter)
        return session

    fig6.run_fixed_baseline = capturing
    try:
        accuracy = fig6.run_accuracy(duration_s=5.0, seed=3)
    finally:
        fig6.run_fixed_baseline = run_fixed_baseline
    return {
        budget.label: {
            "measured_meaningful": budget.measured_meaningful,
            "actual_meaningful": budget.actual_meaningful,
            "comparisons": meter.comparator.comparisons,
            "mismatches": meter.comparator.mismatches,
        }
        for budget, meter in zip(accuracy, meters)
    }


def reentrant_record(meter_first: bool) -> Dict[str, Any]:
    """A listener that writes the framebuffer during some updates.

    The compositor shows a surface whose fill changes now and then; at
    three update times the scribbler writes a frame of its own from
    inside its callback, once during a proven-unchanged update.  Each
    scribble differs from every other frame shown.
    """
    fb = Framebuffer(24, 40)
    sm = SurfaceManager(fb)
    surface = Surface(24, 40, name="app")
    sm.register_surface(surface)
    scribbles = {1.0: 77, 3.0: 91, 5.0: 123}
    fired = []

    def scribbler(time, framebuffer):
        if time in scribbles and time not in fired:
            fired.append(time)
            framebuffer.write(np.full(framebuffer.shape, scribbles[time],
                                      dtype=np.uint8), time)

    if meter_first:
        meter = ContentRateMeter(fb, MeterConfig(sample_count=60))
        fb.add_update_listener(scribbler)
    else:
        fb.add_update_listener(scribbler)
        meter = ContentRateMeter(fb, MeterConfig(sample_count=60))
    fills = {1.0: 3, 2.0: 3, 3.0: 5, 4.0: 5, 5.0: 5, 6.0: 5, 7.0: 9}
    for time, fill in fills.items():
        if fill != surface.pixels[0, 0, 0]:
            surface.fill((fill, fill, fill))
        sm.post(surface)
        sm.on_vsync(time)
    assert fired == sorted(scribbles)
    return {
        "total_frames": meter.total_frames,
        "total_meaningful": meter.total_meaningful,
        "comparisons": meter.comparator.comparisons,
        "mismatches": meter.comparator.mismatches,
        "meaningful_times": list(meter.meaningful_frames.times),
        "unchanged_updates": sm.redundant_compositions,
    }


def golden_records() -> Dict[str, Any]:
    return {
        "fig6_accuracy": fig6_record(),
        "reentrant/meter_first": reentrant_record(meter_first=True),
        "reentrant/meter_last": reentrant_record(meter_first=False),
    }


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_fig6_accuracy_matches_golden(golden):
    assert canonical(fig6_record()) == canonical(golden["fig6_accuracy"])


@pytest.mark.parametrize("meter_first", [True, False],
                         ids=["meter_first", "meter_last"])
def test_reentrant_write_matches_golden(golden, meter_first):
    name = "reentrant/" + ("meter_first" if meter_first else "meter_last")
    assert canonical(reentrant_record(meter_first)) == canonical(golden[name])


if __name__ == "__main__":
    GOLDEN.write_text(canonical(golden_records()) + "\n")
    print(f"wrote {GOLDEN}")
