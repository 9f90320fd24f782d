"""Golden pin for the renderers' pixels and random draws.

Each case renders one renderer (or ``Surface.fill``) about twenty times
into a seeded surface and records the sha256 of the pixels after every
render plus a digest of the final generator state.  Matching hashes
mean the same pixels; a matching state digest means the same draws in
the same order.  ``golden_catalog.json`` hashes only each session's
final frame, so an intermediate pixel difference would slip past it.

Sizes cover the reduced 90x160 surface, the paper's native 720x1280,
and 37x23, where ``block_px`` divides neither side.

Regenerate the file only when a change is *meant* to alter pixels or
draws::

    PYTHONPATH=src python -m tests.test_golden_renderers
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.graphics.renderers import (
    FullScreenVideoRenderer,
    MovingSpritesRenderer,
    Renderer,
    SceneChangeRenderer,
    ScrollRenderer,
    SmallRegionRenderer,
    StaticRenderer,
)
from repro.graphics.surface import Surface

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_renderers.json"

#: ``(width, height)`` surface sizes.
SIZES: Tuple[Tuple[int, int], ...] = ((90, 160), (720, 1280), (37, 23))

#: Renders per case.
RENDERS = 20


class _Fill(Renderer):
    """``Surface.fill`` with a colour drawn from the generator."""

    def render(self, surface: Surface, rng: np.random.Generator) -> None:
        color = rng.integers(0, 256, size=3, dtype=np.uint8)
        surface.fill((int(color[0]), int(color[1]), int(color[2])))


#: Case label -> renderer factory taking ``(width, height)``.
RENDERERS: Dict[str, Callable[[int, int], Renderer]] = {
    "static": lambda w, h: StaticRenderer(),
    "scroll8": lambda w, h: ScrollRenderer(scroll_px=8),
    "scroll_tall": lambda w, h: ScrollRenderer(scroll_px=h + 5),
    "scene4": lambda w, h: SceneChangeRenderer(num_rects=4),
    "scene_full": lambda w, h: SceneChangeRenderer(num_rects=3,
                                                   min_frac=0.9,
                                                   max_frac=1.0),
    "video16": lambda w, h: FullScreenVideoRenderer(block_px=16),
    "video7": lambda w, h: FullScreenVideoRenderer(block_px=7),
    "video_huge": lambda w, h: FullScreenVideoRenderer(block_px=2000),
    "small_corner": lambda w, h: SmallRegionRenderer(6, 24),
    "small_inset": lambda w, h: SmallRegionRenderer(6, 24, y=h // 3,
                                                    x=w // 4),
    "small_clipped": lambda w, h: SmallRegionRenderer(6, 24, y=h - 2,
                                                      x=w - 5),
    "sprites": lambda w, h: MovingSpritesRenderer(num_dots=6, dot_px=2,
                                                  step_px=3),
    "fill": lambda w, h: _Fill(),
}

CASES: List[str] = [f"{name}@{w}x{h}" for name in RENDERERS
                    for w, h in SIZES]


def _state_digest(rng: np.random.Generator) -> str:
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    return hashlib.sha256(state.encode()).hexdigest()


def golden_record(case: str) -> Dict[str, object]:
    """Per-render pixel hashes and the final generator digest."""
    name, size = case.split("@")
    width, height = (int(v) for v in size.split("x"))
    surface = Surface(width, height, name=case)
    # Non-uniform start content, so scrolls and partial writes show.
    surface.pixels[:] = np.random.default_rng(99).integers(
        0, 256, size=surface.pixels.shape, dtype=np.uint8)
    renderer = RENDERERS[name](width, height)
    rng = np.random.default_rng(7)
    pixels: List[str] = []
    for _ in range(RENDERS):
        renderer.render(surface, rng)
        pixels.append(hashlib.sha256(surface.pixels.tobytes()).hexdigest())
    return {"pixels": pixels, "rng_state": _state_digest(rng)}


def canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_renderer_matches_golden(golden, case):
    assert golden_record(case) == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(canonical(
        {case: golden_record(case) for case in CASES}) + "\n")
    print(f"wrote {GOLDEN} ({len(CASES)} cases)")
