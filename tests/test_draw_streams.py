"""Spec for the renderers' and the animation clock's cheap draw forms.

Each hot draw site calls the cheapest public ``Generator`` method that
returns the same values *and* leaves the generator in the same state
as the plain call it replaced (``docs/performance.md``, "Cheapest call,
same stream").  That equivalence rests on numpy internals:

* ``uniform(low, high)`` is ``low + (high - low) * next_double``, the
  double ``random()`` returns;
* a full-range ``uint8`` draw of size 3 takes one ``next_uint32`` and
  returns its low three bytes, low byte first; a full-range 32-bit
  ``integers(0, 1 << 32)`` returns that ``next_uint32`` as it is;
* a full-range ``uint8`` draw of ``n`` bytes takes ``ceil(n / 4)``
  ``next_uint32`` words and returns their bytes, low byte first, so
  it is the first ``n`` bytes of a full-range 32-bit draw of that many
  words;
* ``choice(a, size)`` with replacement and no ``p`` draws
  ``integers(0, len(a), size)`` and indexes ``a`` with it.

The first group of tests pins each row against the plain call over
many seeds and bounds, comparing values, dtypes and the full
``bit_generator.state`` (PCG64's half-used 32-bit buffer included).
The second renders Scene, SmallRegion and MovingSprites against a
local copy of their plain-call ``render`` bodies, with parameters the
renderer golden does not cover.  A new draw site proves its
equivalence here before it changes.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np
import pytest

from repro.graphics.renderers import (
    MovingSpritesRenderer,
    Renderer,
    SceneChangeRenderer,
    SmallRegionRenderer,
    _draw_colour,
)
from repro.graphics.surface import Surface, fill_rect

SEEDS = range(64)

#: ``(low, high)`` pairs of the uniform rows, equal bounds included.
BOUNDS: Tuple[Tuple[float, float], ...] = (
    (0.15, 0.6), (0.9, 1.0), (0.85, 1.15), (0.3, 0.3), (1.0, 1.0),
    (1e-3, 1.0), (0.05, 0.95), (0.2, 0.7000000000000001))


def _pair(seed: int) -> Tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def _buffer_step(a: np.random.Generator, b: np.random.Generator,
                 seen: List[int]) -> None:
    """A lone ``random()`` then a colour draw on both generators.

    ``random()`` leaves PCG64's buffered 32-bit half alone, and each
    colour draw flips it, so successive steps run every row with the
    buffer both empty and half used.
    """
    assert a.random() == b.random()
    old = a.integers(0, 256, size=3, dtype=np.uint8)
    assert tuple(old.tolist()) == _draw_colour(b)
    seen.append(a.bit_generator.state["has_uint32"])
    assert _same_state(a, b)


class TestUniformRow:
    def test_uniform_is_low_plus_span_times_random(self):
        buffered: List[int] = []
        for seed in SEEDS:
            a, b = _pair(seed)
            for low, high in BOUNDS:
                span = high - low
                for _ in range(4):
                    old = a.uniform(low, high)
                    new = low + span * b.random()
                    assert old == new
                    assert type(old) is type(new)
                    assert _same_state(a, b)
                _buffer_step(a, b, buffered)
        assert set(buffered) == {0, 1}

    def test_animation_jitter(self):
        buffered: List[int] = []
        for seed in SEEDS:
            a, b = _pair(seed)
            for rate in (1.0, 24.0, 59.94, 60.0, 1e-3):
                old = (1.0 / rate) * float(a.uniform(0.85, 1.15))
                new = (1.0 / rate) * (0.85 + (1.15 - 0.85) * b.random())
                assert old == new
                assert type(old) is type(new)
                assert _same_state(a, b)
                _buffer_step(a, b, buffered)
        assert set(buffered) == {0, 1}


class TestColourRow:
    def test_full_range_uint32_low_bytes(self):
        buffered: List[int] = []
        for seed in SEEDS:
            a, b = _pair(seed)
            for _ in range(5):
                old = a.integers(0, 256, size=3, dtype=np.uint8)
                new = _draw_colour(b)
                assert old.dtype == np.uint8 and old.shape == (3,)
                assert all(type(v) is int and 0 <= v <= 255 for v in new)
                assert np.array_equal(old, np.array(new, dtype=np.uint8))
                assert _same_state(a, b)
                assert a.random() == b.random()
                buffered.append(a.bit_generator.state["has_uint32"])
            assert _same_state(a, b)
        assert set(buffered) == {0, 1}

    def test_colour_writes_the_same_pixels(self):
        for seed in SEEDS:
            a, b = _pair(seed)
            old_px = np.zeros((3, 4, 3), dtype=np.uint8)
            new_px = np.zeros((3, 4, 3), dtype=np.uint8)
            for row in range(3):
                fill_rect(old_px, row, row + 1, 0, 4,
                          a.integers(0, 256, size=3, dtype=np.uint8))
                fill_rect(new_px, row, row + 1, 0, 4, _draw_colour(b))
            assert np.array_equal(old_px, new_px)
            assert _same_state(a, b)


class TestBlockRow:
    def test_uint8_blocks_are_uint32_bytes(self):
        buffered: List[int] = []
        for seed in SEEDS:
            a, b = _pair(seed)
            for n in (7, 180, 10800, 1, 3, 4, 5, 8):
                old = a.integers(0, 256, size=n, dtype=np.uint8)
                new = b.integers(0, 1 << 32, size=(n + 3) // 4,
                                 dtype=np.uint32).view(np.uint8)[:n]
                assert np.array_equal(old, new)
                assert old.dtype == new.dtype and old.shape == new.shape
                assert _same_state(a, b)
                _buffer_step(a, b, buffered)
        assert set(buffered) == {0, 1}


class TestChoiceRow:
    def test_choice_of_two_is_indexed_integers(self):
        buffered: List[int] = []
        for seed in SEEDS:
            a, b = _pair(seed)
            for step in (1, 3, 7):
                for n in range(1, 9):
                    old = a.choice([-step, step], size=(n, 2))
                    new = np.array((-step, step))[
                        b.integers(0, 2, size=(n, 2))]
                    assert np.array_equal(old, new)
                    assert old.dtype == new.dtype
                    assert old.shape == new.shape
                    assert _same_state(a, b)
                _buffer_step(a, b, buffered)
        assert set(buffered) == {0, 1}


# ----------------------------------------------------------------------
# Renderer level: today's renderers against their plain-call bodies
# ----------------------------------------------------------------------
def _plain_scene(renderer: SceneChangeRenderer, surface: Surface,
                 rng: np.random.Generator) -> None:
    h, w = surface.height, surface.width
    px = surface.pixels
    for _ in range(renderer.num_rects):
        rh = max(1, int(h * rng.uniform(renderer.min_frac,
                                        renderer.max_frac)))
        rw = max(1, int(w * rng.uniform(renderer.min_frac,
                                        renderer.max_frac)))
        y0 = int(rng.integers(0, h - rh + 1))
        x0 = int(rng.integers(0, w - rw + 1))
        color = rng.integers(0, 256, size=3, dtype=np.uint8)
        fill_rect(px, y0, y0 + rh, x0, x0 + rw, color)
    surface.mark_damaged()


def _plain_small(renderer: SmallRegionRenderer, surface: Surface,
                 rng: np.random.Generator) -> None:
    rh = min(renderer.region_height, surface.height - renderer.y)
    rw = min(renderer.region_width, surface.width - renderer.x)
    color = rng.integers(0, 256, size=3, dtype=np.uint8)
    fill_rect(surface.pixels, renderer.y, renderer.y + rh, renderer.x,
              renderer.x + rw, color)
    surface.mark_damaged()


def _plain_sprites(renderer: MovingSpritesRenderer, surface: Surface,
                   rng: np.random.Generator) -> None:
    if len(renderer._positions) != renderer.num_dots:
        renderer._initialise(surface, rng)
    px = surface.pixels
    d = renderer.dot_px
    for y, x in renderer._positions:
        px[y:y + d, x:x + d] = renderer.background
    max_y = max(0, surface.height - d)
    max_x = max(0, surface.width - d)
    steps = rng.choice([-renderer.step_px, renderer.step_px],
                       size=(renderer.num_dots, 2))
    renderer._positions = np.clip(renderer._positions + steps,
                                  [0, 0], [max_y, max_x])
    for y, x in renderer._positions:
        px[y:y + d, x:x + d] = 255
    surface.mark_damaged()


#: ``(width, height)`` sizes, two of them outside the renderer golden.
SIZES: Tuple[Tuple[int, int], ...] = ((1, 1), (37, 23), (90, 160))

#: Case label -> (renderer factory over ``(width, height)``, plain body).
CASES = {
    **{f"scene{n}": (lambda w, h, n=n: SceneChangeRenderer(num_rects=n),
                     _plain_scene) for n in range(1, 9)},
    "scene_fixed_frac": (lambda w, h: SceneChangeRenderer(
        num_rects=5, min_frac=0.35, max_frac=0.35), _plain_scene),
    "scene_whole": (lambda w, h: SceneChangeRenderer(
        num_rects=2, min_frac=1.0, max_frac=1.0), _plain_scene),
    "scene_tiny": (lambda w, h: SceneChangeRenderer(
        num_rects=7, min_frac=0.01, max_frac=0.05), _plain_scene),
    "small_pixel": (lambda w, h: SmallRegionRenderer(1, 1), _plain_small),
    "small_far": (lambda w, h: SmallRegionRenderer(
        3, 5, y=h - 1, x=w - 1), _plain_small),
    "small_wide": (lambda w, h: SmallRegionRenderer(
        50, 200, y=h // 2, x=w // 3), _plain_small),
    "sprites_one": (lambda w, h: MovingSpritesRenderer(
        num_dots=1, dot_px=1, step_px=1), _plain_sprites),
    "sprites_many": (lambda w, h: MovingSpritesRenderer(
        num_dots=8, dot_px=3, step_px=2, background=0), _plain_sprites),
    "sprites_big_step": (lambda w, h: MovingSpritesRenderer(
        num_dots=3, dot_px=2, step_px=11), _plain_sprites),
}


def _digest(surface: Surface) -> str:
    return hashlib.sha256(surface.pixels.tobytes()).hexdigest()


@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("case", sorted(CASES))
def test_renderer_matches_plain_body(case, size):
    width, height = size
    make, plain = CASES[case]
    for seed in (0, 1, 2, 11):
        start = np.random.default_rng(seed + 100).integers(
            0, 256, size=(height, width, 3), dtype=np.uint8)
        fast_surface = Surface(width, height)
        plain_surface = Surface(width, height)
        fast_surface.pixels[:] = start
        plain_surface.pixels[:] = start
        fast: Renderer = make(width, height)
        reference = make(width, height)
        fast_rng, plain_rng = _pair(seed)
        for _ in range(12):
            fast.render(fast_surface, fast_rng)
            plain(reference, plain_surface, plain_rng)
            assert _digest(fast_surface) == _digest(plain_surface)
            assert _same_state(fast_rng, plain_rng)
