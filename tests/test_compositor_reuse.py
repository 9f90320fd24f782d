"""Compositor buffer reuse against a brute-force composite.

The compositor re-zeroes its composition buffer only when the surface
rects changed since that buffer was last composited, swaps its two
buffers instead of copying the new frame, and compares frames as wide
words.  None of that may be visible: after every V-Sync the
framebuffer must hold exactly zeros plus the z-ordered blits of the
registered surfaces (or a later foreign write), and the ground-truth
redundancy count must equal a brute-force ``np.array_equal`` count.

The random walk over a full-screen surface and an overlay registers
and unregisters both, moves the overlay by assigning
``surface.x``/``surface.y``, redraws and reposts surfaces (also as
declared-idle reposts), flips only the first or only the last byte
of the base surface and writes the framebuffer from outside, on frames
whose byte counts are a multiple of 8, of 4 only, of 2 only and odd,
including frames too small for the compare's leading slice to hold a
single word.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphics.compositor import SurfaceManager, _word_dtype
from repro.graphics.framebuffer import Framebuffer
from repro.graphics.surface import Surface, fill_rect


def _random_color(rng: np.random.Generator) -> np.ndarray:
    # Few levels, so redraws often repeat colours and some composites
    # are redundant.
    return rng.integers(0, 3, size=3, dtype=np.uint8) * 120


def _draw(surface: Surface, rng: np.random.Generator) -> None:
    y0 = int(rng.integers(0, surface.height))
    x0 = int(rng.integers(0, surface.width))
    y1 = int(rng.integers(y0 + 1, surface.height + 1))
    x1 = int(rng.integers(x0 + 1, surface.width + 1))
    fill_rect(surface.pixels, y0, y1, x0, x1, _random_color(rng))
    surface.mark_damaged()


def _brute_composite(shape, surfaces) -> np.ndarray:
    frame = np.zeros(shape, dtype=np.uint8)
    for surface in sorted(surfaces, key=lambda s: s.z_order):
        y0, x0, y1, x1 = surface.rect
        frame[y0:y1, x0:x1] = surface.pixels
    return frame


def _walk(width: int, height: int, seed: int, steps: int = 300) -> None:
    rng = np.random.default_rng(seed)
    fb = Framebuffer(width, height)
    comp = SurfaceManager(fb)
    base = Surface(width, height, name="base", z_order=0)
    overlay = Surface(min(3, width), min(2, height), name="overlay",
                      z_order=1)
    base.fill((40, 40, 40))
    overlay.fill((200, 10, 90))
    comp.register_surface(base)
    comp.register_surface(overlay)
    registered = {"base": base, "overlay": overlay}

    previous_composite = np.zeros(fb.shape, dtype=np.uint8)
    expected_fb = fb.pixels.copy()
    redundant = 0
    for step in range(steps):
        for _ in range(int(rng.integers(1, 4))):
            op = int(rng.integers(0, 10))
            # The surface an op acts on: base for even ops, else overlay.
            surface = base if op % 2 == 0 else overlay
            on_screen = surface.name in registered
            if op in (0, 1) and on_screen:
                _draw(surface, rng)
                comp.post(surface)
            elif op in (2, 3) and on_screen:
                comp.post(surface, content_changed=False)
            elif op == 4:
                overlay.x = int(rng.integers(0, width - overlay.width + 1))
                overlay.y = int(rng.integers(0,
                                             height - overlay.height + 1))
                if "overlay" in registered and rng.random() < 0.5:
                    comp.post(overlay, content_changed=False)
            elif op in (5, 7):
                # Unregister or re-register; base off screen exposes
                # the zeros around the overlay.
                surface = base if op == 7 else overlay
                if surface.name in registered:
                    comp.unregister_surface(surface)
                    del registered[surface.name]
                else:
                    comp.register_surface(surface)
                    registered[surface.name] = surface
                for other in registered.values():
                    comp.post(other, content_changed=False)
            elif op == 6:
                foreign = rng.integers(0, 256, size=fb.shape,
                                       dtype=np.uint8)
                fb.write(foreign, float(step))
                expected_fb = foreign
            elif op == 8 and "base" in registered:
                comp.post(base)  # a redundant frame: nothing redrawn
            elif op == 9 and "base" in registered:
                # The frame's first or last word alone differs (unless
                # the overlay hides that pixel).
                flat = base.pixels.reshape(-1)
                flat[0 if rng.random() < 0.5 else -1] ^= 1
                base.mark_damaged()
                comp.post(base)
        if comp.on_vsync(float(step)):
            frame = _brute_composite(fb.shape, registered.values())
            redundant += int(np.array_equal(frame, previous_composite))
            previous_composite = frame
            expected_fb = frame
        assert np.array_equal(fb.pixels, expected_fb), step
        assert comp.redundant_compositions == redundant, step
    # The walk must actually exercise both verdicts.
    assert 0 < comp.redundant_compositions < comp.compositions


@pytest.mark.parametrize("fast_path", [False, True],
                         ids=["full", "fast-path"])
@pytest.mark.parametrize("width, height", [
    (8, 6), (10, 6), (7, 5), (1, 1), (2, 3), (40, 30)],
    ids=["144B", "180B", "105B", "3B", "18B", "3600B"])
@pytest.mark.parametrize("seed", range(4))
def test_reuse_matches_brute_force(width, height, fast_path, seed,
                                   monkeypatch):
    if not fast_path:
        # Composite every post in full: the coherence check never
        # absorbs one.
        monkeypatch.setattr(SurfaceManager, "_absorbs_pending_posts",
                            lambda self: False)
    _walk(width, height, seed)


@pytest.mark.parametrize("nbytes, word", [
    (144, np.uint64), (180, np.uint32), (90, np.uint16), (105, np.uint8),
    (160 * 90 * 3, np.uint64), (1280 * 720 * 3, np.uint64)])
def test_compare_word_is_widest_divisor(nbytes, word):
    assert _word_dtype(nbytes) == np.dtype(word)


def test_moving_a_surface_defeats_the_fast_path():
    # An idle repost of a moved surface declares its pixels unchanged,
    # but the frame changes: the composite must run.
    fb = Framebuffer(8, 6)
    comp = SurfaceManager(fb)
    overlay = Surface(2, 2, name="overlay")
    overlay.fill((9, 9, 9))
    comp.register_surface(overlay)
    comp.post(overlay)
    comp.on_vsync(0.0)
    overlay.x = 5
    comp.post(overlay, content_changed=False)
    comp.on_vsync(1.0)
    np.testing.assert_array_equal(
        fb.pixels, _brute_composite(fb.shape, [overlay]))
    assert comp.redundant_compositions == 0


@pytest.mark.parametrize("width, height", [
    (1, 1), (2, 3), (8, 6), (7, 5), (40, 30), (160, 90), (720, 1280)])
def test_early_exit_compare_equals_array_equal(width, height):
    # One flipped byte on each side of every stage boundary, in the
    # middle and at both ends of the frame, and no flip at all.
    comp = SurfaceManager(Framebuffer(width, height))
    rng = np.random.default_rng(width * height)
    a = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    nbytes = a.nbytes
    word = _word_dtype(nbytes).itemsize
    positions = {0, nbytes // 2, nbytes - 1}
    for stop in comp._stops:
        positions |= {stop * word - 1, min(stop * word, nbytes - 1)}
    assert comp._frames_equal(a, a.copy())
    for position in sorted(positions):
        b = a.copy()
        b.reshape(-1)[position] ^= 0x80
        assert not np.array_equal(a, b)
        assert not comp._frames_equal(a, b), position


def test_compare_reads_a_small_frame_in_two(monkeypatch):
    # A 160x90 frame differing after the head costs exactly the head
    # read and one read of the rest.
    comp = SurfaceManager(Framebuffer(160, 90))
    a = np.zeros((90, 160, 3), dtype=np.uint8)
    b = a.copy()
    b[-1, -1, -1] = 1
    calls = []
    array_equal = np.array_equal

    def counted(x, y):
        calls.append((x.size, y.size))
        return array_equal(x, y)

    monkeypatch.setattr(np, "array_equal", counted)
    assert not comp._frames_equal(a, b)
    assert calls == [(84, 84), (5316, 5316)]
