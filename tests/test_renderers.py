"""Tests for pixel-content renderers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graphics.renderers import (
    FullScreenVideoRenderer,
    MovingSpritesRenderer,
    SceneChangeRenderer,
    ScrollRenderer,
    SmallRegionRenderer,
    StaticRenderer,
)
from repro.graphics.surface import Surface, fill_rect

from .reference import render_video_frame


@pytest.fixture
def surface():
    s = Surface(40, 30, name="test")
    s.pixels[:] = 128
    s.acknowledge_post()
    return s


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def changed_pixels(before, after):
    return int((before != after).any(axis=-1).sum())


class TestStaticRenderer:
    def test_changes_nothing(self, surface, rng):
        before = surface.pixels.copy()
        StaticRenderer().render(surface, rng)
        assert np.array_equal(surface.pixels, before)
        assert not surface.is_damaged


class TestScrollRenderer:
    def test_changes_pixels_and_damages(self, surface, rng):
        before = surface.pixels.copy()
        ScrollRenderer(scroll_px=4).render(surface, rng)
        assert changed_pixels(before, surface.pixels) > 0
        assert surface.is_damaged

    def test_shifts_content_up(self, surface, rng):
        surface.pixels[10, :] = 200
        before_row = surface.pixels[10].copy()
        ScrollRenderer(scroll_px=4).render(surface, rng)
        assert np.array_equal(surface.pixels[6], before_row)

    def test_scroll_larger_than_surface_clamped(self, rng):
        s = Surface(8, 4)
        ScrollRenderer(scroll_px=100).render(s, rng)  # must not raise

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            ScrollRenderer(scroll_px=0)


class TestSceneChangeRenderer:
    def test_changes_large_area(self, surface, rng):
        before = surface.pixels.copy()
        SceneChangeRenderer(num_rects=4).render(surface, rng)
        frac = changed_pixels(before, surface.pixels) / (40 * 30)
        assert frac > 0.05

    def test_invalid_fracs(self):
        with pytest.raises(ConfigurationError):
            SceneChangeRenderer(min_frac=0.7, max_frac=0.5)
        with pytest.raises(ConfigurationError):
            SceneChangeRenderer(min_frac=0.0)


class TestFullScreenVideoRenderer:
    def test_replaces_whole_frame(self, surface, rng):
        before = surface.pixels.copy()
        FullScreenVideoRenderer(block_px=8).render(surface, rng)
        frac = changed_pixels(before, surface.pixels) / (40 * 30)
        assert frac > 0.9

    def test_consecutive_frames_differ(self, surface, rng):
        r = FullScreenVideoRenderer(block_px=8)
        r.render(surface, rng)
        first = surface.pixels.copy()
        r.render(surface, rng)
        assert changed_pixels(first, surface.pixels) > 0

    @pytest.mark.parametrize("block_px", [*range(1, 21), 2000])
    @pytest.mark.parametrize("size", [(1, 1), (37, 23), (90, 160),
                                      (720, 1280)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_reference(self, size, block_px):
        # Pixels and generator state equal the np.repeat specification.
        width, height = size
        renderer = FullScreenVideoRenderer(block_px=block_px)
        for seed in (0, 1, 7):
            fast, spec = Surface(width, height), Surface(width, height)
            fast.pixels[:] = spec.pixels[:] = seed
            fast_rng = np.random.default_rng(seed)
            spec_rng = np.random.default_rng(seed)
            for _ in range(2):
                renderer.render(fast, fast_rng)
                render_video_frame(renderer, spec, spec_rng)
                assert np.array_equal(fast.pixels, spec.pixels)
                assert (fast_rng.bit_generator.state
                        == spec_rng.bit_generator.state)


class TestSmallRegionRenderer:
    def test_changes_only_region(self, surface, rng):
        before = surface.pixels.copy()
        SmallRegionRenderer(region_height=3, region_width=5,
                            y=2, x=4).render(surface, rng)
        diff = (before != surface.pixels).any(axis=-1)
        ys, xs = np.nonzero(diff)
        assert ys.min() >= 2 and ys.max() < 5
        assert xs.min() >= 4 and xs.max() < 9

    def test_region_outside_surface_rejected(self, rng):
        s = Surface(8, 8)
        r = SmallRegionRenderer(region_height=4, region_width=4, y=8, x=0)
        with pytest.raises(ConfigurationError):
            r.render(s, rng)

    @pytest.mark.parametrize("y, x", [(-3, -2), (-20, 0), (0, -1),
                                      (1.0, 0), (0, True)])
    def test_bad_offsets_rejected_at_construction(self, y, x):
        # A negative offset used to slice from the far edge: (-3, -2)
        # painted nothing yet marked the surface damaged, and y=-20
        # painted rows 10-15 of a 30-row surface.
        with pytest.raises(ConfigurationError):
            SmallRegionRenderer(region_height=6, region_width=8, y=y, x=x)


class TestFillRect:
    @pytest.mark.parametrize("y0, y1, x0, x1", [
        (0, 30, 0, 40), (3, 9, 5, 17), (29, 30, 0, 40), (0, 30, 39, 40),
        (5, 5, 0, 40), (0, 30, 7, 7), (25, 99, 35, 99), (-4, 30, 0, -3)])
    def test_matches_broadcast_assignment(self, y0, y1, x0, x1):
        start = np.random.default_rng(3).integers(
            0, 256, size=(30, 40, 3), dtype=np.uint8)
        color = np.array([7, 200, 31], dtype=np.uint8)
        expected = start.copy()
        expected[y0:y1, x0:x1] = color
        px = start.copy()
        fill_rect(px, y0, y1, x0, x1, color)
        np.testing.assert_array_equal(px, expected)


class TestMovingSpritesRenderer:
    def test_first_render_initialises_background(self, surface, rng):
        r = MovingSpritesRenderer(num_dots=3, dot_px=2, step_px=2,
                                  background=12)
        r.render(surface, rng)
        # Background everywhere except the dots.
        values = np.unique(surface.pixels)
        assert set(values.tolist()) <= {12, 255}

    def test_moves_change_bounded_area(self, surface, rng):
        r = MovingSpritesRenderer(num_dots=2, dot_px=2, step_px=4)
        r.render(surface, rng)
        before = surface.pixels.copy()
        r.render(surface, rng)
        changed = changed_pixels(before, surface.pixels)
        # At most 2 dots x (erase + draw) x dot area.
        assert 0 < changed <= 2 * 2 * (2 * 2)

    def test_full_step_keeps_old_and_new_disjoint(self, rng):
        s = Surface(100, 100)
        r = MovingSpritesRenderer(num_dots=1, dot_px=4, step_px=4)
        r.render(s, rng)
        before = s.pixels.copy()
        r.render(s, rng)
        changed = changed_pixels(before, s.pixels)
        # Away from borders the old and new areas are disjoint:
        # exactly 2 * dot area pixels change.
        if changed != 0:
            assert changed in (2 * 16, 16)  # 16 if clipped at a border

    def test_reset_reinitialises(self, surface, rng):
        r = MovingSpritesRenderer(num_dots=2, dot_px=2, step_px=2)
        r.render(surface, rng)
        r.reset()
        before = surface.pixels.copy()
        r.render(surface, rng)
        # Re-initialisation redraws the background + dots.
        assert changed_pixels(before, surface.pixels) >= 0
        assert surface.is_damaged

    def test_deterministic_given_rng(self):
        def run():
            s = Surface(40, 30)
            r = MovingSpritesRenderer(num_dots=3, dot_px=2, step_px=3)
            gen = np.random.default_rng(7)
            for _ in range(10):
                r.render(s, gen)
            return s.pixels.copy()

        assert np.array_equal(run(), run())

    def test_invalid_background_rejected(self):
        with pytest.raises(ConfigurationError):
            MovingSpritesRenderer(background=300)


def _renderer_family():
    """Every concrete renderer class, found by subclass walk."""
    import repro.apps  # noqa: F401  (imports every renderer user)
    from repro.graphics.renderers import Renderer

    found, pending = [], list(Renderer.__subclasses__())
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


class _Fill:
    """``Surface.fill`` with a colour drawn from the generator; two
    draws in three repeat the last colour."""

    def __init__(self):
        self.color = (0, 0, 0)

    def render(self, surface, rng):
        if rng.random() < 1 / 3:
            self.color = tuple(int(c) for c in rng.integers(0, 256, 3))
        surface.fill(self.color)


class TestDamageHonesty:
    """The compositor skips composites it proves identical, and the
    proof trusts ``Surface.is_damaged``: every render either marks the
    surface damaged or leaves its pixels byte-identical."""

    @pytest.mark.parametrize("size", [(90, 160), (720, 1280)],
                             ids=["90x160", "720x1280"])
    @pytest.mark.parametrize("make", _renderer_family() + [_Fill],
                             ids=lambda cls: cls.__name__)
    def test_render_damages_or_changes_nothing(self, make, size):
        width, height = size
        surface = Surface(width, height, name="honesty")
        renderer = make()
        rng = np.random.default_rng(7)
        damaged = 0
        for _ in range(12):
            surface.acknowledge_post()
            before = surface.pixels.copy()
            renderer.render(surface, rng)
            if surface.is_damaged:
                damaged += 1
            else:
                assert np.array_equal(surface.pixels, before)
        # StaticRenderer is the no-damage case; every other renderer
        # draws something.
        assert (damaged == 0) == (make is StaticRenderer)

    @pytest.mark.parametrize("size", [(90, 160), (45, 75)],
                             ids=["90x160", "45x75"])
    @pytest.mark.parametrize("make", _renderer_family() + [_Fill],
                             ids=lambda cls: cls.__name__)
    def test_overwrite_hides_every_stale_byte(self, make, size,
                                              monkeypatch):
        # A latched surface draws on into a back buffer holding a
        # stale frame.  A renderer that takes it through
        # ``overwrite_pixels`` skips the restore and so must assign
        # every pixel: the stale bytes, zeros or 0xFF, cannot show.
        calls = []
        overwrite = Surface.overwrite_pixels

        def counting_overwrite(surface):
            calls.append(surface.name)
            return overwrite(surface)

        monkeypatch.setattr(Surface, "overwrite_pixels",
                            counting_overwrite)
        results = []
        for stale in (0x00, 0xFF):
            surface = Surface(*size, name="honesty")
            renderer = make()
            rng = np.random.default_rng(7)
            for _ in range(3):
                renderer.render(surface, rng)
            # The latch: the surface's array goes on screen read-only
            # and a stale buffer becomes its back buffer.
            surface.pixels.flags.writeable = False
            surface.take_back_buffer(
                np.full(surface.pixels.shape, stale, dtype=np.uint8))
            calls.clear()
            renderer.render(surface, rng)
            results.append((bool(calls), surface.pixels.tobytes(),
                            rng.bit_generator.state))
        (used, first, state), (_, second, other_state) = results
        if used:
            assert first == second
            assert state == other_state
        if make in (FullScreenVideoRenderer, _Fill):
            assert used  # the full-frame writers skip the restore

    def test_family_covers_every_builtin_renderer(self):
        names = {cls.__name__ for cls in _renderer_family()}
        assert {"StaticRenderer", "ScrollRenderer",
                "SceneChangeRenderer", "FullScreenVideoRenderer",
                "SmallRegionRenderer",
                "MovingSpritesRenderer"} <= names
