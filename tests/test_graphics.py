"""Tests for the graphics stack: framebuffer, surfaces, compositor."""

import numpy as np
import pytest

from repro.errors import GraphicsError
from repro.graphics.compositor import SurfaceManager
from repro.graphics.framebuffer import Framebuffer
from repro.graphics.surface import Surface


@pytest.fixture
def fb():
    return Framebuffer(width=16, height=12)


class TestFramebuffer:
    def test_geometry(self, fb):
        assert fb.shape == (12, 16, 3)
        assert fb.pixel_count == 192

    def test_starts_black_generation_zero(self, fb):
        assert fb.generation == 0
        assert fb.pixels.sum() == 0

    def test_write_replaces_pixels_and_bumps_generation(self, fb):
        frame = np.full((12, 16, 3), 7, dtype=np.uint8)
        fb.write(frame, time=1.0)
        assert fb.generation == 1
        assert fb.last_update_time == 1.0
        assert (fb.pixels == 7).all()

    def test_write_copies_not_aliases(self, fb):
        frame = np.full((12, 16, 3), 7, dtype=np.uint8)
        fb.write(frame, time=1.0)
        frame[:] = 99
        assert (fb.pixels == 7).all()

    def test_write_wrong_shape_rejected(self, fb):
        with pytest.raises(GraphicsError):
            fb.write(np.zeros((12, 15, 3), dtype=np.uint8), 0.0)

    def test_write_wrong_dtype_rejected(self, fb):
        with pytest.raises(GraphicsError):
            fb.write(np.zeros((12, 16, 3), dtype=np.float32), 0.0)

    def test_update_listeners_fire(self, fb):
        seen = []
        fb.add_update_listener(lambda t, f: seen.append((t, f.generation)))
        fb.write(np.zeros((12, 16, 3), dtype=np.uint8), 2.0)
        assert seen == [(2.0, 1)]

    def test_remove_listener(self, fb):
        seen = []

        def listener(t, f):
            seen.append(t)

        fb.add_update_listener(listener)
        fb.remove_update_listener(listener)
        fb.write(np.zeros((12, 16, 3), dtype=np.uint8), 1.0)
        assert seen == []

    def test_remove_unknown_listener_rejected(self, fb):
        with pytest.raises(GraphicsError):
            fb.remove_update_listener(lambda t, f: None)

    def test_snapshot_is_independent(self, fb):
        snap = fb.snapshot()
        fb.write(np.full((12, 16, 3), 5, dtype=np.uint8), 1.0)
        assert snap.sum() == 0


class TestFramebufferPresent:
    def test_present_shows_the_frame_itself_read_only(self, fb):
        frame = np.full((12, 16, 3), 7, dtype=np.uint8)
        seen = []
        fb.add_update_listener(
            lambda t, f: seen.append((t, f.generation,
                                      f.last_write_unchanged)))
        fb.present(frame, time=2.0)
        assert fb.pixels is frame
        assert seen == [(2.0, 1, False)]
        assert fb.last_update_time == 2.0
        assert not frame.flags.writeable
        with pytest.raises(ValueError):
            fb.pixels[...] = 1
        assert (frame == 7).all()

    def test_write_after_present_leaves_presented_frame_alone(self, fb):
        frame = np.full((12, 16, 3), 7, dtype=np.uint8)
        fb.present(frame, 1.0)
        fb.write(np.full((12, 16, 3), 9, dtype=np.uint8), 2.0)
        assert (frame == 7).all()
        assert fb.pixels is not frame
        assert (fb.pixels == 9).all()
        assert fb.pixels.flags.writeable
        assert fb.generation == 2

    def test_foreign_write_keeps_compositor_previous_composite(self):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        surface = Surface(16, 12, name="app")
        sm.register_surface(surface)
        surface.fill((5, 6, 7))
        sm.post(surface)
        sm.on_vsync(1.0)
        composite = fb.pixels
        fb.write(np.full((12, 16, 3), 9, dtype=np.uint8), 1.5)
        assert (composite == [5, 6, 7]).all()
        # Reposting the unchanged surface is redundant against the
        # compositor's own last composite, and repaints over the
        # foreign frame.
        sm.post(surface)
        sm.on_vsync(2.0)
        assert sm.redundant_compositions == 1
        assert not fb.last_write_unchanged
        assert (fb.pixels == [5, 6, 7]).all()

    def test_compositor_hands_back_only_replaced_frames(self):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        surface = Surface(16, 12, name="app")
        sm.register_surface(surface)
        previous = None
        for step, level in enumerate((10, 20, 30, 30, 40)):
            surface.fill((level, level, level))
            sm.post(surface)
            sm.on_vsync(float(step))
            shown = fb.pixels
            assert not shown.flags.writeable
            assert (shown == level).all()
            if previous is not None and previous is not shown:
                # Replaced on screen: the compositor's scratch again.
                assert previous.flags.writeable
            previous = shown
        assert sm.redundant_compositions == 1

    @pytest.mark.parametrize("frame", [
        np.zeros((12, 15, 3), dtype=np.uint8),
        np.zeros((12, 16, 3), dtype=np.uint16),
        np.zeros((12, 32, 3), dtype=np.uint8)[:, ::2],
    ], ids=["shape", "dtype", "strided"])
    def test_present_rejects_bad_frames(self, fb, frame):
        with pytest.raises(GraphicsError):
            fb.present(frame, 1.0)
        assert fb.generation == 0
        assert frame.flags.writeable


class TestFramebufferPreviousPixels:
    """``previous_pixels`` is the frame an update replaced, intact while
    the update's listeners run."""

    @staticmethod
    def _record(fb):
        seen = []
        fb.add_update_listener(lambda t, f: seen.append(
            (f.previous_pixels.copy(), f.pixels.copy(),
             f.previous_pixels is f.pixels)))
        return seen

    def test_write_after_write_keeps_the_replaced_frame(self, fb):
        seen = self._record(fb)
        source = np.full(fb.shape, 1, dtype=np.uint8)
        fb.write(source, 1.0)
        source[:] = 2  # the source changes between writes
        fb.write(source, 2.0)
        source[:] = 3
        fb.write(source, 3.0)
        assert [(int(prev.max()), int(cur.max()), same)
                for prev, cur, same in seen] == [
            (0, 1, False), (1, 2, False), (2, 3, False)]

    def test_write_of_its_own_pixels(self, fb):
        fb.write(np.full(fb.shape, 4, dtype=np.uint8), 1.0)
        seen = self._record(fb)
        fb.write(fb.pixels, 2.0)
        ((prev, cur, same),) = seen
        assert not same
        assert (prev == 4).all() and (cur == 4).all()

    def test_present_write_present(self, fb):
        shown = []
        fb.add_update_listener(
            lambda t, f: shown.append(f.previous_pixels))
        seen = self._record(fb)
        first = np.full(fb.shape, 5, dtype=np.uint8)
        second = np.full(fb.shape, 7, dtype=np.uint8)
        fb.present(first, 1.0)
        fb.write(np.full(fb.shape, 6, dtype=np.uint8), 2.0)
        fb.present(second, 3.0)
        assert shown[1] is first
        assert [(int(prev.max()), int(cur.max()), same)
                for prev, cur, same in seen] == [
            (0, 5, False), (5, 6, False), (6, 7, False)]

    def test_unchanged_update_replaces_nothing(self, fb):
        fb.write(np.full(fb.shape, 8, dtype=np.uint8), 1.0)
        seen = self._record(fb)
        fb.write_unchanged(2.0)
        ((prev, cur, same),) = seen
        assert same
        assert (prev == 8).all()


class TestSurface:
    def test_damage_tracking(self):
        s = Surface(8, 8)
        assert not s.is_damaged
        s.mark_damaged()
        assert s.is_damaged
        s.acknowledge_post()
        assert not s.is_damaged

    def test_fill_marks_damaged(self):
        s = Surface(8, 8)
        s.fill((10, 20, 30))
        assert s.is_damaged
        assert (s.pixels[0, 0] == [10, 20, 30]).all()

    def test_rect(self):
        s = Surface(8, 4, x=2, y=3)
        assert s.rect == (3, 2, 7, 10)

    def test_check_fits(self):
        s = Surface(8, 4, x=2, y=3)
        s.check_fits(10, 7)  # exactly fits
        with pytest.raises(GraphicsError):
            s.check_fits(9, 7)

    def test_invalid_geometry_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            Surface(0, 8)
        with pytest.raises(ConfigurationError):
            Surface(8, 8, x=-1)


class TestSurfaceManager:
    def _make(self):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        surface = Surface(16, 12, name="app")
        sm.register_surface(surface)
        return fb, sm, surface

    def test_register_duplicate_name_rejected(self):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        sm.register_surface(Surface(16, 12, name="app"))
        with pytest.raises(GraphicsError):
            sm.register_surface(Surface(8, 8, name="app"))

    def test_register_oversized_surface_rejected(self):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        with pytest.raises(GraphicsError):
            sm.register_surface(Surface(17, 12))

    def test_post_unregistered_rejected(self):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        with pytest.raises(GraphicsError):
            sm.post(Surface(16, 12))

    def test_no_post_no_composition(self):
        fb, sm, _ = self._make()
        assert sm.on_vsync(1.0) is False
        assert fb.generation == 0
        assert sm.compositions == 0

    def test_post_then_vsync_composites(self):
        fb, sm, surface = self._make()
        surface.fill((1, 2, 3))
        sm.post(surface)
        assert sm.on_vsync(1.0) is True
        assert fb.generation == 1
        assert (fb.pixels == [1, 2, 3]).all()

    def test_vsync_throttle_collapses_multiple_posts(self):
        fb, sm, surface = self._make()
        surface.fill((1, 1, 1))
        sm.post(surface)
        surface.fill((2, 2, 2))
        sm.post(surface)
        sm.on_vsync(1.0)
        # One frame update, showing the latest content.
        assert fb.generation == 1
        assert (fb.pixels == 2).all()

    def test_redundant_frame_detection(self):
        fb, sm, surface = self._make()
        surface.fill((5, 5, 5))
        sm.post(surface)
        sm.on_vsync(1.0)
        sm.post(surface)  # unchanged pixels -> redundant frame
        sm.on_vsync(2.0)
        assert sm.compositions == 2
        assert sm.redundant_compositions == 1
        assert sm.meaningful_compositions == 1

    def test_composition_listener_reports_redundancy(self):
        fb, sm, surface = self._make()
        seen = []
        sm.add_composition_listener(lambda t, r: seen.append((t, r)))
        surface.fill((5, 5, 5))
        sm.post(surface)
        sm.on_vsync(1.0)
        sm.post(surface)
        sm.on_vsync(2.0)
        assert seen == [(1.0, False), (2.0, True)]

    def test_z_order_composition(self):
        fb = Framebuffer(16, 12)
        sm = SurfaceManager(fb)
        bottom = Surface(16, 12, z_order=0, name="bottom")
        top = Surface(4, 4, x=0, y=0, z_order=1, name="top")
        sm.register_surface(top)
        sm.register_surface(bottom)
        bottom.fill((10, 10, 10))
        top.fill((200, 200, 200))
        sm.post(bottom)
        sm.post(top)
        sm.on_vsync(1.0)
        assert (fb.pixels[0, 0] == 200).all()   # overlay wins on top
        assert (fb.pixels[11, 15] == 10).all()  # bottom elsewhere

    def test_unregister_surface(self):
        fb, sm, surface = self._make()
        sm.unregister_surface(surface)
        assert sm.surfaces == []
        with pytest.raises(GraphicsError):
            sm.unregister_surface(surface)

    def test_array_held_across_a_latch_is_read_only(self):
        fb, sm, surface = self._make()
        surface.fill((9, 8, 7))
        held = surface.pixels
        sm.post(surface)
        sm.on_vsync(1.0)
        # The held array is the frame on screen now.
        assert fb.pixels is held
        with pytest.raises(ValueError):
            held[0, 0] = 1
        # The surface draws on into a writable back buffer that holds
        # the presented bytes.
        back = surface.pixels
        assert back is not held
        assert back.flags.writeable
        assert back.tobytes() == held.tobytes()
        back[0, 0] = 1
        assert (held[0, 0] == [9, 8, 7]).all()

    def test_back_buffer_only_after_the_pixels_went_on_screen(self):
        # A restore's source must be a frame no one can write.
        surface = Surface(8, 8)
        with pytest.raises(GraphicsError):
            surface.take_back_buffer(np.zeros((8, 8, 3), dtype=np.uint8))

    def test_post_acknowledged_on_composition(self):
        fb, sm, surface = self._make()
        surface.fill((9, 9, 9))
        sm.post(surface)
        assert surface.is_damaged
        sm.on_vsync(1.0)
        assert not surface.is_damaged
