"""Each frame update is judged once and the judgement is reused.

The compositor's full-frame compare proves some composites redundant
and delivers them as ``Framebuffer.write_unchanged``; the content-rate
meter compares each judged frame with the frame it replaced, coarse to
fine, reading no more than both frames' grid samples and keeping none;
the OLED tracker re-uses its price on unchanged updates.  These tests
pin each shortcut to a brute-force reference.
"""

import numpy as np
import pytest

from repro.core.content_rate import ContentRateMeter, MeterConfig
from repro.core.grid import GridComparator, GridSpec
from repro.graphics.compositor import SurfaceManager
from repro.graphics.framebuffer import Framebuffer
from repro.graphics.surface import Surface
from repro.power.oled import OledEmissionTracker, OledModel


class WriteSpy:
    """Counts the two kinds of framebuffer update on one instance: a
    pixel update (``write`` or ``present``) and a proven-unchanged one."""

    def __init__(self, framebuffer):
        self.writes = 0
        self.unchanged = 0
        write, present, write_unchanged = (framebuffer.write,
                                           framebuffer.present,
                                           framebuffer.write_unchanged)

        def spy_write(pixels, time):
            self.writes += 1
            write(pixels, time)

        def spy_present(frame, time):
            self.writes += 1
            present(frame, time)

        def spy_unchanged(time):
            self.unchanged += 1
            write_unchanged(time)

        framebuffer.write = spy_write
        framebuffer.present = spy_present
        framebuffer.write_unchanged = spy_unchanged


def _compositor(width=16, height=12):
    fb = Framebuffer(width, height)
    sm = SurfaceManager(fb)
    surface = Surface(width, height, name="app")
    sm.register_surface(surface)
    return fb, sm, surface, WriteSpy(fb)


# ----------------------------------------------------------------------
# Compositor
# ----------------------------------------------------------------------
class TestCompositorJudgement:
    def test_redundant_composite_is_an_unchanged_write(self):
        fb, sm, surface, spy = _compositor()
        surface.fill((5, 6, 7))
        sm.post(surface)
        sm.on_vsync(1.0)
        assert (spy.writes, spy.unchanged) == (1, 0)
        assert not fb.last_write_unchanged
        sm.post(surface)
        sm.on_vsync(2.0)
        assert (spy.writes, spy.unchanged) == (1, 1)
        assert fb.last_write_unchanged
        assert fb.generation == 2
        assert fb.last_update_time == 2.0
        assert (fb.pixels == [5, 6, 7]).all()
        assert sm.redundant_compositions == 1

    def test_first_black_composite_is_proven_unchanged(self):
        # A framebuffer never written holds the zeros the compositor's
        # previous buffer starts as: an all-black first frame is
        # redundant and shown as an unchanged update.
        fb, sm, surface, spy = _compositor()
        sm.post(surface)
        sm.on_vsync(1.0)
        assert (spy.writes, spy.unchanged) == (0, 1)
        assert fb.last_write_unchanged
        assert fb.generation == 1
        assert (fb.pixels == 0).all()
        assert sm.redundant_compositions == 1

    def test_first_composite_after_a_foreign_write_is_a_real_write(self):
        # Written before the compositor was built, the framebuffer
        # shows a frame the compositor never saw.
        fb = Framebuffer(16, 12)
        fb.write(np.full(fb.shape, 70, dtype=np.uint8), 0.5)
        sm = SurfaceManager(fb)
        surface = Surface(16, 12, name="app")
        sm.register_surface(surface)
        spy = WriteSpy(fb)
        sm.post(surface)
        sm.on_vsync(1.0)
        assert (spy.writes, spy.unchanged) == (1, 0)
        assert not fb.last_write_unchanged
        assert (fb.pixels == 0).all()
        assert sm.redundant_compositions == 1

    def test_foreign_write_forces_a_real_write(self):
        fb, sm, surface, spy = _compositor()
        surface.fill((9, 9, 9))
        sm.post(surface)
        sm.on_vsync(1.0)
        foreign = np.full(fb.shape, 200, dtype=np.uint8)
        fb.write(foreign, 1.5)
        assert spy.writes == 2
        sm.post(surface)  # pixels unchanged: redundant composite
        sm.on_vsync(2.0)
        assert (spy.writes, spy.unchanged) == (3, 0)
        assert not fb.last_write_unchanged
        assert (fb.pixels == 9).all()
        assert sm.redundant_compositions == 1
        # Once rewritten, the guard holds again.
        sm.post(surface)
        sm.on_vsync(3.0)
        assert (spy.writes, spy.unchanged) == (3, 1)

    def test_listener_write_during_update_counts_as_foreign(self):
        fb, sm, surface, spy = _compositor()
        surface.fill((3, 3, 3))
        scribble = np.full(fb.shape, 77, dtype=np.uint8)
        fired = []

        def scribbler(time, framebuffer):
            if not fired:
                fired.append(time)
                framebuffer.write(scribble, time)

        fb.add_update_listener(scribbler)
        sm.post(surface)
        sm.on_vsync(1.0)
        assert (fb.pixels == 77).all()
        sm.post(surface)
        sm.on_vsync(2.0)
        assert not fb.last_write_unchanged
        assert (fb.pixels == 3).all()

    def test_changed_composite_is_a_real_write(self):
        fb, sm, surface, spy = _compositor()
        # Every level differs from the black screen and from the last.
        for step in range(4):
            level = step + 1
            surface.fill((level, level, level))
            sm.post(surface)
            sm.on_vsync(float(step + 1))
        assert (spy.writes, spy.unchanged) == (4, 0)
        assert (fb.pixels == 4).all()


# ----------------------------------------------------------------------
# Meter
# ----------------------------------------------------------------------
def _frame_sequence(shape, count, seed):
    """Random frames: repeats, tiny edits and wholesale changes."""
    rng = np.random.default_rng(seed)
    frame = np.zeros(shape, dtype=np.uint8)
    frames = []
    for _ in range(count):
        kind = rng.integers(0, 4)
        if kind == 1:  # a few pixels, on or off the grid
            for _ in range(int(rng.integers(1, 6))):
                y = int(rng.integers(0, shape[0]))
                x = int(rng.integers(0, shape[1]))
                frame[y, x] = rng.integers(0, 256, size=3)
        elif kind == 2:  # a block
            y, x = int(rng.integers(0, shape[0] // 2)), \
                int(rng.integers(0, shape[1] // 2))
            frame[y:y + shape[0] // 3, x:x + shape[1] // 3] = \
                rng.integers(0, 256, size=3)
        elif kind == 3:  # the whole frame
            frame = rng.integers(0, 256, size=shape, dtype=np.uint8)
        frames.append(frame.copy())
    return frames


def _drive(framebuffer, frames):
    """Write each frame; an exact repeat is sometimes delivered as a
    proven-unchanged update and sometimes as a plain write."""
    for index, frame in enumerate(frames):
        time = 0.05 * (index + 1)
        if np.array_equal(frame, framebuffer.pixels) and index % 2:
            framebuffer.write_unchanged(time)
        else:
            framebuffer.write(frame, time)


def _spy_reads(monkeypatch):
    """Record the element count of every comparator pixel read: the
    staged reads of ``frames_differ`` and the whole-grid gathers of
    ``frames_equal`` / ``count_changed``."""
    reads = []
    read, gather = GridComparator._read, GridComparator._gather

    def counting_read(values, indices):
        reads.append(indices.size)
        return read(values, indices)

    def counting_gather(self, pixels):
        reads.append(self.grid.sample_count * pixels.shape[-1])
        return gather(self, pixels)

    monkeypatch.setattr(GridComparator, "_read",
                        staticmethod(counting_read))
    monkeypatch.setattr(GridComparator, "_gather", counting_gather)
    return reads


def _brute_force(frames, shape, config):
    """Two gathers per frame, counted the way the meter accounts."""
    grid = GridSpec.from_sample_count(shape[:2], config.sample_count)
    previous = np.zeros(shape, dtype=np.uint8)
    meaningful = []
    for index, frame in enumerate(frames):
        changed = int((grid.sample(frame) != grid.sample(previous))
                      .any(axis=-1).sum())
        if changed >= config.min_changed_cells:
            meaningful.append(0.05 * (index + 1))
        previous = frame
    exact = config.min_changed_cells == 1
    slot_bytes = (int(np.prod(shape)) if config.store_full_frames
                  else grid.sample_count * shape[2])
    return {
        "comparisons": len(frames) if exact else 0,
        "mismatches": len(meaningful) if exact else 0,
        "bytes_copied": slot_bytes * (len(frames) + 1),
        "meaningful": meaningful,
    }


def _observed(meter):
    return {
        "comparisons": meter.comparator.comparisons,
        "mismatches": meter.comparator.mismatches,
        "bytes_copied": meter.bytes_copied,
        "meaningful": list(meter.meaningful_frames.times),
    }


class TestMeterJudgement:
    @pytest.mark.parametrize("min_changed_cells", [1, 3])
    @pytest.mark.parametrize("store_full_frames", [True, False])
    @pytest.mark.parametrize("sample_count", [60, 40 * 24])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_two_gather_reference(self, min_changed_cells,
                                          store_full_frames,
                                          sample_count, seed):
        shape = (40, 24, 3)
        config = MeterConfig(sample_count=sample_count,
                             min_changed_cells=min_changed_cells,
                             store_full_frames=store_full_frames)
        fb = Framebuffer(shape[1], shape[0])
        meter = ContentRateMeter(fb, config)
        frames = _frame_sequence(shape, 80, seed)
        _drive(fb, frames)
        assert meter.total_frames == len(frames)
        assert _observed(meter) == _brute_force(frames, shape, config)

    @pytest.mark.parametrize("store_full_frames", [True, False])
    def test_full_921k_grid(self, store_full_frames):
        shape = (1280, 720, 3)
        config = MeterConfig(sample_count=720 * 1280,
                             store_full_frames=store_full_frames)
        fb = Framebuffer(shape[1], shape[0])
        meter = ContentRateMeter(fb, config)
        assert meter.grid.is_full
        frames = _frame_sequence(shape, 10, 3)
        _drive(fb, frames)
        assert _observed(meter) == _brute_force(frames, shape, config)

    def test_frame_changed_everywhere_is_settled_in_the_first_stage(
            self, monkeypatch):
        fb = Framebuffer(90, 160)
        meter = ContentRateMeter(fb, MeterConfig(sample_count=9216))
        reads = _spy_reads(monkeypatch)
        fb.write(np.full(fb.shape, 200, dtype=np.uint8), 0.1)
        first = meter.grid.stage_indices(3)[0]
        assert first.size == 9 * 16 * 3  # every 8th row and column
        assert reads == [first.size, first.size]
        assert meter.total_meaningful == 1

    @pytest.mark.parametrize("sample_count", [60, 333, 40 * 24])
    def test_no_judgement_reads_more_than_both_grids(self, monkeypatch,
                                                     sample_count):
        fb = Framebuffer(24, 40)
        meter = ContentRateMeter(fb, MeterConfig(sample_count=sample_count))
        reads = _spy_reads(monkeypatch)
        per_update = []
        fb.add_update_listener(
            lambda time, framebuffer: per_update.append(sum(reads)))
        frames = _frame_sequence((40, 24, 3), 60, 5)
        frames += [frames[-1]] * 2  # equal frames, delivered as writes
        for index, frame in enumerate(frames):
            fb.write(frame, 0.05 * (index + 1))
        elements = np.diff([0] + per_update)
        both_grids = 2 * meter.grid.sample_count * 3
        assert max(elements) == both_grids  # the equal frames
        assert all(0 < count <= both_grids for count in elements)

    def test_meter_holds_no_sample_array(self):
        fb = Framebuffer(24, 40)
        meter = ContentRateMeter(fb, MeterConfig(sample_count=60))
        _drive(fb, _frame_sequence((40, 24, 3), 20, 6))
        for owner in (meter, meter.comparator):
            held = [name for name, value in vars(owner).items()
                    if isinstance(value, (np.ndarray, bytes))]
            assert held == [], type(owner).__name__

    def test_unchanged_update_gathers_nothing(self, monkeypatch):
        for threshold in (1, 3):
            fb = Framebuffer(24, 40)
            meter = ContentRateMeter(
                fb, MeterConfig(sample_count=60,
                                min_changed_cells=threshold))
            with monkeypatch.context() as patch:
                reads = _spy_reads(patch)
                fb.write(np.full(fb.shape, 4, dtype=np.uint8), 0.1)
            assert reads, threshold  # a changed frame is read
            with monkeypatch.context() as patch:
                reads = _spy_reads(patch)
                fb.write_unchanged(0.2)
            assert reads == [], threshold
            assert meter.total_frames == 2
            assert meter.total_meaningful == 1
            if threshold == 1:
                assert meter.comparator.comparisons == 2


# ----------------------------------------------------------------------
# OLED tracker
# ----------------------------------------------------------------------
class TestOledJudgement:
    def test_history_equals_per_update_recomputation(self):
        fb, sm, surface, spy = _compositor(32, 20)
        model = OledModel()
        tracker = OledEmissionTracker(fb, model)
        expected = [model.frame_power_mw(fb.pixels)]
        fb.add_update_listener(
            lambda t, f: expected.append(model.frame_power_mw(f.pixels)))
        rng = np.random.default_rng(11)
        for step in range(60):
            if rng.random() < 0.5:
                surface.fill(tuple(int(v) for v in
                                   rng.integers(0, 256, size=3)))
            sm.post(surface)
            sm.on_vsync(0.1 * (step + 1))
        assert spy.unchanged > 0
        assert tracker.evaluations == 60
        times, values = tracker.history.transitions
        assert list(values) == expected
        assert list(times) == [0.0] + [0.1 * (step + 1)
                                       for step in range(60)]
