"""Tests for grid-based comparison (GridSpec, GridComparator)."""

import numpy as np
import pytest

from repro.core.grid import PAPER_PIXEL_BUDGETS, GridComparator, GridSpec
from repro.errors import MeteringError

GS3_SHAPE = (1280, 720)  # (height, width)


class TestGridSpecConstruction:
    def test_paper_budgets_reproduce_paper_grids(self):
        # Figure 6's operating points on the 720x1280 panel.
        expected = {
            "2K": (64, 36),      # (grid_height, grid_width)
            "4K": (85, 48),
            "9K": (128, 72),
            "36K": (256, 144),
            "921K": (1280, 720),
        }
        for label, samples in PAPER_PIXEL_BUDGETS.items():
            grid = GridSpec.from_sample_count(GS3_SHAPE, samples)
            assert (grid.grid_height, grid.grid_width) == expected[label], \
                label

    def test_sample_count(self):
        grid = GridSpec.from_sample_count(GS3_SHAPE, 9216)
        assert grid.sample_count == 9216

    def test_full_grid(self):
        grid = GridSpec.full((12, 10))
        assert grid.is_full
        assert grid.sample_count == 120

    def test_oversized_request_caps_at_full(self):
        grid = GridSpec.from_sample_count((12, 10), 10_000)
        assert grid.is_full

    def test_from_cell_size(self):
        grid = GridSpec.from_cell_size(GS3_SHAPE, 10)
        assert (grid.grid_height, grid.grid_width) == (128, 72)

    def test_grid_larger_than_buffer_rejected(self):
        with pytest.raises(MeteringError):
            GridSpec((10, 10), 11, 5)

    def test_coverage_fraction(self):
        grid = GridSpec.from_sample_count(GS3_SHAPE, 9216)
        assert grid.coverage_fraction == pytest.approx(0.01)


class TestGridSampling:
    def test_sample_indices_in_bounds(self):
        for samples in PAPER_PIXEL_BUDGETS.values():
            grid = GridSpec.from_sample_count(GS3_SHAPE, samples)
            assert grid.sample_rows.max() < GS3_SHAPE[0]
            assert grid.sample_cols.max() < GS3_SHAPE[1]
            assert grid.sample_rows.min() >= 0
            assert grid.sample_cols.min() >= 0

    def test_sample_points_are_cell_centres(self):
        grid = GridSpec((100, 100), 10, 10)
        assert np.array_equal(grid.sample_rows,
                              np.arange(5, 100, 10))
        assert np.array_equal(grid.sample_cols,
                              np.arange(5, 100, 10))

    def test_sample_indices_strictly_increasing(self):
        grid = GridSpec.from_sample_count(GS3_SHAPE, 9216)
        assert (np.diff(grid.sample_rows) > 0).all()
        assert (np.diff(grid.sample_cols) > 0).all()

    def test_sample_extracts_expected_pixels(self):
        pixels = np.arange(100 * 100 * 3, dtype=np.uint8).reshape(
            100, 100, 3)
        grid = GridSpec((100, 100), 2, 2)
        sampled = grid.sample(pixels)
        assert sampled.shape == (2, 2, 3)
        assert np.array_equal(sampled[0, 0], pixels[25, 25])
        assert np.array_equal(sampled[1, 1], pixels[75, 75])

    def test_sample_is_a_copy(self):
        pixels = np.zeros((10, 10, 3), dtype=np.uint8)
        grid = GridSpec((10, 10), 2, 2)
        sampled = grid.sample(pixels)
        pixels[:] = 99
        assert sampled.sum() == 0

    def test_sample_wrong_shape_rejected(self):
        grid = GridSpec((10, 10), 2, 2)
        with pytest.raises(MeteringError):
            grid.sample(np.zeros((11, 10, 3), dtype=np.uint8))


class TestGridComparator:
    def _frames(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, size=(100, 100, 3), dtype=np.uint8)
        return a, a.copy()

    def test_equal_frames_compare_equal(self):
        a, b = self._frames()
        comp = GridComparator(GridSpec((100, 100), 10, 10))
        assert comp.frames_equal(a, b)

    def test_large_change_detected(self):
        a, b = self._frames()
        b[40:60, 40:60] = 0
        a[40:60, 40:60] = 255
        comp = GridComparator(GridSpec((100, 100), 10, 10))
        assert not comp.frames_equal(a, b)

    def test_change_between_grid_points_missed(self):
        a, b = self._frames()
        # Grid samples at 5, 15, 25...; change rows 6..9 only (between
        # sample rows), columns likewise.
        a[6:10, 6:10] = a[6:10, 6:10] + 1
        comp = GridComparator(GridSpec((100, 100), 10, 10))
        assert comp.frames_equal(a, b)  # the grid cannot see it

    def test_full_grid_sees_single_pixel_change(self):
        a, b = self._frames()
        a[7, 3, 0] ^= 0xFF
        comp = GridComparator(GridSpec.full((100, 100)))
        assert not comp.frames_equal(a, b)

    def test_sampled_previous_frame_supported(self):
        a, b = self._frames()
        grid = GridSpec((100, 100), 10, 10)
        comp = GridComparator(grid)
        prev_samples = grid.sample(b)
        assert comp.frames_equal(a, prev_samples)
        a[5, 5] = 255 - a[5, 5]  # on a sample point
        assert not comp.frames_equal(a, prev_samples)

    def test_incompatible_previous_shape_rejected(self):
        a, _ = self._frames()
        comp = GridComparator(GridSpec((100, 100), 10, 10))
        with pytest.raises(MeteringError):
            comp.frames_equal(a, np.zeros((3, 3, 3), dtype=np.uint8))

    def test_rejected_call_counts_nothing(self):
        a, b = self._frames()
        comp = GridComparator(GridSpec((100, 100), 10, 10))
        b[5, 5] = 255 - b[5, 5]
        comp.frames_equal(a, b)
        for current, previous in (
                (a, np.zeros((3, 3, 3), dtype=np.uint8)),
                (np.zeros((99, 100, 3), dtype=np.uint8), b)):
            with pytest.raises(MeteringError):
                comp.frames_equal(current, previous)
        assert (comp.comparisons, comp.mismatches) == (1, 1)

    def test_counters(self):
        a, b = self._frames()
        comp = GridComparator(GridSpec((100, 100), 10, 10))
        comp.frames_equal(a, b)
        a[5, 5] = 255 - a[5, 5]
        comp.frames_equal(a, b)
        assert comp.comparisons == 2
        assert comp.mismatches == 1


class TestFramesDiffer:
    def _frames(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, size=(100, 100, 3), dtype=np.uint8)
        return a, a.copy()

    def test_verdicts_and_counters(self):
        a, b = self._frames()
        comp = GridComparator(GridSpec((100, 100), 10, 10))
        assert not comp.frames_differ(a, b)
        a[6:10, 6:10] += 1  # between grid points
        assert not comp.frames_differ(a, b)
        a[95, 95, 2] ^= 0xFF  # the last sample point
        assert comp.frames_differ(a, b)
        assert (comp.comparisons, comp.mismatches) == (3, 1)

    def test_sampled_previous_frame_rejected(self):
        a, b = self._frames()
        grid = GridSpec((100, 100), 10, 10)
        comp = GridComparator(grid)
        with pytest.raises(MeteringError):
            comp.frames_differ(a, grid.sample(b))
        assert comp.comparisons == 0


class TestStageIndices:
    def test_stages_partition_the_grid_coarse_first(self):
        grid = GridSpec((160, 90), 128, 72)
        stages = grid.stage_indices(1)
        assert [stage.size for stage in stages] == [
            16 * 9, 64 * 36, 128 * 72 - 16 * 9 - 64 * 36]
        assert np.array_equal(np.sort(np.concatenate(stages)),
                              np.sort(grid._flat))
        rows, cols = np.divmod(stages[0], 90)
        assert set(rows) == set(grid.sample_rows[4::8])
        assert set(cols) == set(grid.sample_cols[4::8])

    def test_channels_are_read_together(self):
        grid = GridSpec((160, 90), 128, 72)
        single, triple = grid.stage_indices(1), grid.stage_indices(3)
        for one, three in zip(single, triple):
            assert np.array_equal(three.reshape(-1, 3),
                                  one[:, None] * 3 + np.arange(3))

    def test_shared_read_only_per_geometry(self):
        first = GridSpec((160, 90), 128, 72).stage_indices(3)
        again = GridSpec((160, 90), 128, 72).stage_indices(3)
        assert all(a is b for a, b in zip(first, again))
        assert not any(stage.flags.writeable for stage in first)

    def test_small_grids_have_fewer_stages(self):
        assert len(GridSpec((10, 10), 1, 10).stage_indices(3)) == 1
        assert len(GridSpec((10, 10), 2, 2).stage_indices(3)) == 2

    def test_native_all_pixels_plan_is_not_memoised(self):
        from repro.core import grid as grid_module

        full = GridSpec.full((1280, 720))
        plan = full.stage_indices(3)
        assert sum(stage.size for stage in plan) == 1280 * 720 * 3
        assert full.stage_indices(3) is plan
        assert not any(plan is cached
                       for cached in grid_module._stage_memo.values())
