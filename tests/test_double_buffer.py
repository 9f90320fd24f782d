"""Tests for double buffering (full-frame and sampled variants)."""

import numpy as np
import pytest

from repro.core.double_buffer import DoubleBuffer, SampledDoubleBuffer
from repro.core.grid import GridSpec
from repro.errors import MeteringError


def frame(value, shape=(12, 10, 3)):
    return np.full(shape, value, dtype=np.uint8)


class TestDoubleBuffer:
    def test_no_previous_before_first_capture(self):
        buf = DoubleBuffer((12, 10, 3))
        assert buf.previous is None

    def test_previous_returns_last_capture(self):
        buf = DoubleBuffer((12, 10, 3))
        buf.capture(frame(1))
        assert (buf.previous == 1).all()
        buf.capture(frame(2))
        assert (buf.previous == 2).all()

    def test_captured_frame_survives_source_mutation(self):
        buf = DoubleBuffer((12, 10, 3))
        src = frame(1)
        buf.capture(src)
        src[:] = 99
        assert (buf.previous == 1).all()

    def test_two_slots_deep(self):
        # The slot holding capture N stays valid while capture N+1 is
        # written (the asynchronous-I/O property of Section 3.1).
        buf = DoubleBuffer((12, 10, 3))
        buf.capture(frame(1))
        old = buf.previous
        buf.capture(frame(2))
        assert (old == 1).all()  # untouched by the second capture

    def test_capture_counter_and_bytes(self):
        buf = DoubleBuffer((12, 10, 3))
        buf.capture(frame(1))
        buf.capture(frame(2))
        assert buf.captures == 2
        assert buf.bytes_copied == 2 * 12 * 10 * 3

    def test_shape_mismatch_rejected(self):
        buf = DoubleBuffer((12, 10, 3))
        with pytest.raises(MeteringError):
            buf.capture(frame(1, shape=(10, 12, 3)))

    def test_wider_dtype_rejected_not_cast(self):
        # 300 fits uint16 but would wrap to 44 in a uint8 slot.
        buf = DoubleBuffer((12, 10, 3))
        with pytest.raises(MeteringError):
            buf.capture(np.full((12, 10, 3), 300, dtype=np.uint16))
        assert (buf.captures, buf.bytes_copied) == (0, 0)
        assert buf.previous is None

    def test_float_frame_rejected_as_metering_error(self):
        buf = DoubleBuffer((12, 10, 3))
        buf.capture(frame(1))
        with pytest.raises(MeteringError):
            buf.capture(np.full((12, 10, 3), 2.0))
        assert (buf.captures, buf.bytes_copied) == (1, 12 * 10 * 3)
        assert (buf.previous == 1).all()

    def test_non_image_shape_rejected(self):
        with pytest.raises(MeteringError):
            DoubleBuffer((10,))


class TestSampledDoubleBuffer:
    def _grid(self):
        return GridSpec((12, 10), 3, 2)

    def test_stores_grid_samples_only(self):
        buf = SampledDoubleBuffer(self._grid())
        buf.capture(frame(7))
        assert buf.previous.shape == (3, 2, 3)
        assert (buf.previous == 7).all()

    def test_bandwidth_is_fraction_of_full(self):
        grid = self._grid()
        sampled = SampledDoubleBuffer(grid)
        full = DoubleBuffer((12, 10, 3))
        sampled.capture(frame(1))
        full.capture(frame(1))
        assert sampled.bytes_copied == grid.sample_count * 3
        assert sampled.bytes_copied < full.bytes_copied

    def test_no_previous_before_capture(self):
        buf = SampledDoubleBuffer(self._grid())
        assert buf.previous is None

    def test_compatible_with_comparator(self):
        from repro.core.grid import GridComparator
        grid = self._grid()
        buf = SampledDoubleBuffer(grid)
        comp = GridComparator(grid)
        buf.capture(frame(7))
        assert comp.frames_equal(frame(7), buf.previous)
        assert not comp.frames_equal(frame(8), buf.previous)

    def test_wrong_shape_rejected(self):
        buf = SampledDoubleBuffer(self._grid())
        with pytest.raises(MeteringError):
            buf.capture(frame(1, shape=(13, 10, 3)))

    @pytest.mark.parametrize("dtype, value", [(np.uint16, 300),
                                              (np.float64, 2.0)])
    def test_dtype_mismatch_rejected_before_counting(self, dtype, value):
        grid = self._grid()
        buf = SampledDoubleBuffer(grid)
        pixels = np.full((12, 10, 3), value, dtype=dtype)
        with pytest.raises(MeteringError):
            buf.capture(pixels)
        with pytest.raises(MeteringError):
            buf.capture_samples(grid.sample(pixels))
        assert (buf.captures, buf.bytes_copied) == (0, 0)
        assert buf.previous is None
