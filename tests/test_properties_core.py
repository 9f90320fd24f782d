"""Property-based tests (hypothesis) for the core data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.double_buffer import DoubleBuffer, SampledDoubleBuffer
from repro.core.grid import GridComparator, GridSpec
from repro.core.section_table import SectionTable

# --------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------

rate_sets = st.lists(
    st.floats(min_value=1.0, max_value=240.0, allow_nan=False),
    min_size=1, max_size=8, unique=True,
).map(sorted)

content_rates = st.floats(min_value=0.0, max_value=500.0,
                          allow_nan=False)

buffer_shapes = st.tuples(st.integers(min_value=4, max_value=64),
                          st.integers(min_value=4, max_value=64))


# --------------------------------------------------------------------
# Section table (Equation 1)
# --------------------------------------------------------------------

class TestSectionTableProperties:
    @given(rates=rate_sets, content=content_rates)
    def test_lookup_always_returns_a_panel_rate(self, rates, content):
        table = SectionTable.from_rates(rates)
        assert table.lookup(content) in table.refresh_rates_hz

    @given(rates=rate_sets, content=content_rates)
    def test_headroom_selected_rate_covers_content(self, rates, content):
        """The anti-deadlock property: the selected rate is at least
        the content rate, saturating at the panel maximum."""
        table = SectionTable.from_rates(rates)
        selected = table.lookup(content)
        assert selected >= min(content, table.max_rate_hz) - 1e-9

    @given(rates=rate_sets,
           a=content_rates, b=content_rates)
    def test_lookup_is_monotone(self, rates, a, b):
        table = SectionTable.from_rates(rates)
        lo, hi = min(a, b), max(a, b)
        assert table.lookup(lo) <= table.lookup(hi)

    @given(rates=rate_sets)
    def test_sections_partition_the_axis(self, rates):
        table = SectionTable.from_rates(rates)
        sections = table.sections
        assert sections[0].low == 0.0
        assert sections[-1].high == float("inf")
        for a, b in zip(sections, sections[1:]):
            assert a.high == b.low

    @given(rates=rate_sets)
    def test_zero_content_selects_minimum(self, rates):
        table = SectionTable.from_rates(rates)
        assert table.lookup(0.0) == table.min_rate_hz

    @given(rates=rate_sets)
    def test_huge_content_selects_maximum(self, rates):
        table = SectionTable.from_rates(rates)
        assert table.lookup(10_000.0) == table.max_rate_hz

    @given(rates=rate_sets)
    def test_every_rate_is_reachable(self, rates):
        """Every panel level is selected by some content rate — no
        level is dead in the table."""
        table = SectionTable.from_rates(rates)
        selected = {s.refresh_rate_hz for s in table.sections}
        assert selected == set(table.refresh_rates_hz)


# --------------------------------------------------------------------
# Grid sampling
# --------------------------------------------------------------------

class TestGridProperties:
    @given(shape=buffer_shapes,
           samples=st.integers(min_value=1, max_value=5000))
    def test_indices_always_in_bounds(self, shape, samples):
        grid = GridSpec.from_sample_count(shape, samples)
        assert grid.sample_rows.max() < shape[0]
        assert grid.sample_cols.max() < shape[1]
        assert grid.sample_rows.min() >= 0
        assert grid.sample_cols.min() >= 0

    @given(shape=buffer_shapes,
           samples=st.integers(min_value=1, max_value=5000))
    def test_sample_count_never_exceeds_request_scale(self, shape,
                                                      samples):
        grid = GridSpec.from_sample_count(shape, samples)
        total = shape[0] * shape[1]
        assert 1 <= grid.sample_count <= total
        # Square-cell rounding: each grid dimension is
        # round(dim / cell) clamped to >= 1, so the count is bounded by
        # (h/cell + 1) * (w/cell + 1) <= samples + (h + w)/cell + 1.
        # The additive slack dominates for thin buffers (a 41x4 buffer
        # at samples=2 legitimately yields a 5x1 grid).
        if samples < total:
            import math
            cell = math.sqrt(total / samples)
            bound = samples + (shape[0] + shape[1]) / cell + 1
            assert grid.sample_count <= bound

    @given(shape=buffer_shapes, seed=st.integers(0, 2**16))
    @settings(max_examples=30)
    def test_identical_frames_always_equal(self, shape, seed):
        rng = np.random.default_rng(seed)
        frame = rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)
        grid = GridSpec.from_sample_count(shape, 50)
        comp = GridComparator(grid)
        assert comp.frames_equal(frame, frame.copy())

    @given(shape=buffer_shapes, seed=st.integers(0, 2**16))
    @settings(max_examples=30)
    def test_change_on_sample_point_always_detected(self, shape, seed):
        rng = np.random.default_rng(seed)
        frame = rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)
        grid = GridSpec.from_sample_count(shape, 50)
        comp = GridComparator(grid)
        other = frame.copy()
        row = int(grid.sample_rows[0])
        col = int(grid.sample_cols[0])
        other[row, col, 0] ^= 0xFF
        assert not comp.frames_equal(other, frame)

    @given(shape=buffer_shapes)
    def test_full_grid_covers_every_pixel(self, shape):
        grid = GridSpec.full(shape)
        assert grid.sample_count == shape[0] * shape[1]
        assert np.array_equal(grid.sample_rows, np.arange(shape[0]))
        assert np.array_equal(grid.sample_cols, np.arange(shape[1]))


@st.composite
def frame_pairs(draw):
    """A grid and two frames that differ the way ``kind`` says."""
    height = draw(st.integers(1, 40))
    width = draw(st.integers(1, 40))
    grid_height = draw(st.sampled_from([1, height])
                       | st.integers(1, height))
    grid_width = draw(st.sampled_from([1, width]) | st.integers(1, width))
    grid = GridSpec((height, width), grid_height, grid_width)
    channels = draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    previous = rng.integers(0, 256, size=(height, width, channels),
                            dtype=np.uint8)
    current = previous.copy()
    kind = draw(st.sampled_from(
        ["equal", "random", "one_sample", "stage_aligned", "off_grid"]))
    if kind == "random":
        current = rng.integers(0, 256, size=current.shape, dtype=np.uint8)
    elif kind in ("one_sample", "stage_aligned"):
        rows, cols = np.arange(grid_height), np.arange(grid_width)
        if kind == "stage_aligned":
            stride, offset = draw(st.sampled_from([(8, 4), (2, 1)]))
            rows = rows[offset::stride] if offset < grid_height else rows
            cols = cols[offset::stride] if offset < grid_width else cols
        row = grid.sample_rows[draw(st.sampled_from(list(rows)))]
        col = grid.sample_cols[draw(st.sampled_from(list(cols)))]
        current[row, col, draw(st.integers(0, channels - 1))] ^= \
            draw(st.integers(1, 255))
    elif kind == "off_grid":
        current[rng.integers(0, height), rng.integers(0, width)] ^= 0x5A
    return grid, current, previous


class TestFramesDifferProperties:
    @given(pairs=st.lists(frame_pairs(), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_frames_differ_is_not_frames_equal(self, pairs):
        for grid, current, previous in pairs:
            staged, uniform = GridComparator(grid), GridComparator(grid)
            for _ in range(2):
                assert (staged.frames_differ(current, previous)
                        == (not uniform.frames_equal(current, previous)))
            assert staged.comparisons == uniform.comparisons == 2
            assert staged.mismatches == uniform.mismatches


# --------------------------------------------------------------------
# Double buffering
# --------------------------------------------------------------------

class TestDoubleBufferProperties:
    @given(values=st.lists(st.integers(0, 255), min_size=1,
                           max_size=20))
    def test_previous_always_equals_last_capture(self, values):
        buf = DoubleBuffer((6, 5, 3))
        for v in values:
            buf.capture(np.full((6, 5, 3), v, dtype=np.uint8))
            assert (buf.previous == v).all()
        assert buf.captures == len(values)

    @given(values=st.lists(st.integers(0, 255), min_size=2,
                           max_size=20))
    def test_sampled_buffer_tracks_full_buffer(self, values):
        grid = GridSpec((6, 5), 2, 2)
        full = DoubleBuffer((6, 5, 3))
        sampled = SampledDoubleBuffer(grid)
        comp_full = GridComparator(grid)
        comp_sampled = GridComparator(grid)
        prev_verdicts = []
        for v in values:
            frame = np.full((6, 5, 3), v, dtype=np.uint8)
            if full.previous is not None:
                a = comp_full.frames_equal(frame, full.previous)
                b = comp_sampled.frames_equal(frame, sampled.previous)
                prev_verdicts.append((a, b))
            full.capture(frame)
            sampled.capture(frame)
        assert all(a == b for a, b in prev_verdicts)
