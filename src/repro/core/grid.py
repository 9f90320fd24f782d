"""Grid-based framebuffer comparison (Section 3.1 of the paper).

Comparing two full 720x1280 framebuffers takes longer than one V-Sync
interval at 60 Hz (the paper measures >40 ms against a 16.67 ms budget),
so it cannot run per frame.  The paper instead overlays a coarse grid on
the screen and compares only the **centre pixel of each grid cell**.
The five operating points evaluated in Figure 6 are:

==========  ===========  ==============
Budget      Grid (WxH)   Cell size (px)
==========  ===========  ==============
2K          36 x 64      20 x 20
4K          48 x 85      15 x 15
9K          72 x 128     10 x 10
36K         144 x 256    5 x 5
921K        720 x 1280   1 x 1 (all)
==========  ===========  ==============

:class:`GridSpec` computes the sampled pixel coordinates for a buffer
shape; :class:`GridComparator` performs the equality test between two
buffers restricted to those coordinates.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from ..errors import MeteringError
from ..units import ensure_positive_int

#: The paper's Figure 6 pixel budgets, keyed by their label.
PAPER_PIXEL_BUDGETS = {
    "2K": 36 * 64,
    "4K": 48 * 85,
    "9K": 72 * 128,
    "36K": 144 * 256,
    "921K": 720 * 1280,
}

#: ``(stride, offset)`` of the sub-grids :meth:`GridComparator
#: .frames_differ` reads before the rest of the grid, coarsest first:
#: every 8th grid row and column, then every 2nd.  Two-dimensional
#: sub-grids spread each stage over the whole screen whatever the
#: grid's width, where a stride over the flattened samples can alias
#: with it and miss a region until the last stage.
_COARSE_STAGES = ((8, 4), (2, 1))

#: Bytes of stage indices kept per process, one plan per grid geometry
#: and channel count.  A plan that does not fit (the all-pixels grid at
#: native resolution) is held by its :class:`GridSpec` alone.
_STAGE_MEMO_BYTES = 4 << 20
_stage_memo: Dict[Tuple[int, ...], Tuple[np.ndarray, ...]] = {}


def _stage_plan(buffer_shape: Tuple[int, int], rows: np.ndarray,
                cols: np.ndarray, channels: int
                ) -> Tuple[np.ndarray, ...]:
    """Element indices of each coarse-to-fine stage, read-only.

    The stages partition the grid: the :data:`_COARSE_STAGES` sub-grids
    in order, then every sample not yet read, each in row-major order.
    A stage indexes the flattened ``(height * width * channels)``
    buffer, ``channels`` consecutive elements per sample.  Empty stages
    are dropped.  Plans are memoised per geometry while the memo stays
    within :data:`_STAGE_MEMO_BYTES`.
    """
    key = (*buffer_shape, len(rows), len(cols), channels)
    plan = _stage_memo.get(key)
    if plan is not None:
        return plan
    flat = rows[:, None] * buffer_shape[1] + cols[None, :]
    taken = np.zeros(flat.shape, dtype=bool)
    samples = []
    for stride, offset in _COARSE_STAGES:
        stage = np.zeros_like(taken)
        stage[offset::stride, offset::stride] = True
        stage &= ~taken
        taken |= stage
        samples.append(flat[stage])
    samples.append(flat[~taken])
    stages = []
    for sample in samples:
        if sample.size:
            stage = (sample[:, None] * channels
                     + np.arange(channels)).ravel()
            stage.flags.writeable = False
            stages.append(stage)
    plan = tuple(stages)
    memo_bytes = sum(stage.nbytes for cached in _stage_memo.values()
                     for stage in cached)
    if memo_bytes + sum(stage.nbytes for stage in plan) \
            <= _STAGE_MEMO_BYTES:
        _stage_memo[key] = plan
    return plan


class GridSpec:
    """Sampling grid over a ``(height, width)`` pixel buffer.

    The grid has ``grid_height x grid_width`` cells; the sample point of
    each cell is its centre pixel.  Construct directly from grid
    dimensions, or use :meth:`from_sample_count` /
    :meth:`from_cell_size` to derive dimensions from a pixel budget.
    """

    def __init__(self, buffer_shape: Tuple[int, int],
                 grid_height: int, grid_width: int) -> None:
        height, width = buffer_shape
        ensure_positive_int(height, "buffer height")
        ensure_positive_int(width, "buffer width")
        ensure_positive_int(grid_height, "grid_height")
        ensure_positive_int(grid_width, "grid_width")
        if grid_height > height or grid_width > width:
            raise MeteringError(
                f"grid {grid_height}x{grid_width} exceeds buffer "
                f"{height}x{width}")
        self.buffer_shape = (height, width)
        self.grid_height = grid_height
        self.grid_width = grid_width
        # Centre pixel of each cell: cell i spans
        # [i*H/gh, (i+1)*H/gh); its centre row is (i + 0.5) * H / gh.
        self._rows = np.minimum(
            ((np.arange(grid_height) + 0.5) * height / grid_height)
            .astype(np.intp),
            height - 1)
        self._cols = np.minimum(
            ((np.arange(grid_width) + 0.5) * width / grid_width)
            .astype(np.intp),
            width - 1)
        # Flattened row*width+col sample indices, precomputed once:
        # the per-frame gather is a single np.take over these —
        # numpy's fast contiguous-gather path, several times quicker
        # than the equivalent outer fancy indexing on small buffers.
        self._flat = (self._rows[:, None] * width
                      + self._cols[None, :]).ravel()
        self._stages: Dict[int, Tuple[np.ndarray, ...]] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_sample_count(cls, buffer_shape: Tuple[int, int],
                          sample_count: int) -> "GridSpec":
        """Build a grid of roughly ``sample_count`` square cells.

        The cell is chosen square (as in the paper's operating points),
        so the actual sample count can differ slightly from the request.
        """
        height, width = buffer_shape
        ensure_positive_int(sample_count, "sample_count")
        total = height * width
        if sample_count >= total:
            return cls(buffer_shape, height, width)
        cell = math.sqrt(total / sample_count)
        gh = max(1, min(height, round(height / cell)))
        gw = max(1, min(width, round(width / cell)))
        return cls(buffer_shape, gh, gw)

    @classmethod
    def from_cell_size(cls, buffer_shape: Tuple[int, int],
                       cell_px: int) -> "GridSpec":
        """Build a grid with square cells of ``cell_px`` pixels."""
        height, width = buffer_shape
        ensure_positive_int(cell_px, "cell_px")
        gh = max(1, height // cell_px)
        gw = max(1, width // cell_px)
        return cls(buffer_shape, gh, gw)

    @classmethod
    def full(cls, buffer_shape: Tuple[int, int]) -> "GridSpec":
        """The degenerate all-pixels grid (the paper's 921K point)."""
        return cls(buffer_shape, buffer_shape[0], buffer_shape[1])

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def sample_count(self) -> int:
        """Number of sampled pixels."""
        return self.grid_height * self.grid_width

    @property
    def is_full(self) -> bool:
        """True when every pixel is sampled."""
        return (self.grid_height, self.grid_width) == self.buffer_shape

    @property
    def sample_rows(self) -> np.ndarray:
        """Sampled row indices (length ``grid_height``)."""
        return self._rows.copy()

    @property
    def sample_cols(self) -> np.ndarray:
        """Sampled column indices (length ``grid_width``)."""
        return self._cols.copy()

    def stage_indices(self, channels: int) -> Tuple[np.ndarray, ...]:
        """Read-only indices of the coarse-to-fine stages
        :meth:`GridComparator.frames_differ` reads, into a buffer of
        ``channels`` channels flattened to one dimension (built on first
        use, shared by every grid of the same geometry)."""
        plan = self._stages.get(channels)
        if plan is None:
            plan = self._stages[channels] = _stage_plan(
                self.buffer_shape, self._rows, self._cols, channels)
        return plan

    @property
    def coverage_fraction(self) -> float:
        """Sampled pixels as a fraction of the buffer."""
        return self.sample_count / (self.buffer_shape[0] *
                                    self.buffer_shape[1])

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, pixels: np.ndarray) -> np.ndarray:
        """Extract the grid samples from a pixel buffer.

        Returns a ``(grid_height, grid_width, channels)`` array (a view
        is never returned; samples are materialised so they remain valid
        after the buffer mutates — that is the double-buffer's job for
        full frames, and this method's job for sampled frames).
        """
        self._check_shape(pixels)
        if self.is_full:
            return pixels.copy()
        channels = pixels.shape[-1]
        return np.take(pixels.reshape(-1, channels), self._flat,
                       axis=0).reshape(self.grid_height, self.grid_width,
                                       channels)

    def _check_shape(self, pixels: np.ndarray) -> None:
        if pixels.shape[:2] != self.buffer_shape:
            raise MeteringError(
                f"buffer shape {pixels.shape[:2]} does not match grid's "
                f"expected {self.buffer_shape}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<GridSpec {self.grid_width}x{self.grid_height} over "
                f"{self.buffer_shape[1]}x{self.buffer_shape[0]} "
                f"({self.sample_count} samples)>")


class GridComparator:
    """Equality test between two buffers restricted to a grid.

    This is the hot path the paper benchmarks in Figure 6; it does no
    allocation beyond numpy's comparison temporaries and counts its own
    invocations for overhead accounting.
    """

    def __init__(self, grid: GridSpec) -> None:
        self.grid = grid
        self._comparisons = 0
        self._mismatches = 0

    @property
    def comparisons(self) -> int:
        """Total equality tests performed."""
        return self._comparisons

    @property
    def mismatches(self) -> int:
        """Tests that found the frames different."""
        return self._mismatches

    def note_equal(self, count: int = 1) -> None:
        """Account for ``count`` comparisons proven equal without running.

        On a proven-unchanged update the current and previous frames
        agree at every pixel — a fortiori at every sample point — so the
        gather-and-compare is skipped, but the comparison still counts
        toward overhead accounting exactly as if it had run.  The
        fast-forward's bulk idle-submit skip accounts a whole run of such
        comparisons in one call.
        """
        self._comparisons += count

    def count_changed(self, current: np.ndarray,
                      previous: np.ndarray) -> int:
        """Number of grid sample points whose pixel differs.

        The magnitude of a change, in grid cells.  ``frames_equal`` is
        ``count_changed == 0``; the significance-filtering extension
        (``MeterConfig.min_changed_cells``) uses the count to ignore
        cosmetically tiny changes (a blinking cursor, a clock colon)
        that would otherwise hold the refresh rate up.  ``previous``
        takes the same forms as in :meth:`frames_equal`.
        """
        self.grid._check_shape(current)
        cur, prev = self._sample_pair(current, previous)
        return int((cur != prev).any(axis=-1).sum())

    def frames_equal(self, current: np.ndarray,
                     previous: np.ndarray) -> bool:
        """True if the two buffers agree at every grid sample point.

        ``current`` is a live pixel buffer of the grid's expected shape;
        ``previous`` is either a full buffer of the same shape or its
        pre-gathered ``(grid_height, grid_width, channels)`` samples
        (the storage format of :class:`~repro.core.double_buffer.
        SampledDoubleBuffer`).
        """
        self.grid._check_shape(current)
        cur, prev = self._sample_pair(current, previous)
        # Counted only once both sample sets exist: a rejected call is
        # no comparison.
        self._comparisons += 1
        equal = bool((cur == prev).all())
        if not equal:
            self._mismatches += 1
        return equal

    def frames_differ(self, current: np.ndarray,
                      previous: np.ndarray) -> bool:
        """True if two full buffers differ at any grid sample point.

        The verdict and the counters are those of ``not
        frames_equal(current, previous)``, but the samples are read
        coarse to fine (:meth:`GridSpec.stage_indices`) and the read
        stops at the first stage that differs: a frame that changed
        anywhere much larger than a grid cell is told apart after a few
        hundred samples, while an unchanged frame still reads every
        sample of both buffers once.  Samples are compared byte for byte, which
        is ``==`` for the ``uint8`` frames a framebuffer holds.  This
        is the content-rate meter's comparison; :meth:`frames_equal`
        remains the uniform walk that Figure 6 prices.
        """
        grid = self.grid
        grid._check_shape(current)
        if previous.shape != current.shape:
            raise MeteringError(
                f"previous frame shape {previous.shape} does not match "
                f"the current frame's {current.shape}")
        cur = current.reshape(-1)
        prev = previous.reshape(-1)
        self._comparisons += 1
        for indices in grid.stage_indices(current.shape[-1]):
            if self._read(cur, indices) != self._read(prev, indices):
                self._mismatches += 1
                return True
        return False

    @staticmethod
    def _read(values: np.ndarray, indices: np.ndarray) -> bytes:
        """The bytes of a flattened buffer at ``indices``: every pixel
        read :meth:`frames_differ` makes goes through here."""
        return values[indices].tobytes()

    def _sample_pair(self, current: np.ndarray, previous: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Both frames' samples, flattened to ``(n, channels)``.

        Gathers ``current`` and, when ``previous`` is a full buffer,
        ``previous`` too.
        """
        grid = self.grid
        channels = current.shape[-1]
        if previous.shape == current.shape:
            # Deliberately *no* memcmp fast path for the all-pixels
            # grid — Figure 6 sweeps the cost of the per-sample
            # comparison, and the paper's implementation walks grid
            # points uniformly whatever their count (see _gather).
            prev = self._gather(previous)
        elif previous.shape[:2] == (grid.grid_height, grid.grid_width):
            prev = previous.reshape(-1, channels)
        else:
            raise MeteringError(
                f"previous frame shape {previous.shape} matches neither "
                f"the buffer {grid.buffer_shape} nor the grid "
                f"({grid.grid_height}, {grid.grid_width})")
        return self._gather(current), prev

    def _gather(self, pixels: np.ndarray) -> np.ndarray:
        """Sample points of one full buffer, flattened to ``(n, channels)``.

        Sparse grids ride numpy's contiguous ``np.take`` gather.  The
        all-pixels grid keeps the per-point indexed gather instead:
        Figure 6 prices what a full comparison *costs*, and the paper's
        implementation walks every grid point uniformly — shortcutting
        the full case would underprice the very configuration the
        figure exists to rule out.
        """
        grid = self.grid
        channels = pixels.shape[-1]
        if grid.is_full:
            gathered = pixels[grid._rows[:, None], grid._cols[None, :]]
            return gathered.reshape(-1, channels)
        return np.take(pixels.reshape(-1, channels), grid._flat,
                       axis=0)
