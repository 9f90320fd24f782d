"""Pixel-content generators.

Each renderer applies *one content change* to a surface — the atomic
"meaningful frame" of the paper.  Different application classes change
the screen in characteristically different ways, and those differences
matter to the grid-based comparator (a full-screen scroll is caught by
any grid; a moving 2x2 dot can slip between grid points).  The renderer
classes below model those regimes:

=============================  ==========================================
Renderer                       Models
=============================  ==========================================
:class:`ScrollRenderer`        list/feed scrolling (Facebook, news apps)
:class:`SceneChangeRenderer`   page or game-board transitions
:class:`FullScreenVideoRenderer`  video playback / full-screen game action
:class:`SmallRegionRenderer`   a clock, counter or small ad banner
:class:`MovingSpritesRenderer` the Nexus Revamped live wallpaper (small
                               dots drifting across the screen)
:class:`StaticRenderer`        no visible change (identity; test helper)
=============================  ==========================================

Renderers are deterministic given the supplied numpy ``Generator``, which
keeps whole sessions reproducible.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ConfigurationError
from ..units import ensure_non_negative_int, ensure_positive_int
from .compositor import _word_dtype
from .surface import Surface, fill_rect


def _draw_colour(rng: np.random.Generator) -> Tuple[int, int, int]:
    """One random RGB colour, as ``rng.integers(0, 256, size=3,
    dtype=np.uint8)`` would draw it.

    That draw takes one 32-bit word and returns its low three bytes,
    low byte first; a full-range 32-bit draw returns the same word at
    a third of the call cost (``tests/test_draw_streams.py``).
    """
    c = int(rng.integers(0, 1 << 32))
    return c & 255, c >> 8 & 255, c >> 16 & 255


class Renderer:
    """Base class: apply one content change to a surface."""

    def render(self, surface: Surface, rng: np.random.Generator) -> None:
        """Mutate ``surface.pixels`` and mark the surface damaged."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any internal state (sprite positions, scroll offset)."""


class StaticRenderer(Renderer):
    """Identity renderer: leaves the pixels untouched.

    Posting after a ``StaticRenderer.render`` produces a byte-identical
    frame — the redundant-frame case the meter must *not* count.
    """

    def render(self, surface: Surface, rng: np.random.Generator) -> None:
        # Intentionally no mark_damaged: the content did not change.
        del surface, rng


class ScrollRenderer(Renderer):
    """Vertical scroll: shift the buffer and synthesise the new band.

    The freshly exposed band is filled with horizontal stripes of random
    colour, which looks nothing like the shifted-out content, so every
    scroll step is a large, grid-visible change.
    """

    def __init__(self, scroll_px: int = 8) -> None:
        self.scroll_px = ensure_positive_int(scroll_px, "scroll_px")

    def render(self, surface: Surface, rng: np.random.Generator) -> None:
        px = surface.pixels
        step = min(self.scroll_px, surface.height)
        px[:-step] = px[step:]
        band = px[-step:]
        stripe_colors = rng.integers(0, 256, size=(step, 1, 3),
                                     dtype=np.uint8)
        # Each stripe is one colour: write column 0, then copy the
        # filled span across the row, doubling it each time.
        band[:, 0] = stripe_colors[:, 0]
        filled, width = 1, band.shape[1]
        while filled < width:
            span = min(filled, width - filled)
            band[:, filled:filled + span] = band[:, :span]
            filled += span
        surface.mark_damaged()


class SceneChangeRenderer(Renderer):
    """Replace a handful of random rectangles (a page/board transition)."""

    def __init__(self, num_rects: int = 4, min_frac: float = 0.15,
                 max_frac: float = 0.6) -> None:
        self.num_rects = ensure_positive_int(num_rects, "num_rects")
        if not 0 < min_frac <= max_frac <= 1:
            raise ConfigurationError(
                f"need 0 < min_frac <= max_frac <= 1, got "
                f"({min_frac}, {max_frac})")
        self.min_frac = min_frac
        self.max_frac = max_frac
        self._span = max_frac - min_frac

    def render(self, surface: Surface, rng: np.random.Generator) -> None:
        h, w = surface.height, surface.width
        px = surface.pixels
        lo, span = self.min_frac, self._span
        # Each draw is the cheapest call yielding the same values and
        # generator state as the plain form (docs/performance.md,
        # "Cheapest call, same stream"; tests/test_draw_streams.py).
        for _ in range(self.num_rects):
            rh = max(1, int(h * (lo + span * rng.random())))
            rw = max(1, int(w * (lo + span * rng.random())))
            y0 = int(rng.integers(0, h - rh + 1))
            x0 = int(rng.integers(0, w - rw + 1))
            fill_rect(px, y0, y0 + rh, x0, x0 + rw, _draw_colour(rng))
        surface.mark_damaged()


class FullScreenVideoRenderer(Renderer):
    """Regenerate the whole buffer from coarse random blocks.

    Approximates consecutive video frames: globally different content
    every frame, with block structure like a codec macroblock grid.
    """

    def __init__(self, block_px: int = 16) -> None:
        self.block_px = ensure_positive_int(block_px, "block_px")
        # A block's run along x is one colour repeated block_px times,
        # 3 * block_px bytes.  Written as the widest words that divide
        # it, each word is the colour times a fixed mask: _run_mask[c]
        # holds a 1 in every byte of the run that channel c fills.
        # Each byte takes one channel, so the product has no carries.
        run = np.arange(3 * self.block_px) % 3
        word = _word_dtype(run.size)
        self._run_mask = np.stack(
            [(run == c).astype(np.uint8).view(word) for c in range(3)])

    def render(self, surface: Surface, rng: np.random.Generator) -> None:
        h, w, b = surface.height, surface.width, self.block_px
        bh = (h + b - 1) // b
        bw = (w + b - 1) // b
        # The cheapest call drawing the stream of
        # rng.integers(0, 256, size=(bh, bw, 3), dtype=np.uint8): each
        # 32-bit word yields four bytes, low byte first
        # (tests/test_draw_streams.py).
        n = bh * bw * 3
        blocks = rng.integers(0, 1 << 32, size=(n + 3) // 4,
                              dtype=np.uint32).view(np.uint8)[:n]
        # Expand along x only (1/b of a frame), a block's run at a
        # time, then copy each block row into its b screen rows through
        # a (rows, b, w, 3) view (surface pixels are C-contiguous, so
        # the reshape is a view).  Every pixel is assigned, so the
        # surface's previous frame need not be restored first.
        mask = self._run_mask
        runs = blocks.reshape(bh * bw, 3).astype(mask.dtype) @ mask
        rows = runs.view(np.uint8).reshape(bh, bw * b, 3)[:, :w]
        px = surface.overwrite_pixels()
        full = h // b
        px[:full * b].reshape(full, b, w, 3)[...] = rows[:full, np.newaxis]
        if full * b < h:
            px[full * b:] = rows[full]
        surface.mark_damaged()


class SmallRegionRenderer(Renderer):
    """Change only a small fixed region (clock digits, a tiny banner).

    A stressor for grid-based comparison: whether the change is seen
    depends on whether a grid point lands inside the region.
    """

    def __init__(self, region_height: int = 4, region_width: int = 12,
                 y: int = 0, x: int = 0) -> None:
        self.region_height = ensure_positive_int(region_height,
                                                 "region_height")
        self.region_width = ensure_positive_int(region_width, "region_width")
        self.y = ensure_non_negative_int(y, "y")
        self.x = ensure_non_negative_int(x, "x")

    def render(self, surface: Surface, rng: np.random.Generator) -> None:
        rh = min(self.region_height, surface.height - self.y)
        rw = min(self.region_width, surface.width - self.x)
        if rh <= 0 or rw <= 0:
            raise ConfigurationError(
                "SmallRegionRenderer region lies outside the surface")
        fill_rect(surface.pixels, self.y, self.y + rh, self.x, self.x + rw,
                  _draw_colour(rng))
        surface.mark_damaged()


class MovingSpritesRenderer(Renderer):
    """Small dots drifting across the screen (Nexus Revamped analogue).

    The paper used this live wallpaper as the extreme accuracy test for
    the grid comparator: each frame "continuously makes small changes by
    moving small dots across the screen".  Dot positions persist between
    calls; each render moves every dot by ``step_px`` in a random
    direction, erasing it at the old position.
    """

    def __init__(self, num_dots: int = 6, dot_px: int = 2,
                 step_px: int = 3,
                 background: int = 12) -> None:
        self.num_dots = ensure_positive_int(num_dots, "num_dots")
        self.dot_px = ensure_positive_int(dot_px, "dot_px")
        self.step_px = ensure_positive_int(step_px, "step_px")
        if not 0 <= background <= 255:
            raise ConfigurationError(
                f"background must be a uint8 level, got {background}")
        self.background = background
        self._positions: np.ndarray = np.empty((0, 2), dtype=int)

    def reset(self) -> None:
        self._positions = np.empty((0, 2), dtype=int)

    def _initialise(self, surface: Surface,
                    rng: np.random.Generator) -> None:
        surface.pixels[:, :] = self.background
        ys = rng.integers(0, max(1, surface.height - self.dot_px),
                          size=self.num_dots)
        xs = rng.integers(0, max(1, surface.width - self.dot_px),
                          size=self.num_dots)
        self._positions = np.stack([ys, xs], axis=1).astype(int)

    def render(self, surface: Surface, rng: np.random.Generator) -> None:
        if len(self._positions) != self.num_dots:
            self._initialise(surface, rng)
        px = surface.pixels
        d = self.dot_px
        # Erase dots at their old positions.
        for y, x in self._positions:
            px[y:y + d, x:x + d] = self.background
        # Drift each dot by exactly +-step_px per axis.  A full step in
        # both axes keeps old and new dot areas disjoint whenever
        # step_px >= dot_px, so every move changes 2 * dot_px^2 pixels
        # — the controlled change size the Figure 6 accuracy study
        # sweeps the grid against.
        max_y = max(0, surface.height - d)
        max_x = max(0, surface.width - d)
        # What choice() of two values draws, indexed directly.
        steps = np.array((-self.step_px, self.step_px))[
            rng.integers(0, 2, size=(self.num_dots, 2))]
        self._positions = np.clip(self._positions + steps,
                                  [0, 0], [max_y, max_x])
        for y, x in self._positions:
            px[y:y + d, x:x + d] = 255
        surface.mark_damaged()
