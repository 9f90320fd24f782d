"""Application surfaces.

A surface is one application's private drawing buffer plus its placement
on screen.  Surface Manager composites the registered surfaces (in
z-order) into the framebuffer at V-Sync.  Most sessions use a single
full-screen surface; the compositor also supports smaller overlays (a
status bar, a floating widget) to exercise multi-surface composition.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import GraphicsError
from ..units import ensure_non_negative_int, ensure_positive_int


def fill_rect(px: np.ndarray, y0: int, y1: int, x0: int, x1: int,
              color: np.ndarray) -> None:
    """Paint ``px[y0:y1, x0:x1]`` one colour, a row at a time.

    Writes the region's first row from ``color`` and copies that row
    down, so the cost is one row copy per row rather than one 3-byte
    broadcast per pixel.  The slice semantics, and so the pixels, are
    exactly those of ``px[y0:y1, x0:x1] = color``.
    """
    region = px[y0:y1, x0:x1]
    if region.size == 0:
        return
    region[0] = color
    region[1:] = region[:1]


class Surface:
    """A rectangular RGB drawing buffer with screen placement.

    Parameters
    ----------
    width, height:
        Buffer size in pixels.
    x, y:
        Top-left placement on screen (column, row).
    z_order:
        Stacking order; higher values composite on top.
    name:
        Label used in error messages and traces.
    """

    def __init__(self, width: int, height: int, x: int = 0, y: int = 0,
                 z_order: int = 0, name: str = "surface") -> None:
        self.width = ensure_positive_int(width, "width")
        self.height = ensure_positive_int(height, "height")
        self.x = ensure_non_negative_int(x, "x")
        self.y = ensure_non_negative_int(y, "y")
        self.z_order = z_order
        self.name = name
        self._pixels = np.zeros((height, width, 3), dtype=np.uint8)
        self._damage_generation = 0
        self._posted_generation = 0

    # ------------------------------------------------------------------
    # Drawing
    # ------------------------------------------------------------------
    @property
    def pixels(self) -> np.ndarray:
        """The mutable pixel array applications draw into."""
        return self._pixels

    def mark_damaged(self) -> None:
        """Note that the pixels changed since the last post.

        Renderers call this after mutating :attr:`pixels`.  Posting an
        undamaged surface is exactly the paper's "redundant frame": a
        frame update whose content is unchanged.
        """
        self._damage_generation += 1

    @property
    def is_damaged(self) -> bool:
        """True if the surface changed since it was last posted."""
        return self._damage_generation != self._posted_generation

    def acknowledge_post(self) -> None:
        """Called by the compositor when the surface is consumed."""
        self._posted_generation = self._damage_generation

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def rect(self) -> Tuple[int, int, int, int]:
        """``(y0, x0, y1, x1)`` screen rectangle (half-open)."""
        return (self.y, self.x, self.y + self.height, self.x + self.width)

    def check_fits(self, screen_width: int, screen_height: int) -> None:
        """Raise if the surface extends past the screen bounds."""
        if self.x + self.width > screen_width or \
                self.y + self.height > screen_height:
            raise GraphicsError(
                f"surface {self.name!r} rect {self.rect} exceeds screen "
                f"{screen_width}x{screen_height}")

    def fill(self, color: Tuple[int, int, int]) -> None:
        """Flood the surface with one colour and mark it damaged."""
        fill_rect(self._pixels, 0, self.height, 0, self.width,
                  np.asarray(color, dtype=np.uint8))
        self.mark_damaged()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Surface {self.name!r} {self.width}x{self.height} "
                f"at ({self.x},{self.y}) z={self.z_order}>")
