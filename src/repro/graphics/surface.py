"""Application surfaces.

A surface is one application's private drawing buffer plus its placement
on screen.  Surface Manager composites the registered surfaces (in
z-order) into the framebuffer at V-Sync.  Most sessions use a single
full-screen surface; the compositor also supports smaller overlays (a
status bar, a floating widget) to exercise multi-surface composition.

A lone full-screen surface is *latched*: its buffer goes on screen
itself, and the surface draws on into a back buffer the compositor
hands it (:meth:`Surface.take_back_buffer`).  That back buffer holds a
stale frame until it is restored from the frame just presented, which
the surface does lazily: the first :attr:`Surface.pixels` read copies
the presented bytes in, and a caller that writes every pixel takes the
buffer through :meth:`Surface.overwrite_pixels` and skips the copy.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
        # The read-only presented frame whose bytes the back buffer
        # must take before it is read, or None when it holds them.
        self._restore: Optional[np.ndarray] = None
        self._damage_generation = 0
        self._posted_generation = 0

    # ------------------------------------------------------------------
    # Drawing
    # ------------------------------------------------------------------
    @property
    def pixels(self) -> np.ndarray:
        """The mutable pixel array applications draw into.

        It holds the surface's current content: a pending restore is
        resolved first.  The array object changes whenever the
        compositor latches the surface, and the array it replaces goes
        on screen read-only, so hold the surface, not the array.
        """
        self.resolve_restore()
        return self._pixels

    def overwrite_pixels(self) -> np.ndarray:
        """The pixel array for a caller that writes every pixel.

        Unlike :attr:`pixels` it drops a pending restore instead of
        resolving it, so the array may hold a stale frame: the caller
        must assign every pixel before it reads any.
        """
        self._restore = None
        return self._pixels

    def resolve_restore(self) -> None:
        """Copy a pending restore's frame into the back buffer now."""
        if self._restore is not None:
            np.copyto(self._pixels, self._restore)
            self._restore = None

    def take_back_buffer(self, buffer: np.ndarray) -> None:
        """Draw on into ``buffer`` once the current pixels went on screen.

        The compositor calls this after presenting the surface's array
        itself, which left that array read-only, and hands over a
        writable buffer of the same geometry that no one else uses.
        Its bytes are stale: the presented frame becomes the pending
        restore, copied in by the first :attr:`pixels` read.
        """
        if self._pixels.flags.writeable:
            raise GraphicsError(
                f"surface {self.name!r} can only take a back buffer "
                f"once its pixels went on screen")
        self._restore = self._pixels
        self._pixels = buffer

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
        fill_rect(self.overwrite_pixels(), 0, self.height, 0, self.width,
                  np.asarray(color, dtype=np.uint8))
        self.mark_damaged()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Surface {self.name!r} {self.width}x{self.height} "
                f"at ({self.x},{self.y}) z={self.z_order}>")
