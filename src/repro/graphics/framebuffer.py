"""The framebuffer: the single full-screen pixel array the panel scans.

In Android, Surface Manager writes the composited image into the
framebuffer and the display hardware refreshes the screen from it.  The
content-rate meter of the paper hooks exactly here — it observes
framebuffer *updates* (writes), not panel *refreshes*.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from ..errors import GraphicsError
from ..units import ensure_positive_int

#: Callback invoked after every framebuffer write: ``(time, framebuffer)``.
UpdateListener = Callable[[float, "Framebuffer"], None]


class Framebuffer:
    """A ``(height, width, 3)`` RGB pixel store with update notification.

    Parameters
    ----------
    width, height:
        Panel resolution in pixels.  The paper's Galaxy S3 is 720x1280;
        simulations default to a scaled-down buffer for speed (the
        metering code is resolution-independent).
    """

    CHANNELS = 3

    def __init__(self, width: int, height: int) -> None:
        self.width = ensure_positive_int(width, "width")
        self.height = ensure_positive_int(height, "height")
        self._pixels = np.zeros((height, width, self.CHANNELS),
                                dtype=np.uint8)
        self._generation = 0
        self._last_update_time = 0.0
        self._last_write_unchanged = False
        self._listeners: List[UpdateListener] = []

    # ------------------------------------------------------------------
    # Geometry / state
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int]:
        """``(height, width, channels)`` of the pixel array."""
        return self._pixels.shape

    @property
    def pixel_count(self) -> int:
        """Total number of pixels (``width * height``)."""
        return self.width * self.height

    @property
    def pixels(self) -> np.ndarray:
        """The live pixel array.

        This is the real buffer, not a copy — mirroring the fact that on
        the device the meter reads the actual framebuffer memory.
        Callers that need a snapshot must copy (that is precisely what
        the double-buffering technique of Section 3.1 is for).
        """
        return self._pixels

    @property
    def generation(self) -> int:
        """Monotone counter of completed writes."""
        return self._generation

    @property
    def last_update_time(self) -> float:
        """Timestamp of the most recent write."""
        return self._last_update_time

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write(self, pixels: np.ndarray, time: float) -> None:
        """Replace the framebuffer contents (a frame update).

        ``pixels`` must match the framebuffer geometry exactly; partial
        updates go through the compositor, not here.
        """
        if pixels.shape != self._pixels.shape:
            raise GraphicsError(
                f"framebuffer write shape {pixels.shape} does not match "
                f"framebuffer shape {self._pixels.shape}")
        if pixels.dtype != np.uint8:
            raise GraphicsError(
                f"framebuffer expects uint8 pixels, got {pixels.dtype}")
        np.copyto(self._pixels, pixels)
        self._generation += 1
        self._last_update_time = time
        self._last_write_unchanged = False
        for listener in self._listeners:
            listener(time, self)

    def write_unchanged(self, time: float) -> None:
        """Record a frame update whose pixels equal the current contents.

        The compositor calls this when it has *proved* the newly
        composited frame is byte-identical to what the framebuffer
        already holds: the copy is skipped, but
        the update is otherwise real — generation, timestamp, and
        listener notification behave exactly like :meth:`write` with
        identical pixels.  Listeners that themselves compare or price
        frames consult :attr:`last_write_unchanged` to reuse their last
        result instead of recomputing it.
        """
        self._generation += 1
        self._last_update_time = time
        self._last_write_unchanged = True
        for listener in self._listeners:
            listener(time, self)

    @property
    def last_write_unchanged(self) -> bool:
        """True when the most recent update was a proven-identical
        :meth:`write_unchanged` (valid during listener callbacks)."""
        return self._last_write_unchanged

    def add_update_listener(self, listener: UpdateListener) -> None:
        """Register a callback fired after every write (meter hook)."""
        self._listeners.append(listener)

    def remove_update_listener(self, listener: UpdateListener) -> None:
        """Unregister a previously added callback."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            raise GraphicsError("listener was not registered") from None

    def snapshot(self) -> np.ndarray:
        """An independent copy of the current pixels."""
        return self._pixels.copy()
