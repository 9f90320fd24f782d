"""The framebuffer: the single full-screen pixel array the panel scans.

In Android, Surface Manager writes the composited image into the
framebuffer and the display hardware refreshes the screen from it.  The
content-rate meter of the paper hooks exactly here — it observes
framebuffer *updates* (writes), not panel *refreshes*.

A frame update arrives one of three ways: :meth:`Framebuffer.present`
hands over a finished frame by reference (the compositor's path: the
frame it produced becomes the scanned-out buffer, no byte moves),
:meth:`Framebuffer.write` copies a foreign frame into a buffer the
framebuffer owns, and :meth:`Framebuffer.write_unchanged` records an
update proven identical to what is shown.

While an update's listeners run, the frame it replaced is still intact
(:attr:`Framebuffer.previous_pixels`), as on a double-buffered device:
a write copies into whichever of two owned buffers is not on screen,
and a presenter keeps the frame it replaced unmodified until the
update's listeners have returned.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

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
        # The buffers :meth:`write` copies into, alternately, so a
        # write never overwrites the frame it replaces; the second is
        # allocated by the first write that needs it.  :attr:`pixels`
        # is one of them or the frame most recently presented.
        self._own = np.zeros((height, width, self.CHANNELS),
                             dtype=np.uint8)
        self._spare: Optional[np.ndarray] = None
        self._pixels = self._own
        self._previous = self._own
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
        After a :meth:`present` it is the presenter's own frame, marked
        read-only for as long as the framebuffer shows it; after a
        :meth:`write` it is the framebuffer's own (writable) buffer.
        The array object changes between updates, so hold the
        framebuffer, not the array, and copy (:meth:`snapshot`) to keep
        a frame.
        """
        return self._pixels

    @property
    def previous_pixels(self) -> np.ndarray:
        """What the framebuffer held before the latest update.

        Valid only while that update's listeners run: after a
        :meth:`present` or a :meth:`write` it is the array shown before
        (a write never copies into it), after a :meth:`write_unchanged`
        the current pixels themselves.  The content-rate meter compares
        :attr:`pixels` with it instead of keeping a frame of its own.
        Like :attr:`pixels` it is the real buffer, never a copy.
        """
        return self._previous

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
        self._check_frame(pixels, "write")
        if self._own is self._pixels:
            # Copy into the other owned buffer: the frame this write
            # replaces (possibly ``pixels`` itself) stays intact.
            if self._spare is None:
                self._spare = np.zeros_like(self._own)
            self._own, self._spare = self._spare, self._own
        np.copyto(self._own, pixels)
        self._previous = self._pixels
        self._pixels = self._own
        self._updated(time, unchanged=False)

    def present(self, frame: np.ndarray, time: float) -> None:
        """Show ``frame`` itself as the new contents (a frame update).

        The producer hands its finished frame over by reference instead
        of having it copied: ``frame`` becomes :attr:`pixels` and is
        marked read-only while the framebuffer holds it, so nothing can
        alter a frame on screen.  The producer must not make it
        writable again until a later update has replaced it, nor
        mutate the frame this update replaces until the update's
        listeners have returned: it is :attr:`previous_pixels` while
        they run.  Apart from the missing copy the update is exactly a
        :meth:`write` of the same pixels.  ``frame`` must be a
        C-contiguous ``uint8`` array of the framebuffer's shape.
        """
        self._check_frame(frame, "present")
        if not frame.flags.c_contiguous:
            raise GraphicsError(
                "framebuffer present needs a C-contiguous frame")
        frame.flags.writeable = False
        self._previous = self._pixels
        self._pixels = frame
        self._updated(time, unchanged=False)

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
        self._previous = self._pixels
        self._updated(time, unchanged=True)

    def _check_frame(self, pixels: np.ndarray, verb: str) -> None:
        if pixels.shape != self._own.shape:
            raise GraphicsError(
                f"framebuffer {verb} shape {pixels.shape} does not match "
                f"framebuffer shape {self._own.shape}")
        if pixels.dtype != np.uint8:
            raise GraphicsError(
                f"framebuffer expects uint8 pixels, got {pixels.dtype}")

    def _updated(self, time: float, unchanged: bool) -> None:
        self._generation += 1
        self._last_update_time = time
        self._last_write_unchanged = unchanged
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
