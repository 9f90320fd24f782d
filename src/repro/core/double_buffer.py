"""Double buffering for previous-frame storage (Section 3.1).

Comparing the current framebuffer against the previous one needs the
previous one to still exist after it has been overwritten on screen.
The paper keeps an extra buffer and flips between two slots — while one
slot is being filled with the new frame (asynchronous I/O), the other
still holds the comparison reference, so metering never blocks the
update path.

In simulation there is no real asynchronous I/O to win back, but the
scheme's *accounting* matters: the number of full-frame copies is the
memory-bandwidth cost of the scheme, and one ablation
(:class:`SampledDoubleBuffer`) shows that storing only the grid samples
cuts that cost by the grid's coverage fraction.

The content-rate meter charges this traffic; it does not copy it.  It
keeps no frame of its own: each update is compared with
:attr:`~repro.graphics.framebuffer.Framebuffer.previous_pixels`, the
frame the update replaced.  So
:class:`~repro.core.content_rate.ContentRateMeter` counts captures and
prices each at the slot size of the scheme its configuration names
(``MeterConfig.store_full_frames``).  The classes here are the scheme
itself, with the same captures and byte counts.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import MeteringError
from .grid import GridSpec


def _check_dtype(pixels: np.ndarray, slot: np.ndarray) -> None:
    """Reject a frame the slot would store only by casting it."""
    if pixels.dtype != slot.dtype:
        raise MeteringError(
            f"capture dtype {pixels.dtype} does not match buffer dtype "
            f"{slot.dtype}")


class DoubleBuffer:
    """Two full-frame slots flipped on every capture.

    Usage pattern (per frame update)::

        previous = buf.previous          # may be None on the first frame
        # ... compare current framebuffer against `previous` ...
        buf.capture(framebuffer.pixels)  # store for the next comparison
    """

    def __init__(self, shape: Tuple[int, ...],
                 dtype: np.dtype = np.uint8) -> None:
        if len(shape) < 2:
            raise MeteringError(
                f"double buffer needs an image shape, got {shape}")
        self._slots = (np.zeros(shape, dtype=dtype),
                       np.zeros(shape, dtype=dtype))
        self._front = 0
        self._captures = 0
        self._bytes_copied = 0

    @property
    def captures(self) -> int:
        """Number of frames stored so far."""
        return self._captures

    @property
    def bytes_copied(self) -> int:
        """Total bytes moved into the buffer (bandwidth accounting)."""
        return self._bytes_copied

    @property
    def previous(self) -> Optional[np.ndarray]:
        """The most recently captured frame, or None before the first
        capture.  The returned array stays valid until the capture
        after next (two slots deep)."""
        if self._captures == 0:
            return None
        return self._slots[self._front]

    def capture(self, pixels: np.ndarray) -> None:
        """Copy ``pixels`` into the back slot and flip.

        After this call :attr:`previous` returns (a copy of) ``pixels``.
        """
        back = 1 - self._front
        slot = self._slots[back]
        if pixels.shape != slot.shape:
            raise MeteringError(
                f"capture shape {pixels.shape} does not match buffer "
                f"shape {slot.shape}")
        _check_dtype(pixels, slot)
        np.copyto(slot, pixels)
        self._front = back
        self._captures += 1
        self._bytes_copied += slot.nbytes

    def note_redundant_capture(self, count: int = 1) -> None:
        """Account for ``count`` captures identical to the stored frame.

        On a proven-unchanged update the new frame equals the stored
        previous one, so copying would re-store the same bytes; the
        capture still *counts* — including its bandwidth charge,
        because the real scheme would have performed the copy — and
        :attr:`previous` keeps returning the identical contents.  The
        fast-forward's bulk idle-submit skip accounts a whole run of
        redundant captures in one call.
        """
        if self._captures == 0:
            raise MeteringError(
                "no previous frame to be redundant against")
        self._captures += count
        self._bytes_copied += self._slots[self._front].nbytes * count


class SampledDoubleBuffer:
    """Double buffer that stores only the grid samples of each frame.

    Ablation of the paper's design: since the comparator only ever reads
    the grid points, storing just those points is sufficient for
    metering and shrinks the copy cost from the full frame to
    ``grid.sample_count`` pixels.  The trade-off is that the stored
    frame cannot be re-compared under a *different* grid (the paper's
    full-frame buffer can), so runtime grid reconfiguration needs one
    warm-up frame.
    """

    def __init__(self, grid: GridSpec, channels: int = 3,
                 dtype: np.dtype = np.uint8) -> None:
        self.grid = grid
        shape = (grid.grid_height, grid.grid_width, channels)
        self._slots = (np.zeros(shape, dtype=dtype),
                       np.zeros(shape, dtype=dtype))
        self._front = 0
        self._captures = 0
        self._bytes_copied = 0

    @property
    def captures(self) -> int:
        """Number of frames stored so far."""
        return self._captures

    @property
    def bytes_copied(self) -> int:
        """Total bytes moved into the buffer."""
        return self._bytes_copied

    @property
    def previous(self) -> Optional[np.ndarray]:
        """Grid samples of the most recent capture (None before any)."""
        if self._captures == 0:
            return None
        return self._slots[self._front]

    def capture(self, pixels: np.ndarray) -> None:
        """Sample ``pixels`` on the grid into the back slot and flip."""
        self.capture_samples(self.grid.sample(pixels))

    def capture_samples(self, samples: np.ndarray) -> None:
        """Store already-gathered grid samples into the back slot and
        flip — the same capture as :meth:`capture` without a second
        gather.  ``samples`` is grid-shaped or flattened to
        ``(sample_count, channels)``."""
        back = 1 - self._front
        slot = self._slots[back]
        height, width, channels = slot.shape
        if samples.shape not in (slot.shape, (height * width, channels)):
            raise MeteringError(
                f"sampled shape {samples.shape} does not match slot "
                f"shape {slot.shape}")
        _check_dtype(samples, slot)
        np.copyto(slot, samples.reshape(slot.shape))
        self._front = back
        self._captures += 1
        self._bytes_copied += slot.nbytes

    def note_redundant_capture(self, count: int = 1) -> None:
        """Account for ``count`` captures identical to the stored frame.

        Same contract as :meth:`DoubleBuffer.note_redundant_capture`:
        counts the captures and their bandwidth without moving bytes.
        """
        if self._captures == 0:
            raise MeteringError(
                "no previous frame to be redundant against")
        self._captures += count
        self._bytes_copied += self._slots[self._front].nbytes * count
