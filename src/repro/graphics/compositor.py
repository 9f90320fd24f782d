"""Surface Manager — the compositor (SurfaceFlinger's role).

Applications *post* their surfaces whenever they finish rendering; the
compositor latches pending posts at each V-Sync and writes one combined
frame into the framebuffer.  Two properties of the real pipeline that
the paper depends on fall out of this design:

* **V-Sync limits the frame rate to the refresh rate** — however many
  times an app posts between two V-Syncs, at most one frame update
  happens per V-Sync (Section 2.1).
* **Redundant frames reach the framebuffer** — posting an unchanged
  surface still produces a frame update with byte-identical content,
  which is exactly what the content-rate meter must detect and discount
  (Section 2.2).

Every full composite is checked against the previous one over the
whole frame (the simulator's ground truth).  When that check proves the
new frame identical to what the framebuffer already holds, the update
is delivered as :meth:`~repro.graphics.framebuffer.Framebuffer
.write_unchanged`: no pixel moves, and every framebuffer listener can
reuse the judgement instead of repeating it.  A composite whose posts
all declare unchanged content, over a stack where no surface is
damaged or moved, is proven identical without the compare: it skips
the composite as well.

A stack of one surface covering the screen is *latched*, as a
hardware composer shows a lone full-screen layer: the surface's own
buffer is compared and presented to the framebuffer by reference, and
the frame it replaced goes back to the surface as its next back buffer
(:meth:`~repro.graphics.surface.Surface.take_back_buffer`).  The
surface restores that buffer from the presented frame on its first
pixel read, and a renderer that writes every pixel skips even that
copy, so a video frame costs its render and no copy.  Every other
stack is blitted into a scratch buffer, allocated by the first blit.
The latch and the blit differ only in how the frame is produced; the
compare, the present and the accounting are shared.

The blit moves no byte it can prove is already in place: each buffer
remembers the surface rects it was composited under and is zero
outside them, so the scratch buffer is re-zeroed only when the stack
geometry changed; a new frame becomes the previous one by reference,
not by copying; and the frame present replaced becomes the next
scratch buffer.

Ownership keeps every shown frame intact.  The framebuffer marks a
presented buffer read-only; the compositor makes it writable again
only once the next present has replaced it and that update's
listeners have returned, and then hands it to exactly one owner: the
latched surface or the blit.  A pending restore's source is always
the compositor's previous composite, presented and so read-only
(:meth:`~repro.graphics.surface.Surface.take_back_buffer` refuses any
other).  Before that buffer is handed out the restore is resolved: by
the latch's or the blit's read of the surface pixels, or by
:meth:`SurfaceManager.unregister_surface` for a surface leaving the
stack.

The ground-truth compare reads a leading slice of each frame first and
the rest only when that slice agrees, so a frame that differs early
(video, scrolling) is told apart without reading either frame in full.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import GraphicsError
from .framebuffer import Framebuffer
from .surface import Surface

#: Callback fired after each composition: ``(time, frame_was_redundant)``.
CompositionListener = Callable[[float, bool], None]

#: Screen rects ``(y0, x0, y1, x1)`` of a surface stack, in z-order.
StackRects = Tuple[Tuple[int, int, int, int], ...]

#: The ground-truth compare reads the first 1/N of a frame's words
#: before the rest.
_HEAD_FRACTION = 64

#: Bytes of the lead read before the head, used when at most a quarter
#: of the head.
_LEAD_BYTES = 512

#: Bytes of the first piece after the head; each next piece is
#: _PIECE_GROWTH times longer.
_PIECE_BYTES = 256 * 1024
_PIECE_GROWTH = 8


def _word_dtype(nbytes: int) -> np.dtype:
    """The widest unsigned word whose size divides ``nbytes``."""
    for dtype in (np.uint64, np.uint32, np.uint16):
        if nbytes % np.dtype(dtype).itemsize == 0:
            return np.dtype(dtype)
    return np.dtype(np.uint8)


def _compare_stops(nbytes: int) -> Tuple[int, ...]:
    """Word offsets ending each read of the ground-truth compare.

    A 512-byte lead when it is at most a quarter of the head, then the
    head (the first 1/_HEAD_FRACTION of the words), then the rest in
    pieces of at least 256 KiB, each 8x the one before.  Offsets are
    strictly increasing and the last is the frame's word count.
    """
    itemsize = _word_dtype(nbytes).itemsize
    words = nbytes // itemsize
    head = words // _HEAD_FRACTION
    lead = _LEAD_BYTES // itemsize
    stops = [lead] if 4 * lead <= head else []
    if head:
        stops.append(head)
    piece = _PIECE_BYTES // itemsize
    stop = head + piece
    while stop < words:
        stops.append(stop)
        piece *= _PIECE_GROWTH
        stop += piece
    stops.append(words)
    return tuple(stops)


class SurfaceManager:
    """Composites posted surfaces into the framebuffer at V-Sync."""

    def __init__(self, framebuffer: Framebuffer) -> None:
        self._framebuffer = framebuffer
        self._surfaces: List[Surface] = []
        self._pending: Dict[str, Surface] = {}
        # The blit's buffer, allocated by the first blit: a session
        # whose stack is one full-screen surface never needs it.
        self._scratch: Optional[np.ndarray] = None
        self._previous = np.zeros(framebuffer.shape, dtype=np.uint8)
        # The surface rects each buffer was last composited under;
        # outside them the buffer is zero.
        self._scratch_rects: StackRects = ()
        self._previous_rects: StackRects = ()
        # The rects of a stack that is one full-screen surface.
        self._screen_rects: StackRects = (
            (0, 0, framebuffer.height, framebuffer.width),)
        # Ground truth compares frames as words of this dtype, one read
        # ending at each of the _stops word offsets.
        self._word = _word_dtype(self._previous.nbytes)
        self._stops = _compare_stops(self._previous.nbytes)
        self._compositions = 0
        self._redundant_compositions = 0
        self._listeners: List[CompositionListener] = []
        # Frame coherence: the stack rects of the last full composite,
        # or None once a surface was registered or unregistered since.
        # The stack is coherent while they equal the current rects, so
        # moving a surface breaks coherence too.
        self._coherent_rects: Optional[StackRects] = None
        self._pending_dirty = False
        # Framebuffer generation right after this compositor's last
        # update.  While it still matches, nothing else has written the
        # framebuffer, so its pixels equal _previous.  A framebuffer
        # never written holds the zeros _previous starts as, so
        # generation 0 counts as this compositor's; any other is
        # foreign (None).
        self._written_generation: Optional[int] = (
            0 if framebuffer.generation == 0 else None)

    # ------------------------------------------------------------------
    # Surface lifecycle
    # ------------------------------------------------------------------
    def register_surface(self, surface: Surface) -> None:
        """Add a surface to the composition stack."""
        surface.check_fits(self._framebuffer.width, self._framebuffer.height)
        if any(s.name == surface.name for s in self._surfaces):
            raise GraphicsError(
                f"a surface named {surface.name!r} is already registered")
        self._surfaces.append(surface)
        self._surfaces.sort(key=lambda s: s.z_order)
        self._coherent_rects = None

    def unregister_surface(self, surface: Surface) -> None:
        """Remove a surface from the stack.

        A latched surface's pending restore is resolved first: its
        source is this compositor's previous composite, which the next
        composite may hand to another surface.
        """
        try:
            self._surfaces.remove(surface)
        except ValueError:
            raise GraphicsError(
                f"surface {surface.name!r} is not registered") from None
        surface.resolve_restore()
        self._pending.pop(surface.name, None)
        self._coherent_rects = None

    @property
    def surfaces(self) -> List[Surface]:
        """Registered surfaces in z-order (bottom first)."""
        return list(self._surfaces)

    # ------------------------------------------------------------------
    # Posting and composition
    # ------------------------------------------------------------------
    def post(self, surface: Surface,
             content_changed: bool = True) -> None:
        """Queue a surface for the next V-Sync composition.

        Posting the same surface twice in one V-Sync interval collapses
        to a single frame update — that is the V-Sync throttle.

        ``content_changed=False`` is the poster's declaration that the
        surface pixels are untouched since its last post (an idle
        repost — the paper's "redundant frame").  The declaration only
        feeds the coherence check of :meth:`on_vsync`, and is
        cross-checked against surface damage there; posters that cannot
        make it simply use the default.
        """
        if surface not in self._surfaces:
            raise GraphicsError(
                f"cannot post unregistered surface {surface.name!r}")
        self._pending[surface.name] = surface
        if content_changed:
            self._pending_dirty = True

    @property
    def has_pending_posts(self) -> bool:
        """True if any surface is waiting for the next V-Sync."""
        return bool(self._pending)

    def on_vsync(self, time: float) -> bool:
        """Latch pending posts and composite; returns True if a frame
        update happened.

        With no pending posts the framebuffer is untouched — no frame
        update, no composition work, exactly like the real pipeline
        idling on a static screen.  When every pending post declares
        its content unchanged, no surface is damaged and the previous
        full composite is still current, the frame would be
        byte-identical to what the framebuffer holds: the composite
        and the compare are skipped and the same accounting is
        performed.
        """
        if not self._pending:
            return False
        if self._absorbs_pending_posts():
            # Every pending post declared its pixels unchanged, no
            # surface mutated since the last full composite (damage
            # cross-check), and _previous still mirrors the
            # framebuffer: the composite would reproduce the previous
            # frame byte for byte.  Perform the identical accounting
            # without the pixel work.
            for surface in self._pending.values():
                surface.acknowledge_post()
            self._pending.clear()
            self._write_unchanged(time)
            self._compositions += 1
            self._redundant_compositions += 1
            for listener in self._listeners:
                listener(time, True)
            return True
        for surface in self._pending.values():
            surface.acknowledge_post()
        self._pending.clear()
        self._pending_dirty = False

        rects = self._stack_rects()
        latched = self._latched_surface(rects)
        frame = latched.pixels if latched is not None else self._blit(rects)

        # Ground truth: the full-frame compare, whatever follows.
        redundant = self._frames_equal(frame, self._previous)
        if redundant and self._framebuffer_current():
            # Proven byte-identical to what the framebuffer holds:
            # record the update without copying a single pixel, so
            # every listener can reuse the judgement.
            self._write_unchanged(time)
        else:
            # The new frame becomes the previous one and goes on screen
            # by reference; each buffer keeps the rects it was
            # composited under.
            replaced, replaced_rects = self._previous, self._previous_rects
            self._previous, self._previous_rects = frame, rects
            self._written_generation = self._framebuffer.generation + 1
            self._framebuffer.present(frame, time)
            # The frame present replaced is off screen and its
            # update's listeners have returned: it is a back buffer
            # again, for the latched surface or for the next blit.
            replaced.flags.writeable = True
            if latched is not None:
                latched.take_back_buffer(replaced)
            else:
                self._scratch = replaced
                self._scratch_rects = replaced_rects
        self._coherent_rects = rects

        self._compositions += 1
        if redundant:
            self._redundant_compositions += 1
        for listener in self._listeners:
            listener(time, redundant)
        return True

    def _latched_surface(self, rects: StackRects) -> Optional[Surface]:
        """The surface whose own buffer is the frame, or None to blit.

        A stack of one surface covering the screen is its own
        composite: its buffer is compared and presented as it is.
        Reading its pixels resolves a pending restore, so none from
        _previous is left when _previous is replaced.
        """
        if rects == self._screen_rects:
            return self._surfaces[0]
        return None

    def _blit(self, rects: StackRects) -> np.ndarray:
        """Composite the stack into the scratch buffer and return it.

        Reading every surface's pixels resolves its pending restore,
        so none is left when _previous becomes scratch.
        """
        if self._scratch is None:
            # Fresh zeros are zero outside any rects.
            self._scratch = np.zeros(self._framebuffer.shape,
                                     dtype=np.uint8)
            self._scratch_rects = rects
        elif rects != self._scratch_rects:
            # Zero only when the stack geometry changed: under the same
            # rects the blits below overwrite every non-zero byte.
            self._scratch[:] = 0
            self._scratch_rects = rects
        for surface, (y0, x0, y1, x1) in zip(self._surfaces, rects):
            self._scratch[y0:y1, x0:x1] = surface.pixels
        return self._scratch

    def _frames_equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Byte equality of two frames, compared a word at a time.

        The words are read in the stages ``_stops`` ends, each only if
        the ones before agree: the verdict is ``np.array_equal``'s, but
        frames that differ early are rejected after a fraction of the
        reads.
        """
        a_words = a.reshape(-1).view(self._word)
        b_words = b.reshape(-1).view(self._word)
        start = 0
        for stop in self._stops:
            if not np.array_equal(a_words[start:stop], b_words[start:stop]):
                return False
            start = stop
        return True

    def _framebuffer_current(self) -> bool:
        """True while the framebuffer holds this compositor's last
        update (no foreign write since), i.e. equals _previous."""
        return self._framebuffer.generation == self._written_generation

    def _stack_rects(self) -> StackRects:
        """Screen rects of the registered surfaces, in z-order."""
        return tuple(surface.rect for surface in self._surfaces)

    def _absorbs_pending_posts(self) -> bool:
        """True when compositing the pending posts provably reproduces
        the framebuffer: coherent stack (same surfaces at the same
        rects), current framebuffer, no post declaring changed content
        and no damaged surface.  The fast-forward's idle-skip proof
        reuses this predicate."""
        return (not self._pending_dirty
                and self._framebuffer_current()
                and self._coherent_rects == self._stack_rects()
                and not any(s.is_damaged for s in self._surfaces))

    def _write_unchanged(self, time: float) -> None:
        # Generations are recorded before the call: a listener that
        # writes the framebuffer from its callback must count as a
        # foreign write.
        self._written_generation = self._framebuffer.generation + 1
        self._framebuffer.write_unchanged(time)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def compositions(self) -> int:
        """Total frame updates performed."""
        return self._compositions

    @property
    def redundant_compositions(self) -> int:
        """Frame updates whose pixels matched the previous frame exactly.

        This is ground truth (full-buffer comparison) used to validate
        the grid-based meter; the meter itself never sees this.
        """
        return self._redundant_compositions

    @property
    def meaningful_compositions(self) -> int:
        """Frame updates that changed at least one pixel (ground truth)."""
        return self._compositions - self._redundant_compositions

    def add_composition_listener(self,
                                 listener: CompositionListener) -> None:
        """Register a callback fired after every composition."""
        self._listeners.append(listener)
