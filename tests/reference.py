"""The reference path the fast-forward equivalence tests compare with.

:class:`~repro.sim.runner.SessionRunner` skips the ticks
:mod:`repro.sim.fastforward` proves inert, the compositor skips the
composites it proves identical, and it latches a lone full-screen
surface's buffer instead of blitting it.  Inside :func:`reference_path`
none of that happens: the controller declines every region, the
coherence check never absorbs a post and no surface is latched, so
every tick fires off the event heap and every composite is blitted and
compared in full.  No production flag exists for this; it is a
test-side patch only.

:func:`encode_frame_delta` is the specification of the trace writer's
delta encoder: the straightforward two-pass form (a per-pixel change
mask, then a full RLE encode of the dirty rect whatever its content)
that :func:`repro.traces.format.encode_frame_delta` must match record
for record.

:func:`render_video_frame` is the specification of
:meth:`repro.graphics.renderers.FullScreenVideoRenderer.render`: one
``uint8`` block draw, expanded to the screen by ``np.repeat``, that the
renderer must match pixel for pixel and in generator state.
"""

import contextlib
from typing import Iterator

import numpy as np
import pytest

from repro.graphics.compositor import SurfaceManager
from repro.graphics.renderers import FullScreenVideoRenderer
from repro.graphics.surface import Surface
from repro.sim.fastforward import FastForward
from repro.traces.format import FrameRecord, rle_encode


@contextlib.contextmanager
def reference_path() -> Iterator[None]:
    """Fire every tick and fully composite every post."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FastForward, "_skip",
                      lambda self, until, budget: 0)
        patch.setattr(SurfaceManager, "_absorbs_pending_posts",
                      lambda self: False)
        patch.setattr(SurfaceManager, "_latched_surface",
                      lambda self, rects: None)
        yield


def encode_frame_delta(time: float, previous: np.ndarray,
                       current: np.ndarray) -> FrameRecord:
    """The :class:`FrameRecord` turning ``previous`` into ``current``."""
    changed = (current != previous).any(axis=2)
    if not changed.any():
        return FrameRecord(time=time, rect=(0, 0, 0, 0), raw=False,
                           payload=b"")
    rows = changed.any(axis=1)
    cols = changed.any(axis=0)
    y0 = int(np.argmax(rows))
    y1 = int(len(rows) - np.argmax(rows[::-1]))
    x0 = int(np.argmax(cols))
    x1 = int(len(cols) - np.argmax(cols[::-1]))
    region = np.ascontiguousarray(current[y0:y1, x0:x1])
    rle = rle_encode(region)
    if len(rle) < region.nbytes:
        return FrameRecord(time=time, rect=(y0, x0, y1, x1), raw=False,
                           payload=rle)
    return FrameRecord(time=time, rect=(y0, x0, y1, x1), raw=True,
                       payload=region.tobytes())


def render_video_frame(renderer: FullScreenVideoRenderer, surface: Surface,
                       rng: np.random.Generator) -> None:
    """One video frame: a random colour per ``block_px`` square."""
    h, w, b = surface.height, surface.width, renderer.block_px
    bh = (h + b - 1) // b
    bw = (w + b - 1) // b
    blocks = rng.integers(0, 256, size=(bh, bw, 3), dtype=np.uint8)
    rows = np.repeat(blocks, b, axis=1)[:, :w]
    surface.pixels[:] = np.repeat(rows, b, axis=0)[:h]
    surface.mark_damaged()
