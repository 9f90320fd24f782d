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
"""

import contextlib
from typing import Iterator

import pytest

from repro.graphics.compositor import SurfaceManager
from repro.sim.fastforward import FastForward


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
