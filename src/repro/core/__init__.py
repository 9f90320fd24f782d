"""The paper's contribution: content-rate metering and refresh control.

Pipeline (Section 3 of the paper):

1. :class:`~repro.core.double_buffer.DoubleBuffer` keeps the previous
   framebuffer available for comparison without stalling updates (the
   meter charges its traffic and keeps no frame itself: it compares
   with :attr:`~repro.graphics.framebuffer.Framebuffer.previous_pixels`).
2. :class:`~repro.core.grid.GridSpec` /
   :class:`~repro.core.grid.GridComparator` compare only one
   representative pixel per grid cell, making metering nearly free.
3. :class:`~repro.core.content_rate.ContentRateMeter` counts meaningful
   (content-changing) frames per second — the **content rate**.
4. :class:`~repro.core.section_table.SectionTable` maps a content rate
   to a refresh rate via Equation (1) so the chosen rate always leaves
   headroom above the measurable content rate.
5. :class:`~repro.core.governor.SectionBasedGovernor` applies the table
   periodically; :class:`~repro.core.governor.TouchBoostGovernor` wraps
   it to jump to the maximum rate on touch.
6. :meth:`~repro.pipeline.builder.SessionBuilder.build_governor` (stage 8)
   wires items 3–5 into the "proposed system".
"""

from .content_rate import ContentRateMeter, MeterConfig
from .double_buffer import DoubleBuffer, SampledDoubleBuffer
from .governor import (
    GovernorPolicy,
    NaiveMatchGovernor,
    SectionBasedGovernor,
    TouchBoostGovernor,
)
from .grid import GridComparator, GridSpec
from .hysteresis import HysteresisGovernor
from .quality import QualityReport, compute_quality, quality_vs_baseline
from .section_table import Section, SectionTable
from .watchdog import GovernorWatchdog, WatchdogConfig

__all__ = [
    "ContentRateMeter",
    "DoubleBuffer",
    "GovernorPolicy",
    "GovernorWatchdog",
    "GridComparator",
    "GridSpec",
    "HysteresisGovernor",
    "MeterConfig",
    "NaiveMatchGovernor",
    "QualityReport",
    "SampledDoubleBuffer",
    "Section",
    "SectionBasedGovernor",
    "SectionTable",
    "TouchBoostGovernor",
    "WatchdogConfig",
    "compute_quality",
    "quality_vs_baseline",
]
