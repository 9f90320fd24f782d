"""BurstLink-style burst-mode refresh policy (zoo extension).

BurstLink's idea: instead of pacing the display pipeline at the
content rate continuously, render *ahead* into the double buffer in a
short burst at the panel's maximum rate, then drop the panel to its
floor and serve the buffered frames until the buffer drains.  Energy
is saved in the long floor intervals; the burst amortizes wake-up
costs.

The simulation presents frames through a live compositor rather than
a prefetch queue, so the policy emulates the burst schedule as a
deterministic duty cycle: within each ``period_s`` window the panel
runs at the ceiling for the fraction of the period the measured
content rate actually needs (``content / ceiling``), and at the floor
for the rest.  A fully-busy screen degenerates to the fixed maximum;
a static screen sits at the floor — the same envelope real bursting
produces, with the burst phase pinned to the simulation clock so
every run and worker count replays it identically.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.content_rate import ContentRateMeter
from ..core.governor import GovernorPolicy
from ..errors import ConfigurationError
from ..units import ensure_positive


class BurstRefreshGovernor(GovernorPolicy):
    """Duty-cycled max-rate bursts with floor dwells between them.

    Parameters
    ----------
    refresh_rates_hz:
        The panel's discrete levels; the policy only ever uses the
        floor (minimum) and ceiling (maximum).
    meter:
        Content-rate meter sizing each period's burst fraction.
    window_s:
        Sliding window of the meter reads.
    period_s:
        Length of one burst cycle (burst + floor dwell).
    """

    name = "burst-mode"

    def __init__(self, refresh_rates_hz: Sequence[float],
                 meter: ContentRateMeter,
                 window_s: Optional[float] = None,
                 period_s: float = 1.0) -> None:
        if not refresh_rates_hz:
            raise ConfigurationError(
                "burst governor needs at least one refresh rate")
        rates = [float(r) for r in refresh_rates_hz]
        self.floor_hz = min(rates)
        self.ceiling_hz = max(rates)
        self.meter = meter
        self.window_s = None if window_s is None else ensure_positive(
            window_s, "window_s")
        self.period_s = ensure_positive(period_s, "period_s")

    def burst_fraction(self, now: float) -> float:
        """Fraction of the current period spent bursting, in [0, 1]."""
        content = self.meter.content_rate(now, self.window_s)
        if self.ceiling_hz <= 0:
            return 1.0
        return min(1.0, content / self.ceiling_hz)

    def select_rate(self, now: float) -> float:
        duty = self.burst_fraction(now)
        if duty >= 1.0:
            return self.ceiling_hz
        phase = (now % self.period_s) / self.period_s
        return self.ceiling_hz if phase < duty else self.floor_hz

    def on_touch(self, time: float) -> Optional[float]:
        # Interaction opens a burst immediately (BurstLink bursts on
        # demand): respond at the ceiling without waiting for the next
        # decision tick.
        return self.ceiling_hz
