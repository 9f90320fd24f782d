"""The governor zoo: refresh-rate policies from the related work.

The paper's section-based controller is one point in a policy space
its related work maps out.  This package implements four neighbouring
points (see ``docs/governors.md`` for lineage and behaviour):

* :class:`~repro.governors.luminance.ContentLuminanceGovernor` —
  SmartNight-style content-luminance coupling: dark frames tolerate
  lower refresh rates at equal perceived quality, priced through the
  per-pixel OLED emission model in :mod:`repro.power.oled`.
* :class:`~repro.governors.scene.SceneRateGovernor` — EVSO-style
  per-scene rate selection: playback segments into scenes by
  inter-frame similarity from the grid meter, one rate per scene.
* :class:`~repro.governors.burst.BurstRefreshGovernor` —
  BurstLink-style bursting: render ahead into the double buffer, then
  drop the panel to its floor between bursts (emulated as a
  deterministic duty cycle).
* :class:`~repro.governors.predictive.PredictiveRateGovernor` —
  Dynamic-Sampling-Rate-style forecasting: the grid comparator's
  meaningful-frame history predicts the next-frame change rate
  instead of reacting to the current one.

Policy classes only: selector strings register as builtins in
:mod:`repro.pipeline.governors` (``luminance`` / ``scene`` /
``burst`` / ``predictive``), which keeps one source of truth for
names and ships factories to batch workers by module import, exactly
like the original seven.  None of the four is on the fast-forward's
allowlist (:data:`repro.sim.fastforward.REPLICABLE_GOVERNORS`) — they
are stateful or read live pixels — so their sessions fire every
tick.
"""

from .burst import BurstRefreshGovernor
from .luminance import ContentLuminanceGovernor
from .predictive import PredictiveRateGovernor
from .scene import SceneRateGovernor

__all__ = [
    "BurstRefreshGovernor",
    "ContentLuminanceGovernor",
    "PredictiveRateGovernor",
    "SceneRateGovernor",
]
