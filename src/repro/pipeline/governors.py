"""The governor registry: selector string -> policy factory.

Every place that used to re-implement ``if governor == "fixed": ...``
dispatch — ``run_session``, the CLI, the batch runner, the experiment
drivers — now consults :data:`GOVERNORS`.  The builtin selectors
reproduce :data:`repro.sim.session.GOVERNOR_CHOICES` exactly, in the
documented order: the paper's seven policies first, then the
related-work governor zoo (luminance, scene, burst, predictive — see
``docs/governors.md`` for the paper lineage of each).

Adding a governor takes one module and no edits elsewhere::

    # my_governor.py
    from repro.core.governor import GovernorPolicy
    from repro.pipeline import GOVERNORS, GovernorContext

    class HalfRateGovernor(GovernorPolicy):
        name = "half-rate"
        def __init__(self, rate_hz: float) -> None:
            self.rate_hz = rate_hz
        def select_rate(self, now: float) -> float:
            return self.rate_hz

    @GOVERNORS.register("half-rate")
    def make_half_rate(context: GovernorContext) -> HalfRateGovernor:
        return HalfRateGovernor(context.spec.refresh_rates_hz[-2])

After the import, ``half-rate`` is selectable from ``repro run`` /
``repro compare``, :func:`repro.sim.batch.run_batch`, scenarios, and
every experiment that takes a governor argument.  Keep the factory at
module level: the parallel batch engine ships extension entries to
worker processes by pickle-by-reference (see
:meth:`repro.pipeline.registry.Registry.extras`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..apps.base import Application
from ..baselines.e3 import E3ScrollGovernor
from ..baselines.fixed import FixedRefreshGovernor
from ..baselines.oracle import OracleGovernor
from ..core.content_rate import ContentRateMeter
from ..core.governor import (
    GovernorPolicy,
    NaiveMatchGovernor,
    SectionBasedGovernor,
    TouchBoostGovernor,
)
from ..core.hysteresis import HysteresisGovernor
from ..core.section_table import SectionTable
from ..display.panel import DisplayPanel
from ..display.spec import PanelSpec
from ..errors import ConfigurationError
from ..governors import (
    BurstRefreshGovernor,
    ContentLuminanceGovernor,
    PredictiveRateGovernor,
    SceneRateGovernor,
)
from ..graphics.framebuffer import Framebuffer
from ..sim.scenario import SessionApplication
from .registry import Registry

#: Builtin selector strings, registered below in documented order.
GOVERNOR_FIXED = "fixed"
GOVERNOR_SECTION = "section"
GOVERNOR_SECTION_BOOST = "section+boost"
GOVERNOR_SECTION_HYSTERESIS = "section+hysteresis"
GOVERNOR_NAIVE = "naive"
GOVERNOR_ORACLE = "oracle"
GOVERNOR_E3 = "e3"
#: The governor zoo (related-work policies; see docs/governors.md).
GOVERNOR_LUMINANCE = "luminance"
GOVERNOR_SCENE = "scene"
GOVERNOR_BURST = "burst"
GOVERNOR_PREDICTIVE = "predictive"


@dataclass(frozen=True)
class GovernorContext:
    """Everything a governor factory may draw on.

    The context carries the already-built upstream stages (panel,
    meter, application) plus the session's tuning knobs, so factories
    stay plain functions of one argument — the shape the registry
    ships across process boundaries.

    Parameters
    ----------
    panel:
        The session's display panel (its spec supplies the discrete
        rate levels).
    meter:
        The content-rate meter feeding measurement-driven policies.
    application:
        The session's application — only the oracle (ground-truth)
        policy reads it.
    content_window_s:
        Sliding window for the governor's content-rate reads.
    boost_hold_s:
        Touch-boost hold time.
    table_bias:
        Quality-priority bias applied to the section table
        (:meth:`~repro.core.section_table.SectionTable.biased`).
    framebuffer:
        The session framebuffer, for content-aware policies that price
        the displayed pixels (the luminance governor).  Optional so
        hand-built contexts without a framebuffer keep working; the
        factories that need it raise
        :class:`~repro.errors.ConfigurationError` when absent.
    """

    panel: DisplayPanel
    meter: ContentRateMeter
    application: SessionApplication
    content_window_s: float = 1.0
    boost_hold_s: float = 1.0
    table_bias: int = 0
    framebuffer: Optional[Framebuffer] = None

    @property
    def spec(self) -> PanelSpec:
        """The panel's hardware spec."""
        return self.panel.spec

    def section_policy(self) -> SectionBasedGovernor:
        """The paper's section-based policy for this context.

        Shared by the ``section*`` builtins so wrappers (boost,
        hysteresis) compose over an identical core.
        """
        table = SectionTable.for_panel(self.spec).biased(self.table_bias)
        return SectionBasedGovernor(table, self.meter,
                                    window_s=self.content_window_s)


#: Factory signature every entry in :data:`GOVERNORS` satisfies.
GovernorFactory = Callable[[GovernorContext], GovernorPolicy]

#: The governor registry (single source of truth for selector strings).
GOVERNORS: Registry[GovernorFactory] = Registry("governor")


@GOVERNORS.register(GOVERNOR_FIXED, builtin=True)
def make_fixed(context: GovernorContext) -> GovernorPolicy:
    """Stock baseline: pinned at the panel maximum."""
    return FixedRefreshGovernor(context.spec.max_refresh_hz)


@GOVERNORS.register(GOVERNOR_SECTION, builtin=True)
def make_section(context: GovernorContext) -> GovernorPolicy:
    """The paper's section-based control only."""
    return context.section_policy()


@GOVERNORS.register(GOVERNOR_SECTION_BOOST, builtin=True)
def make_section_boost(context: GovernorContext) -> GovernorPolicy:
    """The paper's full system: section control + touch boosting."""
    return TouchBoostGovernor(context.section_policy(),
                              boost_rate_hz=context.spec.max_refresh_hz,
                              hold_s=context.boost_hold_s)


@GOVERNORS.register(GOVERNOR_SECTION_HYSTERESIS, builtin=True)
def make_section_hysteresis(context: GovernorContext) -> GovernorPolicy:
    """Extension: boosted section control with damped down-switching."""
    boosted = TouchBoostGovernor(context.section_policy(),
                                 boost_rate_hz=context.spec.max_refresh_hz,
                                 hold_s=context.boost_hold_s)
    return HysteresisGovernor(boosted)


@GOVERNORS.register(GOVERNOR_NAIVE, builtin=True)
def make_naive(context: GovernorContext) -> GovernorPolicy:
    """The paper's failed first attempt (kept as a negative result)."""
    return NaiveMatchGovernor(context.spec.refresh_rates_hz,
                              context.meter,
                              window_s=context.content_window_s)


@GOVERNORS.register(GOVERNOR_ORACLE, builtin=True)
def make_oracle(context: GovernorContext) -> GovernorPolicy:
    """Ground-truth content rate (upper bound on savings)."""
    application = context.application
    # SessionConfig rejects the oracle for a multi-app scenario.
    assert isinstance(application, Application)
    return OracleGovernor(SectionTable.for_panel(context.spec),
                          application)


@GOVERNORS.register(GOVERNOR_E3, builtin=True)
def make_e3(context: GovernorContext) -> GovernorPolicy:
    """Interaction-driven baseline (Han [16])."""
    return E3ScrollGovernor(low_rate_hz=context.spec.min_refresh_hz,
                            high_rate_hz=context.spec.max_refresh_hz)


@GOVERNORS.register(GOVERNOR_LUMINANCE, builtin=True)
def make_luminance(context: GovernorContext) -> GovernorPolicy:
    """SmartNight-style: section control stepped down on dark frames."""
    if context.framebuffer is None:
        raise ConfigurationError(
            "the luminance governor needs a framebuffer in its "
            "GovernorContext (content-aware policies price the "
            "displayed pixels)")
    return ContentLuminanceGovernor(context.section_policy(),
                                    context.framebuffer,
                                    context.spec.refresh_rates_hz)


@GOVERNORS.register(GOVERNOR_SCENE, builtin=True)
def make_scene(context: GovernorContext) -> GovernorPolicy:
    """EVSO-style: one latched rate per detected scene."""
    table = SectionTable.for_panel(context.spec).biased(context.table_bias)
    return SceneRateGovernor(table, context.meter,
                             window_s=context.content_window_s)


@GOVERNORS.register(GOVERNOR_BURST, builtin=True)
def make_burst(context: GovernorContext) -> GovernorPolicy:
    """BurstLink-style: duty-cycled max-rate bursts over a floor."""
    return BurstRefreshGovernor(context.spec.refresh_rates_hz,
                                context.meter,
                                window_s=context.content_window_s)


@GOVERNORS.register(GOVERNOR_PREDICTIVE, builtin=True)
def make_predictive(context: GovernorContext) -> GovernorPolicy:
    """Dynamic-Sampling-Rate-style: forecast-driven section lookup."""
    table = SectionTable.for_panel(context.spec).biased(context.table_bias)
    return PredictiveRateGovernor(table, context.meter)


def governor_names() -> Tuple[str, ...]:
    """Every selectable governor, builtins first (dynamic: includes
    extensions registered so far)."""
    return GOVERNORS.names()


def build_governor(governor: str,
                   context: GovernorContext) -> GovernorPolicy:
    """Construct the policy registered under ``governor``."""
    factory = GOVERNORS.get(governor)
    return factory(context)
