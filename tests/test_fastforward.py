"""Properties of the fast-forward controller (`repro.sim.fastforward`).

* The chain and idle-due helpers reproduce sequential stepping exactly.
* A V-Sync and a decision at the same instant end a skip region: their
  order belongs to the event heap.
* The ``max_events`` storm bound: a skip region never overshoots the
  budget, so ``SessionRunner.advance(until, max_events=N)`` raises (or
  returns) at the same event, ``events_processed``, sim time and state
  as stepping every tick, over a whole grid of slices and budgets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import session_summary_dict
from repro.apps.profile import AppCategory, AppProfile, RenderStyle
from repro.display.spec import PanelSpec
from repro.errors import SimulationError
from repro.pipeline import PANELS
from repro.sim.fastforward import _chain_times, _first_due
from repro.sim.runner import SessionRunner
from repro.sim.session import SessionConfig

from .reference import reference_path
from .test_golden_fastforward import READER


def _stepped(start, period, until, block):
    """The tick times sequential ``t = t + period`` reschedules fire."""
    times = []
    t = start
    while t <= until and (block is None or t < block):
        times.append(t)
        t = t + period
    return times


class TestChainTimes:
    @settings(deadline=None, max_examples=200)
    @given(start=st.floats(0.0, 100.0),
           period=st.sampled_from([1 / 30, 1 / 48, 1 / 60, 1 / 90,
                                   1 / 120, 0.1, 0.2, 0.25]),
           span=st.floats(0.0, 8.0),
           block_at=st.one_of(st.none(), st.floats(-1.0, 9.0)))
    def test_matches_sequential_reschedules(self, start, period, span,
                                            block_at):
        until = start + span
        block = None if block_at is None else start + block_at
        assert (_chain_times(start, period, until, block)
                == _stepped(start, period, until, block))

    def test_both_branches_agree(self):
        # Short chains use the loop, long ones numpy; same floats.
        for span in (0.1, 0.39, 0.41, 1.0, 30.0):
            assert (_chain_times(0.05, 1 / 120, 0.05 + span, None)
                    == _stepped(0.05, 1 / 120, 0.05 + span, None))


class TestFirstDue:
    @settings(deadline=None, max_examples=300)
    @given(start=st.integers(0, 640), count=st.integers(0, 60),
           last_post=st.integers(-128, 800),
           threshold=st.sampled_from([0.25, 0.5, 1.0, (1 / 60) - 1e-9,
                                      1.0 - 1e-9]),
           data=st.data())
    def test_matches_linear_scan(self, start, count, last_post,
                                 threshold, data):
        # Ticks and posts on a 1/64 s grid make ``t - last_post`` hit
        # the threshold exactly, so the boundary case is exercised.
        times = _stepped(start / 64, 1 / 64, (start + count) / 64, None)
        last = last_post / 64
        index = data.draw(st.integers(0, len(times)))
        expected = next((i for i in range(index, len(times))
                         if times[i] - last >= threshold), len(times))
        assert _first_due(times, index, last, threshold) == expected


# ----------------------------------------------------------------------
# The storm bound
# ----------------------------------------------------------------------
#: An always-on reader at 120 Hz: thousands of skippable ticks.
STORM_CONFIG = SessionConfig(app=READER, governor="fixed",
                             duration_s=30.0, seed=3,
                             panel=PANELS.get("ltpo-120")())
UNTILS = (1.0, 2.0, 3.3, 5.0, 8.0, 12.5, 20.0)
BUDGETS = (50, 100, 200, 300, 500, 750, 1000, 2000, 3000)


def _outcome(until, budget):
    """What one bounded advance does, and the state it leaves."""
    runner = SessionRunner(STORM_CONFIG)
    try:
        result = ("returned", runner.advance(until, max_events=budget))
    except SimulationError as exc:
        result = ("raised", str(exc))
    return (result, runner.now, runner.sim.events_processed,
            runner.state_digest())


@pytest.fixture(scope="module")
def stepped_outcomes():
    with reference_path():
        return {(until, budget): _outcome(until, budget)
                for until in UNTILS for budget in BUDGETS}


class TestStormBound:
    @pytest.mark.parametrize("until", UNTILS)
    def test_bounded_advance_matches_stepping(self, stepped_outcomes,
                                              until):
        for budget in BUDGETS:
            assert _outcome(until, budget) == \
                stepped_outcomes[until, budget], budget

    def test_grid_has_both_outcomes(self, stepped_outcomes):
        kinds = {outcome[0][0] for outcome in stepped_outcomes.values()}
        assert kinds == {"returned", "raised"}

    def test_bounded_advance_still_skips(self):
        runner = SessionRunner(STORM_CONFIG)
        runner.advance(20.0, max_events=3000)
        assert runner._fast_forward.skipped_ticks > 2000


# ----------------------------------------------------------------------
# V-Sync/decision collisions
# ----------------------------------------------------------------------
#: Rates and a decision period that are exact binary fractions: V-Syncs
#: and decisions meet at the same float instant all the time, and at
#: 4 Hz the two chains have the same period.
DYADIC_PANEL = PanelSpec(name="dyadic", width=720, height=1280,
                         refresh_rates_hz=(2.0, 4.0))
BUSY_READER = AppProfile(
    name="busy reader", category=AppCategory.GENERAL,
    idle_content_fps=0.5, active_content_fps=4.0, idle_submit_fps=1.0,
    touch_events_per_s=0.05, render_style=RenderStyle.SMALL_REGION)


class TestCollisions:
    @pytest.mark.parametrize("governor", ["section", "section+boost",
                                          "naive"])
    def test_colliding_chains_match_stepping(self, governor):
        for seed in range(4):
            cfg = SessionConfig(app=BUSY_READER, governor=governor,
                                duration_s=30.0, seed=seed,
                                panel=DYADIC_PANEL,
                                decision_period_s=0.25)
            with reference_path():
                expected = session_summary_dict(SessionRunner(cfg).run())
            runner = SessionRunner(cfg)
            assert session_summary_dict(runner.run()) == expected, seed
            assert runner._fast_forward.skipped_ticks > 0
