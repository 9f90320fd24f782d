"""Figure 6 — content-rate metering accuracy and cost vs pixel budget.

Paper shapes asserted here:

* comparing **all** 921K pixels cannot finish inside the 16.67 ms
  V-Sync slot, so per-frame full comparison is impractical;
* budgets at or below 36K are cheap (well under the slot);
* on the moving-dots stressor the error rate falls with the budget
  and is zero from 9K upward — making 9K the paper's operating point.

The timing here is a real pytest-benchmark sweep over the grid
comparison at each of the paper's five budgets, on genuine 720x1280
frame pairs.
"""

import pytest

from repro.core.grid import PAPER_PIXEL_BUDGETS, GridComparator, GridSpec
from repro.experiments import fig6
from repro.units import VSYNC_DEADLINE_60HZ_S

from conftest import publish

_FRAME_PAIR = None


def frame_pair():
    global _FRAME_PAIR
    if _FRAME_PAIR is None:
        first, _ = fig6.make_frame_pair(seed=0)
        _FRAME_PAIR = (first, first.copy())
    return _FRAME_PAIR


@pytest.mark.parametrize("label", list(PAPER_PIXEL_BUDGETS))
def test_fig6_comparison_cost(benchmark, label):
    """Time the equal-frames comparison at one pixel budget."""
    first, duplicate = frame_pair()
    grid = GridSpec.from_sample_count(first.shape[:2],
                                      PAPER_PIXEL_BUDGETS[label])
    comparator = GridComparator(grid)
    benchmark(lambda: comparator.frames_equal(duplicate, first))


def test_fig6_reproduction(benchmark):
    result = benchmark.pedantic(
        lambda: fig6.run(duration_s=12.0, seed=3, repeats=30),
        rounds=1, iterations=1)
    publish("fig6_metering_cost", result.format())

    acc = {a.label: a for a in result.accuracy}
    cost = {c.label: c for c in result.cost}

    # Accuracy: error falls with budget; exact from 9K upward.
    assert acc["2K"].error_rate >= acc["4K"].error_rate
    assert acc["2K"].error_rate > 0.02
    for label in ("9K", "36K", "921K"):
        assert acc[label].error_rate == 0.0, label

    # Cost: monotone in samples; the full comparison blows the V-Sync
    # budget while 36K and below fit easily.
    assert cost["921K"].median_compare_s > cost["36K"].median_compare_s
    assert cost["36K"].median_compare_s > cost["9K"].median_compare_s
    assert not cost["921K"].within_vsync_budget
    for label in ("2K", "4K", "9K", "36K"):
        assert cost[label].within_vsync_budget, label
        assert cost[label].median_compare_s < \
            0.25 * VSYNC_DEADLINE_60HZ_S, label

    # The paper's operating point: 9K is the smallest exact budget.
    exact = [label for label in PAPER_PIXEL_BUDGETS
             if acc[label].error_rate == 0.0]
    assert min(exact, key=lambda lb: acc[lb].sample_count) == "9K"
