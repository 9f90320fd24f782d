"""Tests for terminal plotting helpers and the parallel batch runner."""

import math

import pytest

import repro
from repro.analysis.ascii_plot import bar_chart, sparkline, timeline
from repro.errors import ConfigurationError
from repro.sim.batch import run_batch, run_session_summary
from repro.sim.session import SessionConfig


class TestSparkline:
    def test_monotone_series_monotone_glyphs(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_flat_series_lowest_level(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_pinned_scale(self):
        line = sparkline([30.0], lo=0.0, hi=60.0)
        assert line == "▅"  # midpoint rounds up to level 4 of 0-7

    def test_values_clipped_to_scale(self):
        line = sparkline([100.0, -5.0], lo=0.0, hi=60.0)
        assert line == "█▁"

    def test_nan_renders_as_space(self):
        assert sparkline([1.0, math.nan, 2.0])[1] == " "

    def test_all_nan(self):
        assert sparkline([math.nan, math.nan]) == "  "

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            sparkline([])

    def test_inverted_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            sparkline([1.0], lo=10.0, hi=0.0)

    def test_length_preserved(self):
        assert len(sparkline(list(range(100)))) == 100


class TestBarChart:
    def test_rows_and_scaling(self):
        chart = bar_chart(["a", "bb"], [10.0, 20.0], width=10,
                          unit=" mW")
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[0].count("█") == 5
        assert lines[1].count("█") == 10
        assert "20.0 mW" in lines[1]

    def test_labels_aligned(self):
        chart = bar_chart(["x", "longer"], [1.0, 2.0], width=5)
        lines = chart.splitlines()
        assert lines[0].index("|") == lines[1].index("|")

    def test_negative_value_empty_bar(self):
        chart = bar_chart(["neg", "pos"], [-3.0, 6.0], width=6)
        lines = chart.splitlines()
        assert "█" not in lines[0]
        assert "-3.0" in lines[0]

    def test_nonzero_value_gets_at_least_one_block(self):
        chart = bar_chart(["tiny", "huge"], [0.1, 1000.0], width=10)
        assert chart.splitlines()[0].count("█") == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            bar_chart(["a"], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            bar_chart([], [])


class TestTimeline:
    def test_maps_to_nearest_level(self):
        line = timeline([20, 24, 30, 40, 60],
                        levels=[20, 24, 30, 40, 60])
        assert line == "_.-=#"

    def test_nearest_rounding(self):
        line = timeline([21.0, 59.0], levels=[20, 24, 30, 40, 60])
        assert line == "_#"

    def test_too_few_symbols_rejected(self):
        with pytest.raises(ConfigurationError):
            timeline([1.0], levels=[1, 2, 3], symbols="ab")

    def test_no_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            timeline([1.0], levels=[])


class TestBatch:
    def _configs(self, n=3):
        return [SessionConfig(app="Facebook", governor="fixed",
                              duration_s=5.0, seed=seed)
                for seed in range(1, n + 1)]

    def test_summaries_in_order(self):
        summaries = run_batch(self._configs(), workers=1)
        assert len(summaries) == 3
        assert [s["seed"] for s in summaries] == [1, 2, 3]
        for summary in summaries:
            assert summary["mean_power_mw"] > 0
            assert len(summary["trace"]["time_s"]) == 5

    def test_parallel_matches_serial(self):
        configs = self._configs(2)
        serial = run_batch(configs, workers=1)
        parallel = run_batch(configs, workers=2)
        for a, b in zip(serial, parallel):
            assert a["mean_power_mw"] == pytest.approx(
                b["mean_power_mw"])
            assert a["content_rate_fps"] == pytest.approx(
                b["content_rate_fps"])

    def test_summary_matches_direct_run(self):
        config = self._configs(1)[0]
        summary = run_session_summary(config)
        result = repro.run_session(config)
        assert summary["mean_power_mw"] == pytest.approx(
            result.power_report().mean_power_mw)

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch([])

    def test_invalid_processes_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch(self._configs(1), workers=0)
