"""Tests for the Prometheus text exposition layer
(`repro.telemetry.expose`).

Covers the naming/escaping rules, histogram expansion (cumulative
buckets, `+Inf` folding, inf/NaN edge cases), the round-trip parser
used as CI's well-formedness oracle, the merge-equivalence guarantee
(rendering `merge_snapshots` output equals rendering one registry
holding the combined values), the histogram quantile estimator, and
the offline snapshot builder behind
``repro stats --format prom``.
"""

import math
import time

import pytest

from repro.errors import TelemetryError
from repro.telemetry.expose import (
    CONTENT_TYPE,
    escape_help,
    escape_label_value,
    format_value,
    histogram_quantile,
    parse_exposition,
    render_groups,
    render_snapshot,
    sanitize_label_name,
    sanitize_metric_name,
    snapshot_from_events,
)
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots


def _registry(counters=(), gauges=(), histograms=()):
    registry = MetricsRegistry()
    for name, value in counters:
        registry.counter(name).inc(value)
    for name, value in gauges:
        registry.gauge(name).set(value)
    for name, edges, observations in histograms:
        histogram = registry.histogram(name, edges)
        for value in observations:
            histogram.observe(value)
    return registry


class TestSanitization:
    def test_dots_become_underscores_with_prefix(self):
        assert sanitize_metric_name("panel.rate_switches") == \
            "repro_panel_rate_switches"

    def test_illegal_characters_replaced(self):
        assert sanitize_metric_name("a.b-c d/e") == "repro_a_b_c_d_e"

    def test_colons_survive_in_metric_names(self):
        assert sanitize_metric_name("a:b") == "repro_a:b"

    def test_leading_digit_guarded_without_prefix(self):
        assert sanitize_metric_name("9lives", prefix="")[0] == "_"

    def test_empty_name_rejected(self):
        with pytest.raises(TelemetryError):
            sanitize_metric_name("")

    def test_label_name_strips_colons(self):
        assert sanitize_label_name("a:b") == "a_b"

    def test_label_name_leading_digit(self):
        assert sanitize_label_name("0shard") == "_0shard"

    def test_empty_label_name_rejected(self):
        with pytest.raises(TelemetryError):
            sanitize_label_name("")

    def test_label_value_escaping(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_help_escaping_leaves_quotes(self):
        assert escape_help('say "hi"\n') == 'say "hi"\\n'


class TestFormatValue:
    @pytest.mark.parametrize("value,expected", [
        (float("inf"), "+Inf"),
        (float("-inf"), "-Inf"),
        (3.0, "3"),
        (-17, "-17"),
        (0.25, "0.25"),
    ])
    def test_rendering(self, value, expected):
        assert format_value(value) == expected

    def test_nan(self):
        assert format_value(float("nan")) == "NaN"


class TestRendering:
    def test_counter_gains_total_suffix(self):
        text = render_snapshot(
            _registry(counters=[("panel.vsyncs", 7)]).as_dict())
        assert "# TYPE repro_panel_vsyncs_total counter" in text
        assert "repro_panel_vsyncs_total 7" in text

    def test_gauge_and_help_lines(self):
        text = render_snapshot(
            _registry(gauges=[("sim.duration_s", 30.0)]).as_dict())
        assert "# HELP repro_sim_duration_s repro metric " \
               "sim.duration_s" in text
        assert "# TYPE repro_sim_duration_s gauge" in text
        assert "repro_sim_duration_s 30" in text

    def test_empty_registry_renders_empty_document(self):
        assert render_snapshot(MetricsRegistry().as_dict()) == ""
        assert parse_exposition("") == {}

    def test_labels_rendered_sorted_and_escaped(self):
        text = render_snapshot(
            _registry(counters=[("service.jobs_done", 1)]).as_dict(),
            labels={"zeta": 'x"y', "alpha": "0"})
        assert ('repro_service_jobs_done_total'
                '{alpha="0",zeta="x\\"y"} 1') in text

    def test_histogram_buckets_are_cumulative(self):
        text = render_snapshot(_registry(histograms=[
            ("span.stage_seconds", [0.1, 1.0], [0.05, 0.05, 0.5, 5.0]),
        ]).as_dict())
        assert 'repro_span_stage_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_span_stage_seconds_bucket{le="1"} 3' in text
        assert 'repro_span_stage_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_span_stage_seconds_count 4" in text
        assert "repro_span_stage_seconds_sum 5.6" in text

    def test_explicit_inf_edge_folds_into_terminal_bucket(self):
        # A snapshot whose last edge is already +Inf must not emit two
        # +Inf buckets (the format forbids duplicate series).
        text = render_snapshot(_registry(histograms=[
            ("a.h", [1.0, math.inf], [0.5, 2.0]),
        ]).as_dict())
        assert text.count('le="+Inf"') == 1
        parse_exposition(text)  # and the result is well-formed

    def test_nonfinite_gauge_values_render_and_parse(self):
        registry = _registry(gauges=[("a.up", math.inf),
                                     ("a.down", -math.inf)])
        families = parse_exposition(render_snapshot(registry.as_dict()))
        samples = families["repro_a_up"]["samples"]
        assert samples[("repro_a_up", ())] == math.inf
        samples = families["repro_a_down"]["samples"]
        assert samples[("repro_a_down", ())] == -math.inf

    def test_nan_gauge_round_trips(self):
        registry = _registry(gauges=[("a.weird", math.nan)])
        families = parse_exposition(render_snapshot(registry.as_dict()))
        assert math.isnan(
            families["repro_a_weird"]["samples"][("repro_a_weird", ())])

    def test_type_conflict_across_groups_rejected(self):
        counter = _registry(counters=[("x.n", 1)]).as_dict()
        gauge = _registry(gauges=[("x.n", 1.0)]).as_dict()
        with pytest.raises(TelemetryError):
            render_groups([(counter, None), (gauge, {"shard": "1"})])

    def test_duplicate_sample_rejected(self):
        snapshot = _registry(counters=[("x.n", 1)]).as_dict()
        with pytest.raises(TelemetryError):
            render_groups([(snapshot, None), (snapshot, None)])

    def test_shard_labels_share_one_type_block(self):
        shard0 = _registry(counters=[("worker.jobs", 2)]).as_dict()
        shard1 = _registry(counters=[("worker.jobs", 3)]).as_dict()
        text = render_groups([(shard0, {"shard": "0"}),
                              (shard1, {"shard": "1"})])
        assert text.count("# TYPE repro_worker_jobs_total counter") == 1
        assert 'repro_worker_jobs_total{shard="0"} 2' in text
        assert 'repro_worker_jobs_total{shard="1"} 3' in text

    def test_content_type_constant(self):
        assert CONTENT_TYPE == \
            "text/plain; version=0.0.4; charset=utf-8"


    def test_merged_scrape_render_cost_budget(self):
        # One service registry plus eight shard registries, larger than
        # a real merged scrape.  A catastrophe bound (~5 ms measured),
        # not a regression gate: absolute timings on a shared machine
        # are too noisy for a tight one.
        service = _registry(
            counters=[(f"service.op_{i}", i + 1) for i in range(200)],
            gauges=[(f"service.level_{i}", i * 0.5) for i in range(200)])
        edges = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0]
        samples = [0.0007 * (n + 1) for n in range(40)]
        groups = [(service.as_dict(), None)]
        for shard in range(8):
            registry = _registry(
                counters=[(f"worker.op_{i}", i + shard)
                          for i in range(50)],
                histograms=[(f"span.stage_{i}_seconds", edges, samples)
                            for i in range(12)])
            groups.append((registry.as_dict(), {"shard": str(shard)}))
        render_groups(groups)  # warm-up
        timings = []
        for _ in range(20):
            t0 = time.perf_counter()
            render_groups(groups)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 0.1


class TestMergeEquivalence:
    def test_merged_snapshots_render_like_one_registry(self):
        edges = [0.1, 1.0]
        first = _registry(counters=[("w.jobs", 2)],
                          gauges=[("w.depth", 4.0)],
                          histograms=[("span.s_seconds", edges,
                                       [0.05, 0.5])])
        second = _registry(counters=[("w.jobs", 3)],
                           gauges=[("w.depth", 1.0)],
                           histograms=[("span.s_seconds", edges,
                                        [2.0])])
        merged = merge_snapshots([first.as_dict(), second.as_dict()])
        equivalent = _registry(
            counters=[("w.jobs", 5)],
            gauges=[("w.depth", 1.0)],  # last write wins
            histograms=[("span.s_seconds", edges, [0.05, 0.5, 2.0])])
        assert render_snapshot(merged) == \
            render_snapshot(equivalent.as_dict())

    def test_merged_multi_worker_exposition_is_well_formed(self):
        snapshots = []
        for worker in range(4):
            registry = _registry(
                counters=[("w.done", worker + 1)],
                histograms=[("span.t_seconds", [0.01, 0.1],
                             [0.005 * (worker + 1)])])
            snapshots.append(registry.as_dict())
        families = parse_exposition(
            render_snapshot(merge_snapshots(snapshots)))
        assert families["repro_w_done_total"]["samples"][
            ("repro_w_done_total", ())] == 10
        assert families["repro_span_t_seconds"]["type"] == "histogram"


class TestParser:
    def test_round_trip_types_and_values(self):
        registry = _registry(
            counters=[("a.n", 12)], gauges=[("a.g", 2.5)],
            histograms=[("span.x_seconds", [0.5], [0.1, 0.9])])
        families = parse_exposition(render_snapshot(registry.as_dict()))
        assert families["repro_a_n_total"]["type"] == "counter"
        assert families["repro_a_g"]["type"] == "gauge"
        hist = families["repro_span_x_seconds"]
        assert hist["type"] == "histogram"
        assert hist["samples"][
            ("repro_span_x_seconds_bucket", (("le", "0.5"),))] == 1
        assert hist["samples"][
            ("repro_span_x_seconds_count", ())] == 2

    def test_duplicate_type_line_rejected(self):
        with pytest.raises(TelemetryError):
            parse_exposition("# TYPE m counter\n# TYPE m counter\nm 1\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(TelemetryError):
            parse_exposition("# TYPE m widget\n")

    def test_illegal_sample_name_rejected(self):
        with pytest.raises(TelemetryError):
            parse_exposition("9bad 1\n")

    def test_unparseable_value_rejected(self):
        with pytest.raises(TelemetryError):
            parse_exposition("m banana\n")

    def test_duplicate_sample_rejected(self):
        with pytest.raises(TelemetryError):
            parse_exposition("m 1\nm 2\n")

    def test_non_cumulative_buckets_rejected(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.5"} 5\n'
                'h_bucket{le="1"} 3\n'
                'h_bucket{le="+Inf"} 3\n'
                "h_sum 1\n"
                "h_count 3\n")
        with pytest.raises(TelemetryError):
            parse_exposition(text)

    def test_inf_bucket_must_equal_count(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 3\n'
                "h_sum 1\n"
                "h_count 4\n")
        with pytest.raises(TelemetryError):
            parse_exposition(text)

    def test_missing_inf_bucket_rejected(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.5"} 3\n'
                "h_sum 1\n"
                "h_count 3\n")
        with pytest.raises(TelemetryError):
            parse_exposition(text)

    def test_escaped_label_values_decode(self):
        families = parse_exposition(
            'm{a="x\\"y\\\\z\\nw"} 1\n')
        assert families["m"]["samples"][
            ("m", (("a", 'x"y\\z\nw'),))] == 1


class TestHistogramQuantile:
    def test_empty_histogram_is_zero(self):
        assert histogram_quantile([1.0], [0, 0], 0.5) == 0.0

    def test_interpolates_within_bucket(self):
        # 10 observations uniformly in (0, 1]: p50 lands mid-bucket.
        assert histogram_quantile([1.0], [10, 0], 0.5) == \
            pytest.approx(0.5)

    def test_upper_buckets(self):
        edges = [0.1, 1.0]
        counts = [2, 6, 0]
        assert histogram_quantile(edges, counts, 0.25) == \
            pytest.approx(0.1)
        assert 0.1 < histogram_quantile(edges, counts, 0.9) <= 1.0

    def test_overflow_bucket_clamps_to_last_edge(self):
        assert histogram_quantile([0.1, 1.0], [0, 0, 5], 0.99) == 1.0

    def test_quantile_bounds_enforced(self):
        with pytest.raises(TelemetryError):
            histogram_quantile([1.0], [1, 0], 1.5)


class TestOfflineSnapshots:
    def test_events_become_counters_and_spans(self):
        events = [
            {"kind": "rate_switch", "session": "s1", "data": {}},
            {"kind": "rate_switch", "session": "s1", "data": {}},
            {"kind": "fault_injected", "session": "s2",
             "data": {"site": "panel_refuse"}},
            {"kind": "span", "session": "s1",
             "data": {"name": "meter.grid_compare",
                      "duration_s": 0.0005}},
        ]
        snapshot = snapshot_from_events(events)
        assert snapshot["counters"]["stream.events"] == 4
        assert snapshot["counters"]["stream.events.rate_switch"] == 2
        assert snapshot["counters"][
            "stream.faults.panel_refuse"] == 1
        assert snapshot["gauges"]["stream.sessions"] == 2
        hist = snapshot["histograms"][
            "span.meter.grid_compare_seconds"]
        assert hist["count"] == 1
        parse_exposition(render_snapshot(snapshot))
