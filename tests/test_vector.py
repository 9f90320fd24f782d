"""Equivalence of the V-Sync fast-forward (`repro.sim.fastforward`).

:class:`SessionRunner` skips the V-Sync and decision ticks the
fast-forward proves inert, in every session its gate admits.  The
contract under test: every such session is **byte-identical** to the
reference path that fires every tick — across the catalog, every
builtin governor, every meter configuration and any slicing of the
advance loop — while sessions the gate refuses (faults, trace replay,
stateful governors) fire every tick themselves.

The reference path is a test-side patch (:mod:`tests.reference`):
the controller declines every region, the compositor's coherence
check never absorbs a post and no surface is latched, so every tick
fires and every composite blits and compares.  The module keeps its historical name so its test
ids stay stable.
"""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.double_buffer import DoubleBuffer, SampledDoubleBuffer
from repro.core.grid import GridComparator, GridSpec
from repro.errors import MeteringError, SimulationError
from repro.faults.plan import FaultPlan
from repro.graphics.compositor import SurfaceManager
from repro.pipeline.apps import APPS
from repro.sim.batch import run_batch, summarize_result
from repro.sim.fastforward import REPLICABLE_GOVERNORS, _gate
from repro.sim.runner import SessionRunner, resume_runner
from repro.sim.session import MeterConfig, SessionConfig
from repro.sim.tracing import EventLog, TimeSeries
from repro.analysis.export import session_summary_dict

from .reference import reference_path

GOLDEN_TRACE = "trace:tests/data/golden.rptrace"

#: Every builtin governor, replicable or not.
ALL_GOVERNORS = ("fixed", "section", "section+boost",
                 "section+hysteresis", "naive", "oracle", "e3")

FALLBACK_GOVERNORS = tuple(g for g in ALL_GOVERNORS
                           if g not in REPLICABLE_GOVERNORS)


def _summary(result):
    return session_summary_dict(result)


def _reference(config):
    with reference_path():
        return _summary(SessionRunner(config).run())


def _path(reference):
    """The context that selects the reference or the skipping path."""
    return reference_path if reference else contextlib.nullcontext


def _fast(config):
    return _summary(SessionRunner(config).run())


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------
class TestEligibility:
    def test_plain_catalog_spec_is_eligible(self):
        cfg = SessionConfig(app="Facebook", governor="section",
                            duration_s=5.0, seed=1)
        assert _gate(cfg) == ()
        assert SessionRunner(cfg)._fast_forward is not None

    def test_each_disqualifier_is_reported(self):
        cfg = SessionConfig(app=GOLDEN_TRACE, governor="oracle",
                            duration_s=5.0, seed=1,
                            faults=FaultPlan(meter_fail=0.5, seed=1))
        assert _gate(cfg) == ("faults", "workload", "governor")
        assert SessionRunner(cfg)._fast_forward is None

    @pytest.mark.parametrize("governor", FALLBACK_GOVERNORS)
    def test_stateful_governors_are_ineligible(self, governor):
        cfg = SessionConfig(app="Facebook", governor=governor,
                            duration_s=5.0, seed=1)
        assert _gate(cfg) == ("governor",)

    def test_unknown_vsync_listener_keeps_every_tick(self):
        from repro.pipeline.builder import SessionBuilder

        cfg = SessionConfig(app="Tiny Flashlight", governor="fixed",
                            duration_s=4.0, seed=2)
        builder = SessionBuilder(cfg).assemble()
        seen = []
        builder.panel.add_vsync_listener(seen.append)
        runner = SessionRunner(builder)
        assert runner._fast_forward is None
        result = runner.run()
        assert len(seen) == result.panel.vsync_count


# ----------------------------------------------------------------------
# Byte-equivalence: the acceptance bar
# ----------------------------------------------------------------------
class TestCatalogEquivalence:
    @pytest.mark.parametrize("app", sorted(APPS.names()))
    def test_every_catalog_app_is_byte_identical(self, app):
        for governor in REPLICABLE_GOVERNORS:
            cfg = SessionConfig(app=app, governor=governor,
                                duration_s=4.0, seed=11)
            assert _reference(cfg) == _fast(cfg), governor

    @pytest.mark.parametrize("governor", ALL_GOVERNORS)
    def test_every_builtin_governor_is_byte_identical(self, governor):
        cfg = SessionConfig(app="Tiny Flashlight", governor=governor,
                            duration_s=6.0, seed=3)
        assert _reference(cfg) == _fast(cfg)

    @pytest.mark.parametrize("kwargs", [
        {"status_bar": True},
        {"meter": MeterConfig(min_changed_cells=3)},
        {"meter": MeterConfig(store_full_frames=False)},
        {"track_oled": True},
        {"status_bar": True, "track_oled": True,
         "meter": MeterConfig(min_changed_cells=3)},
    ], ids=["status-bar", "min-changed-cells", "sampled-store",
            "oled", "combined"])
    def test_meter_and_observer_variants(self, kwargs):
        # These variants exercise the bulk idle-submit replay gate:
        # an OLED tracker or a second app changes the listener
        # topology, min_changed_cells changes the comparator
        # accounting, a sampled store changes the capture kernel.
        cfg = SessionConfig(app="Tiny Flashlight",
                            governor="section+boost",
                            duration_s=8.0, seed=5, **kwargs)
        assert _reference(cfg) == _fast(cfg)

    def test_oled_tracker_disables_bulk_idle_replay(self):
        quiet = SessionConfig(app="Tiny Flashlight", governor="fixed",
                              duration_s=8.0, seed=5)
        watched = SessionConfig(app="Tiny Flashlight", governor="fixed",
                                duration_s=8.0, seed=5, track_oled=True)
        assert SessionRunner(quiet)._fast_forward._idle_skip_ok
        assert not SessionRunner(watched)._fast_forward._idle_skip_ok

    def test_faulted_spec_falls_back_and_matches(self):
        cfg = SessionConfig(app="Facebook", governor="section",
                            duration_s=5.0, seed=2,
                            faults=FaultPlan(meter_fail=0.3, seed=2))
        assert _gate(cfg) == ("faults",)
        assert _reference(cfg) == _fast(cfg)

    def test_trace_replay_falls_back_and_matches(self):
        cfg = SessionConfig(app=GOLDEN_TRACE, governor="section",
                            duration_s=4.0, seed=1)
        assert _gate(cfg) == ("workload",)
        assert _reference(cfg) == _fast(cfg)

    def test_ltpo_panel_is_byte_identical(self):
        from repro.pipeline import PANELS
        panel = PANELS.get("ltpo-120")()
        cfg = SessionConfig(app="Tiny Flashlight", governor="fixed",
                            duration_s=6.0, seed=4, panel=panel)
        assert _reference(cfg) == _fast(cfg)


# ----------------------------------------------------------------------
# The checkpoint/digest contract
# ----------------------------------------------------------------------
def _states(config, boundaries):
    """``(now, events_processed, state_digest)`` at each boundary."""
    runner = SessionRunner(config)
    states = []
    for until in boundaries:
        runner.advance(until)
        states.append((runner.now, runner.sim.events_processed,
                       runner.state_digest()))
    return runner, states


class TestDigestContract:
    def test_digests_match_at_every_advance_boundary(self):
        cfg = SessionConfig(app="Tiny Flashlight", governor="section",
                            duration_s=6.0, seed=9)
        boundaries = (0.5, 1.7, 3.0, 4.25, 6.0)
        with reference_path():
            reference, expected = _states(cfg, boundaries)
            reference_summary = _summary(reference.finish())
        fast, states = _states(cfg, boundaries)
        assert states == expected
        assert fast._fast_forward.skipped_ticks > 0
        assert _summary(fast.finish()) == reference_summary

    def test_checkpoint_documents_are_engine_agnostic(self):
        cfg = SessionConfig(app="Weather", governor="section+boost",
                            duration_s=6.0, seed=6)
        with reference_path():
            reference = SessionRunner(cfg)
            reference.advance(3.0)
            expected = reference.checkpoint_document()
        fast = SessionRunner(cfg)
        fast.advance(3.0)
        assert fast.checkpoint_document() == expected

    # The ids keep the old engine names: "scalar" records and resumes
    # on the reference path, "vector" records and resumes skipping
    # ticks, "auto" records on the reference path and resumes skipping.
    @pytest.mark.parametrize("engine", ["auto", "scalar", "vector"])
    def test_resume_verifies_across_engines(self, engine):
        cfg = SessionConfig(app="Tiny Flashlight", governor="section",
                            duration_s=6.0, seed=9)
        expected = _reference(cfg)
        record = _path(engine != "vector")
        with record():
            source = SessionRunner(cfg)
            source.advance(2.5)
            doc = source.checkpoint_document()
        with _path(engine == "scalar")():
            resumed = resume_runner(doc)
            summary = _summary(resumed.run())
        if engine == "scalar":
            assert resumed._fast_forward.skipped_ticks == 0
        else:
            assert resumed._fast_forward.skipped_ticks > 0
        assert summary == expected
        with record():
            assert _summary(source.run()) == expected

    def test_auto_resume_falls_back_for_ineligible_spec(self):
        cfg = SessionConfig(app="Facebook",
                            governor="section+hysteresis",
                            duration_s=4.0, seed=1)
        source = SessionRunner(cfg)
        source.advance(1.5)
        resumed = resume_runner(source.checkpoint_document())
        assert resumed._fast_forward is None
        assert _summary(resumed.run()) == _summary(source.run())


# ----------------------------------------------------------------------
# Property: slicing never changes the summary
# ----------------------------------------------------------------------
class TestSliceInvariance:
    @settings(deadline=None, max_examples=12)
    @given(boundaries=st.lists(
        st.floats(min_value=0.01, max_value=5.99,
                  allow_nan=False, allow_infinity=False),
        min_size=0, max_size=6),
        seed=st.integers(0, 2**16 - 1))
    def test_skipped_ticks_never_change_the_summary(self, boundaries,
                                                    seed):
        cfg = SessionConfig(app="Tiny Flashlight",
                            governor="section+boost",
                            duration_s=6.0, seed=seed)
        reference = _reference(cfg)
        runner = SessionRunner(cfg)
        for until in sorted(boundaries):
            runner.advance(until)
        assert _summary(runner.run()) == reference

    @pytest.mark.parametrize("slice_s", [0.25, 1.0, 3.0, 10.0])
    def test_engine_slice_is_invisible(self, slice_s):
        # Several runners advanced together, one slice at a time.
        cfgs = [SessionConfig(app="Tiny Flashlight", governor="fixed",
                              duration_s=5.0, seed=s)
                for s in range(3)]
        runners = [SessionRunner(cfg) for cfg in cfgs]
        t = 0.0
        while t < 5.0:
            t = min(t + slice_s, 5.0)
            for runner in runners:
                runner.advance(t)
        assert ([_summary(runner.finish()) for runner in runners]
                == [_reference(cfg) for cfg in cfgs])


# ----------------------------------------------------------------------
# Batches and cache composition
# ----------------------------------------------------------------------
class TestBatchRouting:
    def _mixed_configs(self):
        return [
            SessionConfig(app="Tiny Flashlight", governor="fixed",
                          duration_s=3.0, seed=0),
            SessionConfig(app="Facebook", governor="section+hysteresis",
                          duration_s=3.0, seed=1),       # gated out
            SessionConfig(app="Weather", governor="naive",
                          duration_s=3.0, seed=2),
            SessionConfig(app=GOLDEN_TRACE, governor="section",
                          duration_s=3.0, seed=3),       # gated out
        ]

    # "auto" compares with the same batch run on the reference path,
    # "vector" with each session run alone on the reference path.
    @pytest.mark.parametrize("engine", ["auto", "vector"])
    def test_mixed_batch_matches_scalar_in_order(self, engine):
        cfgs = self._mixed_configs()
        if engine == "auto":
            with reference_path():
                expected = run_batch(cfgs, workers=1)
        else:
            with reference_path():
                expected = [summarize_result(SessionRunner(cfg).run())
                            for cfg in cfgs]
        assert run_batch(cfgs, workers=1) == expected

    def test_unknown_engine_rejected(self):
        # There is one runner; the old engine option is gone.
        with pytest.raises(TypeError, match="engine"):
            run_batch(self._mixed_configs()[:1], engine="vector")

    def test_cache_entries_are_engine_agnostic(self, tmp_path):
        # Entries computed firing every tick serve skipping runs.
        from repro.cache import ResultCache
        cfgs = self._mixed_configs()[:3]
        with reference_path():
            cold = run_batch(cfgs, workers=1,
                             cache=ResultCache(tmp_path / "c"))
        warm_cache = ResultCache(tmp_path / "c")
        warm = run_batch(cfgs, workers=1, cache=warm_cache)
        assert warm == cold == run_batch(cfgs, workers=1)
        stats = warm_cache.stats_dict()
        assert stats["hits"] == len(cfgs)
        assert stats["misses"] == 0

    def test_engine_reports_skip_diagnostics(self):
        runners = [SessionRunner(SessionConfig(
            app="Tiny Flashlight", governor="fixed", duration_s=4.0,
            seed=s)) for s in range(2)]
        for runner in runners:
            runner.run()
            assert runner._fast_forward.skipped_ticks > 0
            assert runner._fast_forward.skip_regions > 0


# ----------------------------------------------------------------------
# Bulk accounting primitives behind the idle-submit replay
# ----------------------------------------------------------------------
class TestBulkAccounting:
    def test_event_log_extend_equals_appends(self):
        a, b = EventLog("a"), EventLog("b")
        times = [0.1, 0.5, 0.5, 1.25]
        for t in times:
            a.append(t)
        b.extend(times)
        assert list(a.times) == list(b.times)

    def test_event_log_extend_rejects_time_travel(self):
        log = EventLog("log")
        log.append(2.0)
        with pytest.raises(SimulationError, match="backwards"):
            log.extend([2.5, 2.4])
        with pytest.raises(SimulationError, match="backwards"):
            log.extend([1.0])
        assert list(log.times) == [2.0]

    def test_time_series_extend_equals_appends(self):
        a, b = TimeSeries("a"), TimeSeries("b")
        for t, v in [(0.2, 60.0), (0.4, 40.0), (0.6, 40.0)]:
            a.append(t, v)
        b.extend([0.2, 0.4, 0.6], [60.0, 40.0, 40.0])
        assert list(a.times) == list(b.times)
        assert list(a.values) == list(b.values)

    def test_time_series_extend_validates(self):
        series = TimeSeries("s")
        with pytest.raises(SimulationError, match="backwards"):
            series.extend([1.0, 0.5], [1.0, 2.0])
        with pytest.raises(SimulationError, match="extend"):
            series.extend([1.0], [1.0, 2.0])
        assert len(series) == 0

    def test_comparator_note_equal_counts_in_bulk(self):
        comparator = GridComparator(GridSpec((8, 8), 2, 2))
        comparator.note_equal()
        comparator.note_equal(41)
        assert comparator.comparisons == 42
        assert comparator.mismatches == 0

    @pytest.mark.parametrize("buffer_cls", [
        lambda: DoubleBuffer((4, 4, 3)),
        lambda: SampledDoubleBuffer(GridSpec((4, 4), 2, 2)),
    ], ids=["full", "sampled"])
    def test_redundant_capture_counts_in_bulk(self, buffer_cls):
        import numpy as np
        buf = buffer_cls()
        with pytest.raises(MeteringError):
            buf.note_redundant_capture(3)
        buf.capture(np.zeros((4, 4, 3), dtype=np.uint8))
        captures, copied = buf.captures, buf.bytes_copied
        buf.note_redundant_capture(5)
        assert buf.captures == captures + 5
        assert buf.bytes_copied == copied + 5 * (copied // captures)


def test_reference_path_fires_every_tick(monkeypatch):
    # The equivalence above is not vacuous: the reference path skips
    # no tick and compares every composite in full, while the default
    # path skips ticks and absorbs idle re-posts.
    compares = []
    frames_equal = SurfaceManager._frames_equal

    def counting(self, a, b):
        compares.append(1)
        return frames_equal(self, a, b)

    monkeypatch.setattr(SurfaceManager, "_frames_equal", counting)
    cfg = SessionConfig(app="Tiny Flashlight", governor="fixed",
                        duration_s=4.0, seed=2)
    with reference_path():
        reference = SessionRunner(cfg)
        result = reference.run()
    assert reference._fast_forward.skipped_ticks == 0
    assert len(compares) == len(result.compositions) > 0
    compares.clear()
    fast = SessionRunner(cfg)
    fast.run()
    assert fast._fast_forward.skipped_ticks > 0
    assert len(compares) < len(result.compositions)
