"""Tests for the content-rate meter."""

import numpy as np
import pytest

from repro.core.content_rate import (
    ContentRateMeter,
    MeterConfig,
    measure_accuracy,
)
from repro.core.double_buffer import DoubleBuffer, SampledDoubleBuffer
from repro.errors import ConfigurationError
from repro.graphics.framebuffer import Framebuffer


def make_fb(width=32, height=24):
    return Framebuffer(width, height)


def frame(value, fb):
    return np.full(fb.shape, value, dtype=np.uint8)


class TestMeterConfig:
    def test_defaults_are_the_paper_operating_point(self):
        cfg = MeterConfig()
        assert cfg.sample_count == 9216
        assert cfg.window_s == 1.0
        assert cfg.store_full_frames

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            MeterConfig(sample_count=0)
        with pytest.raises(ConfigurationError):
            MeterConfig(window_s=0.0)


class TestMeaningfulVsRedundant:
    def test_first_frame_compared_against_boot_contents(self):
        fb = make_fb()
        meter = ContentRateMeter(fb)
        # The framebuffer boots all-black; writing black again is a
        # redundant frame, writing anything else is meaningful.
        fb.write(frame(0, fb), 0.1)
        assert meter.total_meaningful == 0
        fb.write(frame(9, fb), 0.2)
        assert meter.total_meaningful == 1

    def test_identical_frames_are_redundant(self):
        fb = make_fb()
        meter = ContentRateMeter(fb)
        for i in range(5):
            fb.write(frame(7, fb), 0.1 * (i + 1))
        assert meter.total_frames == 5
        assert meter.total_meaningful == 1
        assert meter.total_redundant == 4

    def test_changing_frames_are_meaningful(self):
        fb = make_fb()
        meter = ContentRateMeter(fb)
        for i in range(5):
            fb.write(frame(40 + i * 40, fb), 0.1 * (i + 1))
        assert meter.total_meaningful == 5
        assert meter.total_redundant == 0

    def test_alternating_pattern(self):
        fb = make_fb()
        meter = ContentRateMeter(fb)
        values = [1, 1, 2, 2, 2, 3]
        for i, v in enumerate(values):
            fb.write(frame(v, fb), 0.1 * (i + 1))
        assert meter.total_meaningful == 3  # 1, 2, 3
        assert meter.total_redundant == 3

    def test_identical_frames_after_boot_all_redundant(self):
        fb = make_fb()
        meter = ContentRateMeter(fb)
        for i in range(4):
            fb.write(frame(0, fb), 0.1 * (i + 1))  # boot colour
        assert meter.total_meaningful == 0


class TestRates:
    def test_content_rate_in_window(self):
        fb = make_fb()
        meter = ContentRateMeter(fb)
        # 10 meaningful frames between t=1.0 and t=2.0 (values start
        # at 25 so the first differs from the all-black boot frame).
        for i in range(10):
            fb.write(frame(25 + i * 20, fb), 1.0 + 0.1 * (i + 0.5))
        assert meter.content_rate(2.0) == pytest.approx(10.0)

    def test_old_events_leave_the_window(self):
        fb = make_fb()
        meter = ContentRateMeter(fb)
        fb.write(frame(1, fb), 0.5)
        assert meter.content_rate(1.0) == pytest.approx(1.0)
        assert meter.content_rate(2.5) == 0.0

    def test_frame_and_redundant_rates(self):
        fb = make_fb()
        meter = ContentRateMeter(fb)
        fb.write(frame(1, fb), 0.2)
        fb.write(frame(1, fb), 0.4)
        fb.write(frame(1, fb), 0.6)
        assert meter.frame_rate(1.0) == pytest.approx(3.0)
        assert meter.content_rate(1.0) == pytest.approx(1.0)
        assert meter.redundant_rate(1.0) == pytest.approx(2.0)

    def test_early_window_clamped_to_session_start(self):
        fb = make_fb()
        meter = ContentRateMeter(fb)
        fb.write(frame(1, fb), 0.1)
        # At t=0.5 the window is only 0.5 s long.
        assert meter.content_rate(0.5) == pytest.approx(2.0)

    def test_rate_at_time_zero_is_zero(self):
        fb = make_fb()
        meter = ContentRateMeter(fb)
        assert meter.content_rate(0.0) == 0.0

    def test_custom_window(self):
        fb = make_fb()
        meter = ContentRateMeter(fb)
        fb.write(frame(1, fb), 0.2)
        fb.write(frame(2, fb), 1.8)
        assert meter.content_rate(2.0, window_s=2.0) == pytest.approx(1.0)
        assert meter.content_rate(2.0, window_s=0.5) == pytest.approx(2.0)


class TestGridLimits:
    def test_small_change_invisible_to_sparse_grid(self):
        fb = make_fb(width=100, height=100)
        meter = ContentRateMeter(fb, MeterConfig(sample_count=100))
        base = frame(40, fb)
        fb.write(base, 0.1)
        # Change a pixel between the 10x10 grid's sample points.
        tweaked = base.copy()
        tweaked[6, 6] = 200
        fb.write(tweaked, 0.2)
        assert meter.total_meaningful == 1  # base seen; tweak missed

    def test_full_budget_sees_everything(self):
        fb = make_fb(width=100, height=100)
        meter = ContentRateMeter(fb, MeterConfig(sample_count=100 * 100))
        base = frame(40, fb)
        fb.write(base, 0.1)
        tweaked = base.copy()
        tweaked[6, 6] = 200
        fb.write(tweaked, 0.2)
        assert meter.total_meaningful == 2


class TestStorageVariants:
    def test_sampled_storage_equivalent_for_metering(self):
        results = []
        for store_full in (True, False):
            fb = make_fb()
            meter = ContentRateMeter(
                fb, MeterConfig(sample_count=64,
                                store_full_frames=store_full))
            rng = np.random.default_rng(5)
            for i in range(20):
                if rng.random() < 0.5:
                    fb.write(frame(int(rng.integers(0, 255)), fb),
                             0.1 * (i + 1))
                else:
                    fb.write(fb.snapshot(), 0.1 * (i + 1))
            results.append(meter.total_meaningful)
        assert results[0] == results[1]

    def test_sampled_storage_copies_fewer_bytes(self):
        fb_a = make_fb()
        full = ContentRateMeter(fb_a, MeterConfig(sample_count=64,
                                                  store_full_frames=True))
        fb_b = make_fb()
        sampled = ContentRateMeter(
            fb_b, MeterConfig(sample_count=64, store_full_frames=False))
        for i in range(3):
            fb_a.write(frame(i, fb_a), 0.1 * (i + 1))
            fb_b.write(frame(i, fb_b), 0.1 * (i + 1))
        assert sampled.bytes_copied < full.bytes_copied


class TestCaptureAccounting:
    """The meter charges the previous-frame scheme without running it:
    its captures and bytes equal those of the double buffer the
    configuration names, driven the way the paper's meter drives it."""

    @staticmethod
    def _scheme(fb, meter):
        if meter.config.store_full_frames:
            return DoubleBuffer(fb.shape)
        return SampledDoubleBuffer(meter.grid)

    @pytest.mark.parametrize("store_full", [True, False])
    def test_matches_the_double_buffer_it_names(self, store_full):
        fb = make_fb()
        meter = ContentRateMeter(
            fb, MeterConfig(sample_count=64, store_full_frames=store_full))
        scheme = self._scheme(fb, meter)
        scheme.capture(fb.pixels)  # primed from the live framebuffer
        fb.add_update_listener(
            lambda t, f: scheme.note_redundant_capture()
            if f.last_write_unchanged else scheme.capture(f.pixels))
        rng = np.random.default_rng(3)
        for i in range(30):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                fb.write(frame(int(rng.integers(0, 4)), fb), 0.1 * i)
            elif kind == 1:
                fb.present(frame(int(rng.integers(0, 4)), fb), 0.1 * i)
            else:
                fb.write_unchanged(0.1 * i)
        comparisons = meter.comparator.comparisons
        times = [3.0 + 0.1 * i for i in range(7)]
        meter.note_unchanged_updates(times)
        scheme.note_redundant_capture(len(times))
        assert meter.captures == scheme.captures == 38
        assert meter.bytes_copied == scheme.bytes_copied
        assert meter.comparator.comparisons == comparisons + 7
        assert meter.total_frames == 37
        assert list(meter.frame_updates.times)[-7:] == times

    @pytest.mark.parametrize("store_full, min_changed, bytes_copied", [
        (True, 1, 5227200), (True, 3, 5227200),
        (False, 1, 3345408), (False, 3, 3345408)])
    def test_session_with_bulk_idle_replay(self, store_full, min_changed,
                                           bytes_copied):
        # Pinned values of the previous double-buffer implementation;
        # Cash Slide lands runs of idle reposts through the
        # fast-forward's bulk credit.
        from repro.sim.fastforward import FastForward
        from repro.sim.runner import SessionRunner
        from repro.sim.session import SessionConfig

        config = SessionConfig(
            app="Cash Slide", governor="section+boost", duration_s=6.0,
            seed=5, meter=MeterConfig(store_full_frames=store_full,
                                      min_changed_cells=min_changed))
        credited = []
        replay = FastForward._replay_idle_posts

        def spy(self, tick_times, posts):
            credited.append(len(tick_times))
            replay(self, tick_times, posts)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FastForward, "_replay_idle_posts", spy)
            meter = SessionRunner(config).run().meter
        assert sum(credited) > 0
        assert (meter.captures, meter.bytes_copied) == (121, bytes_copied)
        assert meter.total_frames == 120
        assert meter.comparator.comparisons == (120 if min_changed == 1
                                                else 0)


class TestDetach:
    def test_detached_meter_stops_observing(self):
        fb = make_fb()
        meter = ContentRateMeter(fb)
        fb.write(frame(1, fb), 0.1)
        meter.detach()
        fb.write(frame(2, fb), 0.2)
        assert meter.total_frames == 1


class TestMeasureAccuracy:
    def test_exact(self):
        assert measure_accuracy(10, 10) == 0.0

    def test_undercount(self):
        assert measure_accuracy(8, 10) == pytest.approx(0.2)

    def test_zero_truth_zero_measured(self):
        assert measure_accuracy(0, 0) == 0.0

    def test_zero_truth_nonzero_measured(self):
        assert measure_accuracy(3, 0) == float("inf")
