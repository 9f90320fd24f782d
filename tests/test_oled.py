"""Tests for the OLED emission model and tracker."""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.graphics.framebuffer import Framebuffer
from repro.power import oled
from repro.power.oled import (OledEmissionTracker, OledModel,
                              clear_price_memo, decode_table)
from repro.sim.batch import run_batch
from repro.sim.session import SessionConfig


def frame(value, shape=(12, 10, 3)):
    return np.full(shape, value, dtype=np.uint8)


class TestOledModel:
    def test_black_is_the_floor(self):
        model = OledModel()
        assert model.frame_power_mw(frame(0)) == pytest.approx(
            model.full_black_mw)

    def test_white_is_the_ceiling(self):
        model = OledModel()
        assert model.frame_power_mw(frame(255)) == pytest.approx(
            model.full_white_mw)

    def test_power_monotone_in_brightness(self):
        model = OledModel()
        powers = [model.frame_power_mw(frame(v))
                  for v in (0, 64, 128, 192, 255)]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_blue_costs_more_than_red(self):
        model = OledModel()
        red = frame(0)
        red[:, :, 0] = 255
        blue = frame(0)
        blue[:, :, 2] = 255
        assert model.frame_power_mw(blue) > model.frame_power_mw(red)

    def test_gamma_makes_midtones_cheap(self):
        # At gamma 2.2, a 50 % grey emits ~22 % of full luminance.
        model = OledModel()
        mid = model.frame_power_mw(frame(128)) - model.full_black_mw
        full = model.full_white_mw - model.full_black_mw
        assert 0.15 < mid / full < 0.3

    def test_resolution_independent(self):
        model = OledModel()
        small = model.frame_power_mw(frame(200, shape=(8, 8, 3)))
        large = model.frame_power_mw(frame(200, shape=(64, 64, 3)))
        assert small == pytest.approx(large)

    def test_half_white_half_black_is_half_power(self):
        model = OledModel(base_mw=0.0)
        half = frame(0)
        half[:6] = 255
        assert model.frame_power_mw(half) == pytest.approx(
            model.full_white_mw / 2.0)

    def test_invalid_frame_rejected(self):
        model = OledModel()
        with pytest.raises(ConfigurationError):
            model.frame_power_mw(np.zeros((10, 10), dtype=np.uint8))

    def test_non_uint8_frame_rejected(self):
        model = OledModel()
        with pytest.raises(ConfigurationError):
            model.frame_power_mw(np.zeros((10, 10, 3), dtype=np.float64))
        with pytest.raises(ConfigurationError):
            model.frame_power_mw(np.zeros((10, 10, 3), dtype=np.uint16))

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ConfigurationError):
            OledModel(full_channel_mw=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            OledModel(gamma=0.0)

    def test_list_coefficients_hash_and_price_like_a_tuple(self):
        listed = OledModel(full_channel_mw=[280.0, 350.0, 550.0])
        tupled = OledModel(full_channel_mw=(280.0, 350.0, 550.0))
        assert listed.full_channel_mw == (280.0, 350.0, 550.0)
        assert hash(listed) == hash(tupled)
        pixels = np.random.default_rng(3).integers(
            0, 256, size=(16, 9, 3), dtype=np.uint8)
        assert listed.frame_power_mw(pixels) == \
            _direct_price(tupled, pixels)


class TestOledEmissionTracker:
    def test_tracks_frame_updates(self):
        fb = Framebuffer(10, 12)
        tracker = OledEmissionTracker(fb)
        assert tracker.history.current == pytest.approx(
            tracker.model.full_black_mw)
        fb.write(frame(255, fb.shape), 1.0)
        assert tracker.history.current == pytest.approx(
            tracker.model.full_white_mw)
        assert tracker.evaluations == 1

    def test_emission_holds_between_updates(self):
        fb = Framebuffer(10, 12)
        tracker = OledEmissionTracker(fb)
        fb.write(frame(255, fb.shape), 1.0)
        # Energy over [0, 3]: 1 s black + 2 s white.
        expected = (tracker.model.full_black_mw * 1.0 +
                    tracker.model.full_white_mw * 2.0)
        assert tracker.energy_mj(0.0, 3.0) == pytest.approx(expected)

    def test_mean_emission(self):
        fb = Framebuffer(10, 12)
        tracker = OledEmissionTracker(fb)
        fb.write(frame(255, fb.shape), 1.0)
        assert tracker.mean_emission_mw(1.0, 2.0) == pytest.approx(
            tracker.model.full_white_mw)

    def test_detach(self):
        fb = Framebuffer(10, 12)
        tracker = OledEmissionTracker(fb)
        tracker.detach()
        fb.write(frame(255, fb.shape), 1.0)
        assert tracker.evaluations == 0


class TestSessionIntegration:
    def test_emission_component_in_power_report(self):
        import repro
        result = repro.run_session(repro.SessionConfig(
            app="Facebook", governor="section+boost", duration_s=8.0,
            seed=1, track_oled=True))
        components = result.power_report().component_power_mw()
        assert components["emission"] > 0.0

    def test_emission_absent_without_tracking(self):
        import repro
        result = repro.run_session(repro.SessionConfig(
            app="Facebook", governor="section+boost", duration_s=8.0,
            seed=1))
        components = result.power_report().component_power_mw()
        assert components["emission"] == 0.0
        assert result.oled_tracker is None

    def test_refresh_control_does_not_change_emission(self):
        """Orthogonality: emission depends on displayed content, not
        the refresh rate — governed and fixed runs of the same workload
        emit (nearly) the same."""
        import repro
        fixed = repro.run_session(repro.SessionConfig(
            app="Cash Slide", governor="fixed", duration_s=20.0,
            seed=4, track_oled=True))
        governed = repro.run_session(repro.SessionConfig(
            app="Cash Slide", governor="section+boost", duration_s=20.0,
            seed=4, track_oled=True))
        e_fixed = fixed.oled_tracker.mean_emission_mw(0.0, 20.0)
        e_governed = governed.oled_tracker.mean_emission_mw(0.0, 20.0)
        assert e_governed == pytest.approx(e_fixed, rel=0.15)


def _direct_price(model, pixels):
    """The per-sub-pixel ``pow`` formula the decode table replaces."""
    luminance = (pixels.astype(np.float64) / 255.0) ** model.gamma
    channel_mean = luminance.mean(axis=(0, 1))
    coeffs = np.asarray(model.full_channel_mw, dtype=np.float64)
    return float(model.base_mw + (coeffs * channel_mean).sum())


class TestDecodeTable:
    @pytest.mark.parametrize("gamma", [2.2, 1.0, 2.4, 0.7])
    def test_table_equals_direct_decode_at_every_level(self, gamma):
        levels = np.arange(256, dtype=np.uint8)
        direct = (levels.astype(np.float64) / 255.0) ** gamma
        assert np.array_equal(decode_table(gamma), direct)

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            decode_table(2.2)[0] = 1.0

    @pytest.mark.parametrize("shape", [(12, 10, 3), (160, 90, 3),
                                       (23, 37, 3), (1, 1, 3)])
    @pytest.mark.parametrize("gamma", [2.2, 1.8])
    def test_price_bit_equal_to_direct_formula(self, shape, gamma):
        model = OledModel(gamma=gamma)
        rng = np.random.default_rng(sum(shape))
        for _ in range(4):
            clear_price_memo()
            frame_ = rng.integers(0, 256, size=shape, dtype=np.uint8)
            views = [frame_, frame_[::2, 1::3], frame_[::-1],
                     frame_.transpose(1, 0, 2), np.asfortranarray(frame_)]
            for view in views:
                if view.size == 0:
                    continue
                assert model.frame_power_mw(view) == \
                    _direct_price(model, view)
            # Only the C-contiguous frame was memoised; the other
            # layouts (contiguous only when 1x1) were priced directly.
            assert len(oled._PRICE_MEMO) == 1
        clear_price_memo()


def _random_frame(seed, shape):
    return np.random.default_rng(seed).integers(
        0, 256, size=shape, dtype=np.uint8)


class TestPriceMemo:
    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        clear_price_memo()
        yield
        clear_price_memo()

    @pytest.mark.parametrize("shape", [(160, 90, 3), (720, 1280, 3)])
    def test_hit_bit_equal_to_fresh_price(self, shape):
        model = OledModel()
        pixels = _random_frame(sum(shape), shape)
        miss = model.frame_power_mw(pixels)
        hit = model.frame_power_mw(pixels.copy())
        assert len(oled._PRICE_MEMO) == 1
        clear_price_memo()
        fresh = model.frame_power_mw(pixels)
        assert hit == miss == fresh == _direct_price(model, pixels)

    def test_models_differing_in_one_field_never_share(self):
        models = [OledModel(), OledModel(gamma=2.4),
                  OledModel(full_channel_mw=(280.0, 350.0, 551.0)),
                  OledModel(base_mw=16.0)]
        pixels = _random_frame(5, (160, 90, 3))
        prices = [model.frame_power_mw(pixels) for model in models]
        assert len(oled._PRICE_MEMO) == len(models)
        assert len(set(prices)) == len(models)
        for model, price in zip(models, prices):
            assert model.frame_power_mw(pixels) == price == \
                _direct_price(model, pixels)

    @pytest.mark.parametrize("make", [
        lambda: OledModel(gamma=2.4),
        lambda: dataclasses.replace(OledModel(), base_mw=16.0),
        lambda: pickle.loads(pickle.dumps(OledModel(gamma=1.8))),
    ], ids=["init", "replace", "unpickled"])
    def test_key_is_sha256_of_repr_shape_and_bytes(self, make):
        model = make()
        pixels = _random_frame(7, (23, 37, 3))
        model.frame_power_mw(pixels)
        key = hashlib.sha256(
            f"{model!r} {pixels.shape}".encode() + pixels.tobytes())
        assert list(oled._PRICE_MEMO) == [key.digest()]

    def test_memo_never_exceeds_its_bound(self, monkeypatch):
        model = OledModel()
        bound = oled.PRICE_MEMO_MAX_ENTRIES
        frames = [np.frombuffer(i.to_bytes(6, "little"),
                                dtype=np.uint8).reshape(1, 2, 3)
                  for i in range(bound + 10)]
        for pixels in frames:
            model.frame_power_mw(pixels)
            assert len(oled._PRICE_MEMO) <= bound
        assert len(oled._PRICE_MEMO) == bound
        # The oldest entries went first: frame 10 is still a hit,
        # frame 9 is priced again.
        priced = []

        def price(self, pixels):
            priced.append(pixels)
            return 0.0
        monkeypatch.setattr(OledModel, "_price", price)
        model.frame_power_mw(frames[10])
        assert priced == []
        model.frame_power_mw(frames[9])
        assert len(priced) == 1 and priced[0] is frames[9]

    def test_run_batch_leaves_memo_empty(self):
        sizes = []
        run_batch([SessionConfig(app="Facebook", duration_s=2.0, seed=1,
                                 track_oled=True)], workers=1,
                  progress=lambda *_: sizes.append(len(oled._PRICE_MEMO)))
        assert sizes[0] > 0
        assert not oled._PRICE_MEMO

    def test_run_batch_leaves_memo_empty_after_a_raise(self):
        sizes = []
        configs = [SessionConfig(app="Facebook", duration_s=2.0, seed=1,
                                 track_oled=True),
                   SessionConfig(app="NoSuchApp", duration_s=2.0,
                                 track_oled=True)]
        with pytest.raises(WorkloadError):
            run_batch(configs, workers=1, on_error="raise",
                      progress=lambda *_: sizes.append(
                          len(oled._PRICE_MEMO)))
        assert len(sizes) == 1 and sizes[0] > 0
        assert not oled._PRICE_MEMO
