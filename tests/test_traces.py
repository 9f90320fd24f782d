"""Tests for the binary frame-trace subsystem (``repro.traces``).

Covers the codec (property-based round trips, corrupt-file
rejection), the recorder/replay pipeline (the byte-identical
record -> replay guarantee, serial and pooled), the ``trace:<path>``
app scheme, and the committed golden fixture.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import json_sanitize, session_summary_dict
from repro.errors import ConfigurationError, TraceError
from repro.pipeline.spec import SessionSpec, spec_roundtrip
from repro.sim.batch import run_batch, summarize_result
from repro.sim.session import SessionConfig, run_session
from repro.traces import (
    FrameRecord,
    FrameTrace,
    TraceBuilder,
    load_trace,
    record_session,
    register_trace,
    replay_config,
    rle_decode,
    rle_encode,
    save_trace,
    synthetic_trace,
)
from repro.traces.format import encode_frame_delta
from repro.traces.profile import TraceProfile

from .reference import encode_frame_delta as reference_encode_frame_delta

DATA_DIR = pathlib.Path(__file__).parent / "data"


# --------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------

byte_arrays = st.one_of(
    # Arbitrary bytes (worst case for RLE).
    st.binary(min_size=0, max_size=512).map(
        lambda b: np.frombuffer(b, dtype=np.uint8)),
    # Runny data (the case RLE exists for), incl. runs > 65535.
    st.lists(st.tuples(st.integers(0, 255), st.integers(1, 70_000)),
             min_size=0, max_size=4).map(
        lambda runs: np.concatenate(
            [np.full(n, v, dtype=np.uint8) for v, n in runs]
            or [np.zeros(0, dtype=np.uint8)])),
)

geometries = st.tuples(st.integers(min_value=1, max_value=24),
                       st.integers(min_value=1, max_value=24))


@st.composite
def frame_sequences(draw):
    """(width, height, [frames]) with redundant, noisy, one-pixel and
    flat-block frames."""
    width, height = draw(geometries)
    count = draw(st.integers(min_value=0, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    frames = []
    previous = None
    for _ in range(count):
        kind = draw(st.sampled_from(["noise", "repeat", "patch",
                                     "block"]))
        if kind == "repeat" and previous is not None:
            frame = previous.copy()
        elif kind == "patch" and previous is not None:
            frame = previous.copy()
            y = int(rng.integers(0, height))
            x = int(rng.integers(0, width))
            frame[y, x] = rng.integers(0, 256, 3, dtype=np.uint8)
        elif kind == "block" and previous is not None:
            # A grey rectangle: runs long enough for RLE to win.
            frame = previous.copy()
            y0 = int(rng.integers(0, height))
            x0 = int(rng.integers(0, width))
            y1 = int(rng.integers(y0 + 1, height + 1))
            x1 = int(rng.integers(x0 + 1, width + 1))
            frame[y0:y1, x0:x1] = rng.integers(0, 256, dtype=np.uint8)
        else:
            frame = rng.integers(0, 256, (height, width, 3),
                                 dtype=np.uint8)
        frames.append(frame)
        previous = frame
    return width, height, frames


# --------------------------------------------------------------------
# RLE codec
# --------------------------------------------------------------------

class TestRLE:
    @given(data=byte_arrays)
    @settings(deadline=None, max_examples=200)
    def test_round_trip(self, data):
        payload = rle_encode(data)
        assert len(payload) % 3 == 0
        decoded = rle_decode(payload, data.size)
        assert np.array_equal(decoded, data)

    def test_empty(self):
        assert rle_encode(np.zeros(0, dtype=np.uint8)) == b""
        assert rle_decode(b"", 0).size == 0

    def test_long_run_splits(self):
        data = np.full(200_000, 7, dtype=np.uint8)
        payload = rle_encode(data)
        assert np.array_equal(rle_decode(payload, data.size), data)

    def test_rejects_bad_payloads(self):
        with pytest.raises(TraceError):
            rle_decode(b"\x01\x02", 1)  # not a multiple of 3
        with pytest.raises(TraceError):
            rle_decode(b"\x01\x00\x07", 2)  # total mismatch


# --------------------------------------------------------------------
# Frame deltas
# --------------------------------------------------------------------

class TestFrameDelta:
    @given(seq=frame_sequences())
    @settings(deadline=None, max_examples=100)
    def test_apply_reconstructs_every_frame(self, seq):
        width, height, frames = seq
        canvas = np.zeros((height, width, 3), dtype=np.uint8)
        previous = canvas.copy()
        for index, frame in enumerate(frames):
            record = encode_frame_delta(float(index + 1), previous,
                                        frame)
            record.apply(canvas)
            assert np.array_equal(canvas, frame)
            previous = frame

    def test_redundant_frame_is_empty(self):
        frame = np.full((4, 4, 3), 9, dtype=np.uint8)
        record = encode_frame_delta(1.0, frame, frame.copy())
        assert record.empty
        assert record.payload == b""

    def test_raw_fallback_on_noise(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        b = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        record = encode_frame_delta(1.0, a, b)
        canvas = a.copy()
        record.apply(canvas)
        assert np.array_equal(canvas, b)


class TestEncoderMatchesReference:
    """The one-pass encoder emits the reference's records exactly."""

    @given(seq=frame_sequences())
    @settings(deadline=None, max_examples=150)
    def test_every_record_equal(self, seq):
        width, height, frames = seq
        previous = np.zeros((height, width, 3), dtype=np.uint8)
        for index, frame in enumerate(frames):
            time = float(index + 1)
            assert (encode_frame_delta(time, previous, frame)
                    == reference_encode_frame_delta(time, previous,
                                                    frame))
            previous = frame

    @staticmethod
    def check(previous, current):
        record = encode_frame_delta(1.0, previous, current)
        assert record == reference_encode_frame_delta(1.0, previous,
                                                      current)
        return record

    def test_one_pixel_region(self):
        previous = np.zeros((5, 7, 3), dtype=np.uint8)
        for pixel in ((9, 9, 9), (1, 2, 3)):
            current = previous.copy()
            current[2, 3] = pixel
            record = self.check(previous, current)
            # 3 bytes never shrink under 3-byte pairs.
            assert record.rect == (2, 3, 3, 4) and record.raw

    def test_tie_three_runs_equals_nbytes_is_raw(self):
        # Two grey pixels of different levels: 2 runs, 6 bytes, so
        # RLE would be exactly as large as the raw rect.
        previous = np.zeros((1, 2, 3), dtype=np.uint8)
        current = np.array([[[4, 4, 4], [5, 5, 5]]], dtype=np.uint8)
        record = self.check(previous, current)
        assert record.raw and len(record.payload) == 6

    def test_one_run_below_tie_is_rle(self):
        previous = np.zeros((1, 2, 3), dtype=np.uint8)
        current = np.full((1, 2, 3), 4, dtype=np.uint8)
        record = self.check(previous, current)
        assert not record.raw and len(record.payload) == 3

    def test_split_long_run_tips_rle_into_raw(self):
        # 3 * runs == nbytes - 3 passes the run-count test, but the
        # 65536-byte opening run splits into two pairs, so the pairs
        # total exactly nbytes and the rect is stored raw.
        height, width = 200, 200
        nbytes = height * width * 3
        runs = nbytes // 3 - 1
        tail = nbytes - 65536
        lengths = np.ones(runs - 1, dtype=np.int64)
        lengths[:tail - (runs - 1)] = 2
        values = np.resize(np.array([1, 2], dtype=np.uint8), runs - 1)
        flat = np.concatenate((np.zeros(65536, dtype=np.uint8),
                               np.repeat(values, lengths)))
        current = flat.reshape(height, width, 3)
        previous = np.full_like(current, 255)
        record = self.check(previous, current)
        assert record.raw and len(record.payload) == nbytes

    def test_uniform_frame_splits_into_rle(self):
        previous = np.zeros((256, 256, 3), dtype=np.uint8)
        current = np.full_like(previous, 7)
        record = self.check(previous, current)
        # 196,608 bytes: three full 65,535-byte pairs and a 3-byte one.
        assert not record.raw and len(record.payload) == 12


# --------------------------------------------------------------------
# File format round trip + rejection
# --------------------------------------------------------------------

class TestFileFormat:
    @given(seq=frame_sequences())
    @settings(deadline=None, max_examples=60)
    def test_save_load_round_trip(self, seq, tmp_path_factory):
        width, height, frames = seq
        builder = TraceBuilder(width, height)
        for index, frame in enumerate(frames):
            builder.add_frame(float(index + 1), frame)
        duration = float(len(frames) + 1)
        aux = {"content_changes": np.arange(len(frames),
                                            dtype=np.float64)}
        trace = builder.build(duration, aux=aux,
                              meta={"origin": "test"})
        path = tmp_path_factory.mktemp("trace") / "t.rptrace"
        save_trace(trace, path)
        loaded = load_trace(path)

        assert (loaded.width, loaded.height) == (width, height)
        assert loaded.duration_s == duration
        assert loaded.meta == {"origin": "test"}
        assert np.array_equal(loaded.aux["content_changes"],
                              aux["content_changes"])
        decoded = [frame.copy() for _, frame in loaded.frames()]
        assert len(decoded) == len(frames)
        for got, expected in zip(decoded, frames):
            assert np.array_equal(got, expected)

    def test_empty_trace_round_trips(self, tmp_path):
        trace = TraceBuilder(8, 8).build(1.0)
        path = tmp_path / "empty.rptrace"
        trace.save(path)
        loaded = FrameTrace.load(path)
        assert loaded.frame_count == 0
        assert loaded.compression_ratio == 0.0

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rptrace"
        trace = synthetic_trace("idle", duration_s=2.0)
        save_trace(trace, path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTATRCE"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="magic"):
            load_trace(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.rptrace"
        save_trace(synthetic_trace("idle", duration_s=2.0), path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version word (little-endian u16 at offset 8)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="version"):
            load_trace(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "whole.rptrace"
        save_trace(synthetic_trace("idle", duration_s=3.0), path)
        data = path.read_bytes()
        cut = tmp_path / "cut.rptrace"
        # Every prefix must fail cleanly, never crash or mis-decode.
        for fraction in (0.01, 0.3, 0.6, 0.95):
            cut.write_bytes(data[:int(len(data) * fraction)])
            with pytest.raises(TraceError):
                load_trace(cut)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "extra.rptrace"
        save_trace(synthetic_trace("idle", duration_s=2.0), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_missing_file_is_trace_error(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "nope.rptrace")


# --------------------------------------------------------------------
# Synthetic traces
# --------------------------------------------------------------------

class TestSynthetic:
    def test_idle_trace_compresses_hard(self):
        trace = synthetic_trace("idle", duration_s=10.0)
        # The acceptance bar: a mostly-static UI stream encodes to
        # <= 25% of raw frame bytes.
        assert trace.compression_ratio <= 0.25

    def test_deterministic_in_seed(self):
        a = synthetic_trace("scroll", duration_s=2.0, seed=3)
        b = synthetic_trace("scroll", duration_s=2.0, seed=3)
        for (ta, fa), (tb, fb) in zip(a.frames(), b.frames()):
            assert ta == tb
            assert np.array_equal(fa, fb)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceError):
            synthetic_trace("fire", duration_s=1.0)

    @pytest.mark.parametrize("kind", ["video", "scroll", "idle"])
    def test_all_kinds_replayable(self, kind, tmp_path):
        path = tmp_path / f"{kind}.rptrace"
        save_trace(synthetic_trace(kind, duration_s=3.0), path)
        result = run_session(replay_config(path))
        assert result.duration_s == 3.0


# --------------------------------------------------------------------
# Record -> replay: the headline guarantee
# --------------------------------------------------------------------

SESSION = SessionConfig(app="Facebook", governor="section+boost",
                        duration_s=8.0, seed=3)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded session, saved to disk, shared by the module."""
    result, trace = record_session(SESSION)
    path = tmp_path_factory.mktemp("rec") / "session.rptrace"
    save_trace(trace, path)
    return result, trace, path


class TestRecordReplay:
    def test_recording_does_not_perturb_the_session(self, recorded):
        result, _, _ = recorded
        plain = run_session(SESSION)
        assert (json.dumps(session_summary_dict(plain), sort_keys=True)
                == json.dumps(session_summary_dict(result),
                              sort_keys=True))

    def test_replay_summary_byte_identical(self, recorded):
        result, _, path = recorded
        replayed = run_session(replay_config(path))
        assert (json.dumps(session_summary_dict(result),
                           sort_keys=True)
                == json.dumps(session_summary_dict(replayed),
                              sort_keys=True))

    def test_replay_pooled_matches_serial(self, recorded):
        _, _, path = recorded
        config = replay_config(path)
        serial = summarize_result(run_session(config))
        scheme = dataclasses.replace(config, app=f"trace:{path}")
        entries = run_batch([config, scheme], workers=2)
        expected = json.dumps(serial, sort_keys=True)
        for entry in entries:
            assert json.dumps(entry, sort_keys=True) == expected

    def test_replay_under_other_governors(self, recorded):
        _, _, path = recorded
        for governor in ("fixed", "section", "oracle"):
            result = run_session(replay_config(path,
                                               governor=governor))
            assert result.duration_s == SESSION.duration_s

    def test_replay_rejects_app_override(self, recorded):
        _, _, path = recorded
        with pytest.raises(TraceError):
            replay_config(path, app="Facebook")

    def test_geometry_mismatch_rejected(self, recorded):
        _, _, path = recorded
        config = dataclasses.replace(replay_config(path),
                                     resolution_divisor=4)
        with pytest.raises(ConfigurationError,
                           match="resolution_divisor"):
            run_session(config)

    def test_trace_frames_match_live_framebuffer(self, recorded):
        _, trace, _ = recorded
        # Re-run and tap the framebuffer: recorded pixels must equal
        # the live pixels at each composition instant.
        from repro.traces.recorder import record_session as rec
        _, again = rec(SESSION)
        assert again.frame_count == trace.frame_count
        for (ta, fa), (tb, fb) in zip(trace.frames(), again.frames()):
            assert ta == tb
            assert np.array_equal(fa, fb)


# --------------------------------------------------------------------
# Registry + spec integration
# --------------------------------------------------------------------

class TestPipelineIntegration:
    def test_trace_scheme_spec_roundtrip(self, recorded):
        _, _, path = recorded
        config = dataclasses.replace(replay_config(path),
                                     app=f"trace:{path}")
        assert spec_roundtrip(config) == config
        doc = SessionSpec.from_config(config).to_json_dict()
        assert SessionSpec.from_json_dict(doc).to_config() == config

    def test_register_trace_runs_as_named_app(self, recorded):
        _, _, path = recorded
        register_trace("recorded-facebook", path, replace=True)
        base = replay_config(path)
        named = dataclasses.replace(base, app="recorded-facebook")
        a = session_summary_dict(run_session(base))
        b = session_summary_dict(run_session(named))
        # Same trace, same governor: same numbers (names differ).
        for key in ("mean_power_mw", "mean_refresh_hz",
                    "content_rate_fps"):
            assert a[key] == b[key]


# --------------------------------------------------------------------
# Golden fixture (also replayed in CI against the committed summary)
# --------------------------------------------------------------------

class TestGoldenFixture:
    def test_reencoding_reproduces_committed_bytes(self, tmp_path):
        golden = DATA_DIR / "golden.rptrace"
        trace = load_trace(golden)
        builder = TraceBuilder(trace.width, trace.height)
        for time, pixels in trace.frames():
            builder.add_frame(time, pixels)
        again = builder.build(trace.duration_s, aux=trace.aux,
                              meta=trace.meta)
        path = save_trace(again, tmp_path / "golden.rptrace")
        assert path.read_bytes() == golden.read_bytes()

    def test_golden_replay_matches_committed_summary(self):
        golden = DATA_DIR / "golden.rptrace"
        expected = json.loads(
            (DATA_DIR / "golden_summary.json").read_text())
        result = run_session(replay_config(golden))
        summary = json_sanitize(session_summary_dict(result))
        assert summary == expected


# --------------------------------------------------------------------
# The trace workload's cached profile
# --------------------------------------------------------------------

class TestTraceProfileMemo:
    @staticmethod
    def rewrite(trace, path, profile):
        meta = dict(trace.meta, profile=profile)
        save_trace(FrameTrace(trace.width, trace.height, trace.duration_s,
                              trace.records, aux=trace.aux, meta=meta),
                   path)

    def test_rewrite_with_new_profile_is_seen(self, tmp_path):
        trace = synthetic_trace("idle", duration_s=2.0)
        path = tmp_path / "idle.rptrace"
        save_trace(trace, path)
        workload = TraceProfile(str(path))
        old = workload.as_app_profile()
        assert workload.as_app_profile() is old
        # Same length, so the file size cannot tell the two apart.
        renamed = dict(trace.meta["profile"], name=old.name.upper())
        self.rewrite(trace, path, renamed)
        assert workload.as_app_profile().name == old.name.upper()

    def test_undecodable_profile_raises_every_call(self, tmp_path):
        trace = synthetic_trace("idle", duration_s=2.0)
        path = tmp_path / "bad.rptrace"
        self.rewrite(trace, path, {"bogus": 1})
        workload = TraceProfile(str(path))
        for _ in range(2):
            with pytest.raises(TraceError, match="undecodable"):
                workload.as_app_profile()
