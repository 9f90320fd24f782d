"""The ``repro-trace/1`` binary frame-trace container.

A trace is the exact sequence of framebuffer writes one session
produced: for each write, the simulation time and the pixels.  Storing
every frame raw would cost ``frames * width * height * 3`` bytes; real
UI content has strong frame coherence — consecutive frames are mostly
identical — so each frame is stored as a **delta** against the
previous one:

* the **dirty rect** is the bounding box of changed pixels (empty for
  a redundant frame — a write whose content did not change);
* the rect's pixels are **run-length encoded** as ``(count: u16,
  value: u8)`` pairs; when RLE would expand the data (noise-like
  content has no runs), the raw rect bytes are stored instead and the
  record's RAW flag is set.

File layout (all integers little-endian)::

    magic    8 bytes   b"REPROTRC"
    version  u16       1
    hlen     u32       header length
    header   hlen      UTF-8 JSON: schema, width, height, duration_s,
                       frame_count, meta (source profile/spec/origin)
    aux      u16 channel count, then per channel:
                       u16 name length, name UTF-8,
                       u64 value count, values as float64
    frames   frame_count records:
                       f64 time, u8 flags, u16 y0/x0/y1/x1 dirty rect,
                       u32 payload length, payload bytes

Aux channels carry the per-session event streams replay needs to
reproduce derived reports exactly (the source application's
content-change and render instants).  Decoding starts from an all-zero
canvas — the state of a freshly created
:class:`~repro.graphics.framebuffer.Framebuffer` — and applies deltas
in order, so decode(encode(frames)) is bit-exact.

Every malformed input (bad magic, unsupported version, truncation,
inconsistent payload) raises :class:`~repro.errors.TraceError`.
"""

from __future__ import annotations

import json
import pathlib
import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import TraceError
from ..ioutil import atomic_write_bytes

#: Identifies the trace document layout; bump on breaking changes.
TRACE_SCHEMA = "repro-trace/1"

#: First eight bytes of every trace file.
TRACE_MAGIC = b"REPROTRC"

#: Container version the writer emits and the reader accepts.
TRACE_VERSION = 1

#: Record flag: payload is raw rect bytes, not run-length pairs.
FLAG_RAW = 0x01

#: Longest run one ``(count, value)`` pair can express.
_MAX_RUN = 0xFFFF

#: Structured dtype of one RLE pair (packed: 3 bytes).
_RLE_DTYPE = np.dtype([("count", "<u2"), ("value", "u1")])

_HEAD = struct.Struct("<8sHI")
_RECORD = struct.Struct("<dBHHHHI")

PathLike = Union[str, pathlib.Path]


# ----------------------------------------------------------------------
# Run-length codec
# ----------------------------------------------------------------------
def rle_encode(data: np.ndarray) -> bytes:
    """``data`` (any-shape uint8) as packed ``(count, value)`` pairs."""
    flat = np.ascontiguousarray(data, dtype=np.uint8).ravel()
    if flat.size == 0:
        return b""
    return _rle_pairs(flat, np.flatnonzero(flat[1:] != flat[:-1]) + 1)


def _rle_pairs(flat: np.ndarray, boundaries: np.ndarray) -> bytes:
    """Packed pairs for non-empty ``flat`` whose runs start at 0 and
    at each index in ``boundaries``."""
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [flat.size]))
    lengths = ends - starts
    values = flat[starts]
    if int(lengths.max()) > _MAX_RUN:
        # Split over-long runs; rare (only huge uniform regions).
        split_lengths: List[int] = []
        split_values: List[int] = []
        for length, value in zip(lengths.tolist(), values.tolist()):
            while length > _MAX_RUN:
                split_lengths.append(_MAX_RUN)
                split_values.append(value)
                length -= _MAX_RUN
            split_lengths.append(length)
            split_values.append(value)
        lengths = np.asarray(split_lengths, dtype=np.int64)
        values = np.asarray(split_values, dtype=np.uint8)
    pairs = np.empty(lengths.size, dtype=_RLE_DTYPE)
    pairs["count"] = lengths
    pairs["value"] = values
    return pairs.tobytes()


def rle_decode(payload: bytes, expected_size: int) -> np.ndarray:
    """Packed pairs back to a flat uint8 array of ``expected_size``."""
    if len(payload) % _RLE_DTYPE.itemsize:
        raise TraceError(
            f"RLE payload length {len(payload)} is not a multiple of "
            f"{_RLE_DTYPE.itemsize}")
    pairs = np.frombuffer(payload, dtype=_RLE_DTYPE)
    counts = pairs["count"].astype(np.int64)
    if counts.size and int(counts.min()) == 0:
        raise TraceError("RLE payload contains a zero-length run")
    total = int(counts.sum())
    if total != expected_size:
        raise TraceError(
            f"RLE payload decodes to {total} bytes, expected "
            f"{expected_size}")
    return np.repeat(pairs["value"], counts)


# ----------------------------------------------------------------------
# Frame records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrameRecord:
    """One framebuffer write: time + delta against the previous frame.

    ``rect`` is the half-open dirty bounding box ``(y0, x0, y1, x1)``;
    ``(0, 0, 0, 0)`` means no pixel changed (a redundant frame).
    ``payload`` holds the rect's pixels, RLE pairs unless ``raw``.
    """

    time: float
    rect: Tuple[int, int, int, int]
    raw: bool
    payload: bytes

    @property
    def empty(self) -> bool:
        """True for a redundant frame (no pixels changed)."""
        y0, x0, y1, x1 = self.rect
        return y1 <= y0 or x1 <= x0

    @property
    def encoded_size(self) -> int:
        """On-disk bytes of this record, fixed fields included."""
        return _RECORD.size + len(self.payload)

    def apply(self, canvas: np.ndarray) -> bool:
        """Apply this delta to ``canvas`` (H, W, 3 uint8) in place.

        Returns True when pixels changed (the record was not empty).
        """
        if self.empty:
            return False
        y0, x0, y1, x1 = self.rect
        height, width = canvas.shape[:2]
        if y1 > height or x1 > width:
            raise TraceError(
                f"frame record rect {self.rect} exceeds trace geometry "
                f"{width}x{height}")
        size = (y1 - y0) * (x1 - x0) * 3
        if self.raw:
            if len(self.payload) != size:
                raise TraceError(
                    f"raw payload is {len(self.payload)} bytes, rect "
                    f"{self.rect} needs {size}")
            patch = np.frombuffer(self.payload, dtype=np.uint8)
        else:
            patch = rle_decode(self.payload, size)
        canvas[y0:y1, x0:x1] = patch.reshape(y1 - y0, x1 - x0, 3)
        return True


def encode_frame_delta(time: float, previous: np.ndarray,
                       current: np.ndarray) -> FrameRecord:
    """The :class:`FrameRecord` turning ``previous`` into ``current``.

    One pass per piece of work: a single byte-level change mask gives
    the dirty rows, and its columns are scanned over those rows only.
    Every RLE pair is 3 bytes and splitting an over-long run only adds
    pairs, so a region with ``3 * runs >= nbytes`` cannot shrink under
    RLE and is stored raw without building any pairs.
    """
    height, width = current.shape[:2]
    changed = (current != previous).reshape(height, width * 3)
    rows = changed.any(axis=1)
    if not rows.any():
        return FrameRecord(time=time, rect=(0, 0, 0, 0), raw=False,
                           payload=b"")
    y0 = int(np.argmax(rows))
    y1 = int(height - np.argmax(rows[::-1]))
    cols = changed[y0:y1].any(axis=0).reshape(width, 3).any(axis=1)
    x0 = int(np.argmax(cols))
    x1 = int(width - np.argmax(cols[::-1]))
    rect = (y0, x0, y1, x1)
    region = np.ascontiguousarray(current[y0:y1, x0:x1])
    flat = region.reshape(-1)
    steps = flat[1:] != flat[:-1]
    runs = int(np.count_nonzero(steps)) + 1
    if _RLE_DTYPE.itemsize * runs < region.nbytes:
        rle = _rle_pairs(flat, np.flatnonzero(steps) + 1)
        if len(rle) < region.nbytes:
            return FrameRecord(time=time, rect=rect, raw=False,
                               payload=rle)
    return FrameRecord(time=time, rect=rect, raw=True,
                       payload=region.tobytes())


# ----------------------------------------------------------------------
# The trace container
# ----------------------------------------------------------------------
class FrameTrace:
    """A decoded trace: geometry, frame records, aux event channels.

    Parameters
    ----------
    width, height:
        Framebuffer geometry the frames were captured at.
    duration_s:
        Length of the recorded session.
    records:
        Frame records in time order (non-decreasing times).
    aux:
        Named float64 event-time channels (``content_changes``,
        ``renders``) replay uses to rebuild derived reports exactly.
    meta:
        JSON-ready provenance: the source app profile, the source
        session spec, and an origin tag.
    """

    def __init__(self, width: int, height: int, duration_s: float,
                 records: Sequence[FrameRecord],
                 aux: Optional[Mapping[str, np.ndarray]] = None,
                 meta: Optional[Mapping[str, Any]] = None) -> None:
        if width <= 0 or height <= 0:
            raise TraceError(
                f"trace geometry must be positive, got {width}x{height}")
        if width > _MAX_RUN or height > _MAX_RUN:
            raise TraceError(
                f"trace geometry {width}x{height} exceeds the u16 rect "
                f"limit ({_MAX_RUN})")
        if duration_s <= 0:
            raise TraceError(
                f"trace duration must be positive, got {duration_s}")
        self.width = int(width)
        self.height = int(height)
        self.duration_s = float(duration_s)
        self.records: Tuple[FrameRecord, ...] = tuple(records)
        last = float("-inf")
        for record in self.records:
            if record.time < last:
                raise TraceError(
                    f"frame times go backwards ({record.time:.6f} < "
                    f"{last:.6f})")
            last = record.time
        self.aux: Dict[str, np.ndarray] = {
            str(name): np.asarray(values, dtype=np.float64)
            for name, values in (aux or {}).items()}
        self.meta: Dict[str, Any] = dict(meta or {})

    # -- sizes ---------------------------------------------------------
    @property
    def frame_count(self) -> int:
        """Number of recorded framebuffer writes."""
        return len(self.records)

    @property
    def raw_frame_bytes(self) -> int:
        """What the frames would cost stored raw (no deltas, no RLE)."""
        return self.frame_count * self.width * self.height * 3

    @property
    def encoded_frame_bytes(self) -> int:
        """On-disk bytes of the frame section (record overhead
        included — the honest compressed size)."""
        return sum(record.encoded_size for record in self.records)

    @property
    def compression_ratio(self) -> float:
        """``encoded_frame_bytes / raw_frame_bytes`` (0.0 when empty);
        small is good — mostly-static UI traces land well under 0.25."""
        raw = self.raw_frame_bytes
        if raw == 0:
            return 0.0
        return self.encoded_frame_bytes / raw

    # -- decoding ------------------------------------------------------
    def frames(self) -> Iterator[Tuple[float, np.ndarray]]:
        """Yield ``(time, pixels)`` per record, pixels fully decoded.

        The yielded array is a live canvas reused between iterations;
        copy it to keep a frame.
        """
        canvas = np.zeros((self.height, self.width, 3), dtype=np.uint8)
        for record in self.records:
            record.apply(canvas)
            yield record.time, canvas

    def frame_times(self) -> np.ndarray:
        """All record times as a float64 array."""
        return np.asarray([record.time for record in self.records],
                          dtype=np.float64)

    # -- summary -------------------------------------------------------
    def info_dict(self) -> Dict[str, Any]:
        """A JSON-ready description (what ``repro trace info`` prints)."""
        meaningful = sum(1 for record in self.records
                         if not record.empty)
        return {
            "schema": TRACE_SCHEMA,
            "width": self.width,
            "height": self.height,
            "duration_s": self.duration_s,
            "frame_count": self.frame_count,
            "meaningful_frames": meaningful,
            "redundant_frames": self.frame_count - meaningful,
            "raw_frame_bytes": self.raw_frame_bytes,
            "encoded_frame_bytes": self.encoded_frame_bytes,
            "compression_ratio": self.compression_ratio,
            "aux_channels": {name: int(values.size)
                             for name, values in sorted(self.aux.items())},
            "meta": self.meta,
        }

    # -- serialization -------------------------------------------------
    def save(self, path: PathLike) -> pathlib.Path:
        """Write the trace; returns the path."""
        return save_trace(self, path)

    @classmethod
    def load(cls, path: PathLike) -> "FrameTrace":
        """Read a trace written by :meth:`save`."""
        return load_trace(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FrameTrace {self.width}x{self.height} "
                f"{self.frame_count} frames {self.duration_s:g}s>")


class TraceBuilder:
    """Incremental trace construction from successive full frames.

    Keeps exactly one previous-frame copy; each :meth:`add_frame` call
    delta-encodes against it.  Both the live recorder and the synthetic
    generators feed frames through here, so every trace takes the same
    encoding path.
    """

    def __init__(self, width: int, height: int) -> None:
        self.width = int(width)
        self.height = int(height)
        self._previous = np.zeros((self.height, self.width, 3),
                                  dtype=np.uint8)
        self._records: List[FrameRecord] = []
        self._last_time = float("-inf")

    @property
    def frame_count(self) -> int:
        """Frames added so far."""
        return len(self._records)

    def add_frame(self, time: float, pixels: np.ndarray) -> FrameRecord:
        """Delta-encode one full frame; times must not decrease."""
        if pixels.shape != self._previous.shape:
            raise TraceError(
                f"frame shape {pixels.shape} does not match trace "
                f"geometry {self._previous.shape}")
        if pixels.dtype != np.uint8:
            raise TraceError(
                f"frames must be uint8, got {pixels.dtype}")
        if time < self._last_time:
            raise TraceError(
                f"frame times go backwards ({time:.6f} < "
                f"{self._last_time:.6f})")
        record = encode_frame_delta(float(time), self._previous, pixels)
        self._records.append(record)
        np.copyto(self._previous, pixels)
        self._last_time = float(time)
        return record

    def build(self, duration_s: float,
              aux: Optional[Mapping[str, np.ndarray]] = None,
              meta: Optional[Mapping[str, Any]] = None) -> FrameTrace:
        """Finish: the accumulated records as a :class:`FrameTrace`."""
        return FrameTrace(self.width, self.height, duration_s,
                          self._records, aux=aux, meta=meta)


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def save_trace(trace: FrameTrace, path: PathLike) -> pathlib.Path:
    """Serialize ``trace`` to ``path`` (see module docstring layout)."""
    header = {
        "schema": TRACE_SCHEMA,
        "width": trace.width,
        "height": trace.height,
        "duration_s": trace.duration_s,
        "frame_count": trace.frame_count,
        "meta": trace.meta,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks: List[bytes] = [
        _HEAD.pack(TRACE_MAGIC, TRACE_VERSION, len(header_bytes)),
        header_bytes,
        struct.pack("<H", len(trace.aux)),
    ]
    for name in sorted(trace.aux):
        name_bytes = name.encode("utf-8")
        values = np.ascontiguousarray(trace.aux[name],
                                      dtype="<f8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<Q", values.size))
        chunks.append(values.tobytes())
    for record in trace.records:
        y0, x0, y1, x1 = record.rect
        flags = FLAG_RAW if record.raw else 0
        chunks.append(_RECORD.pack(record.time, flags, y0, x0, y1, x1,
                                   len(record.payload)))
        chunks.append(record.payload)
    path = pathlib.Path(path)
    try:
        # Atomic: a crash mid-write must never leave a torn trace at
        # the destination (the reader treats truncation as corruption).
        atomic_write_bytes(path, b"".join(chunks))
    except OSError as exc:
        raise TraceError(f"cannot write trace {path}: {exc}") from None
    return path


class _Reader:
    """Cursor over trace bytes; every read checks for truncation."""

    def __init__(self, data: bytes, path: pathlib.Path) -> None:
        self._data = data
        self._path = path
        self._pos = 0

    def take(self, count: int, what: str) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise TraceError(
                f"trace {self._path} is truncated: {what} needs "
                f"{count} bytes at offset {self._pos}, file has "
                f"{len(self._data)}")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)


def load_trace(path: PathLike) -> FrameTrace:
    """Read one trace file; malformed input raises
    :class:`~repro.errors.TraceError`."""
    path = pathlib.Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from None
    reader = _Reader(data, path)
    magic, version, header_len = _HEAD.unpack(
        reader.take(_HEAD.size, "file head"))
    if magic != TRACE_MAGIC:
        raise TraceError(
            f"{path} is not a repro trace (bad magic {magic!r})")
    if version != TRACE_VERSION:
        raise TraceError(
            f"trace {path} has unsupported version {version}; this "
            f"reader handles version {TRACE_VERSION}")
    try:
        header = json.loads(reader.take(header_len, "header")
                            .decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(
            f"trace {path} header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise TraceError(f"trace {path} header must be an object")
    schema = header.get("schema")
    if schema != TRACE_SCHEMA:
        raise TraceError(
            f"trace {path} schema is {schema!r}, expected "
            f"{TRACE_SCHEMA!r}")
    for key in ("width", "height", "duration_s", "frame_count"):
        if key not in header:
            raise TraceError(f"trace {path} header is missing {key!r}")

    (channel_count,) = struct.unpack(
        "<H", reader.take(2, "aux channel count"))
    aux: Dict[str, np.ndarray] = {}
    for _ in range(channel_count):
        (name_len,) = struct.unpack(
            "<H", reader.take(2, "aux channel name length"))
        name = reader.take(name_len, "aux channel name").decode("utf-8")
        (count,) = struct.unpack(
            "<Q", reader.take(8, "aux channel value count"))
        values = np.frombuffer(
            reader.take(8 * count, f"aux channel {name!r} values"),
            dtype="<f8")
        aux[name] = values.astype(np.float64)

    records: List[FrameRecord] = []
    for index in range(int(header["frame_count"])):
        time, flags, y0, x0, y1, x1, payload_len = _RECORD.unpack(
            reader.take(_RECORD.size, f"frame record {index}"))
        payload = reader.take(payload_len, f"frame payload {index}")
        records.append(FrameRecord(
            time=time, rect=(y0, x0, y1, x1),
            raw=bool(flags & FLAG_RAW), payload=payload))
    if not reader.exhausted:
        raise TraceError(
            f"trace {path} has trailing bytes after the last frame "
            f"record")
    return FrameTrace(
        width=int(header["width"]), height=int(header["height"]),
        duration_s=float(header["duration_s"]), records=records,
        aux=aux, meta=header.get("meta") or {})
