"""Crash-safe file primitives shared by every artifact writer.

The durability rules implemented here (and documented in
``docs/service.md``) are:

* **Atomic whole-file writes** — content lands under a temporary name
  in the destination directory, is flushed and fsynced, then renamed
  over the final path with :func:`os.replace`.  A crash at any point
  leaves either the previous file or the new one, never a torn hybrid.
* **Tolerant JSONL reads** — append-only journals can legitimately end
  in a torn line (the writer died mid-append).  :func:`read_jsonl`
  reports torn tails and undecodable lines instead of raising, so
  recovery code can count the damage and move on.

Every writer in the repo that produces an artifact another process may
read (traces, session exports, telemetry JSONL,
service checkpoints/results/health) routes through this module.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Any, List, Union

PathLike = Union[str, pathlib.Path]


def _fsync_directory(directory: pathlib.Path) -> None:
    """Best-effort fsync of a directory so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> pathlib.Path:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    The temporary file is created in the destination directory so the
    final :func:`os.replace` never crosses a filesystem boundary.  On
    any failure the temporary file is removed and the original ``path``
    (if it existed) is untouched.
    """
    path = pathlib.Path(path)
    directory = path.parent
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=directory)
    tmp_path = pathlib.Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            tmp_path.unlink()
        except OSError:
            pass
        raise
    _fsync_directory(directory)
    return path


def atomic_write_text(path: PathLike, text: str,
                      encoding: str = "utf-8") -> pathlib.Path:
    """Text flavour of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: PathLike, document: Any, *,
                      indent: int = 2, sort_keys: bool = True,
                      ) -> pathlib.Path:
    """Serialize ``document`` and write it atomically.

    ``allow_nan=False`` so a NaN sneaking into an artifact fails loudly
    at write time instead of producing JSON no strict parser reads.
    """
    text = json.dumps(document, indent=indent, sort_keys=sort_keys,
                      allow_nan=False)
    return atomic_write_text(path, text + "\n")


def replace_into_place(tmp_path: PathLike,
                       final_path: PathLike) -> pathlib.Path:
    """Fsync ``tmp_path`` then atomically rename it over ``final_path``.

    For streaming writers (telemetry JSONL) that keep a handle open on
    a temporary file and promote it once complete.
    """
    tmp_path = pathlib.Path(tmp_path)
    final_path = pathlib.Path(final_path)
    fd = os.open(tmp_path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp_path, final_path)
    _fsync_directory(final_path.parent)
    return final_path


def fsync_handle(handle: Any) -> None:
    """Flush and fsync an open file handle (no-op if unsupported)."""
    handle.flush()
    try:
        os.fsync(handle.fileno())
    except (OSError, ValueError):
        pass


@dataclass
class JsonlReadResult:
    """What :func:`read_jsonl` salvaged from an append-only log."""

    #: Successfully decoded records, in file order.
    records: List[Any] = field(default_factory=list)
    #: True when the final line was torn (no newline / undecodable) —
    #: the signature of a writer killed mid-append.
    torn_tail: bool = False
    #: Undecodable non-tail lines (corruption beyond a torn append).
    bad_lines: int = 0
    #: 1-based line numbers of the bad lines (tail included).
    bad_line_numbers: List[int] = field(default_factory=list)

    @property
    def damaged(self) -> bool:
        """True when anything at all failed to decode."""
        return self.torn_tail or self.bad_lines > 0


def read_jsonl(path: PathLike) -> JsonlReadResult:
    """Read an append-only JSONL file, tolerating crash damage.

    A missing file reads as empty — an append-only journal that was
    never written to is indistinguishable from one with no entries.
    The last line missing its newline, or failing to decode, is
    recorded as a *torn tail* (expected after a crash mid-append).
    Undecodable lines elsewhere count as ``bad_lines``.  Decoded
    records are returned in order either way; the caller decides
    whether damage is fatal.
    """
    path = pathlib.Path(path)
    result = JsonlReadResult()
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return result
    if not raw:
        return result
    complete = raw.endswith(b"\n")
    lines = raw.decode("utf-8", errors="replace").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    last_index = len(lines) - 1
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        is_tail = number - 1 == last_index
        try:
            result.records.append(json.loads(stripped))
        except ValueError:
            result.bad_line_numbers.append(number)
            if is_tail:
                result.torn_tail = True
            else:
                result.bad_lines += 1
            continue
        if is_tail and not complete:
            # Decoded, but the newline never hit disk: the record is
            # valid JSON yet the append was not durably completed.
            # Keep the record — content beats ceremony — but flag it.
            result.torn_tail = True
    return result


def append_jsonl_line(handle: Any, record: Any, *,
                      fsync: bool = True) -> str:
    """Append one JSON record to an open text handle, optionally fsynced.

    Returns the serialized line (without trailing newline).  The
    single-write + flush + fsync sequence is the strongest durability
    an append-only log gets without O_APPEND gymnastics; a crash can
    tear at most the final line, which :func:`read_jsonl` tolerates.
    """
    line = json.dumps(record, sort_keys=True, allow_nan=False)
    handle.write(line + "\n")
    if fsync:
        fsync_handle(handle)
    else:
        handle.flush()
    return line


def ensure_directory(path: PathLike) -> pathlib.Path:
    """Create ``path`` (and parents) if missing; return it."""
    path = pathlib.Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path
