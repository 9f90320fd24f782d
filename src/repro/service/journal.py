"""The append-only operations journal: crash-tolerant by design.

Every interesting service transition — job ingested, attempt started,
job done/failed/rejected, recovery notes — appends one JSON line.  Appends are flushed and fsynced, so a crash can tear at most
the final line; :func:`read_journal` (built on the tolerant
:func:`repro.ioutil.read_jsonl`) counts torn tails and corrupt lines
instead of failing, because the journal is an *audit log*: correctness
lives in the write-once results directory
(:mod:`repro.service.jobs`), never here.

Record shape::

    {"op": "job_done", "job_id": "...", "seq": 17, ...}

``seq`` increases monotonically within one journal; extra fields are
operation-specific.  Records carry no wall-clock timestamps, so
deterministic tests stay byte-stable.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..errors import JournalError
from ..ioutil import JsonlReadResult, append_jsonl_line, read_jsonl

PathLike = Union[str, pathlib.Path]

#: Operation names :meth:`Journal.append` accepts.  Reads tolerate any
#: op, so a journal written by a newer or older version (one whose ops
#: were added or retired since) stays readable.
KNOWN_OPS = (
    "service_start", "service_stop",
    "job_ingested", "job_rejected",
    "attempt_start", "attempt_failed",
    "job_done", "job_failed",
    "recovery",
)


class Journal:
    """Appender over one journal file.

    Keeps the file handle open across appends (one open per service
    lifetime, not per record) and fsyncs each line.  Opening heals a
    torn tail left by a prior crash (terminates the unterminated final
    line) so new records never weld onto torn garbage.  Not
    thread-safe — the service serializes appends on the event loop.
    """

    def __init__(self, path: PathLike, *, fsync: bool = True) -> None:
        self.path = pathlib.Path(path)
        self._fsync = fsync
        _heal_torn_tail(self.path)
        self._seq = _next_seq(self.path)
        try:
            self._handle: Optional[Any] = self.path.open("a")
        except OSError as exc:
            raise JournalError(
                f"cannot open journal {self.path}: {exc}",
                context={"subsystem": "service",
                         "path": str(self.path)}) from None

    def append(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Append one record; returns it (with ``seq`` filled in)."""
        if self._handle is None:
            raise JournalError(
                f"journal {self.path} is closed",
                context={"subsystem": "service",
                         "path": str(self.path), "op": op})
        if op not in KNOWN_OPS:
            raise JournalError(
                f"unknown journal op {op!r}; known: {KNOWN_OPS}",
                context={"subsystem": "service",
                         "path": str(self.path), "op": op})
        record: Dict[str, Any] = {"op": op, "seq": self._seq, **fields}
        try:
            append_jsonl_line(self._handle, record, fsync=self._fsync)
        except OSError as exc:
            raise JournalError(
                f"cannot append to journal {self.path}: {exc}",
                context={"subsystem": "service",
                         "path": str(self.path), "op": op}) from None
        self._seq += 1
        return record

    def close(self) -> None:
        """Close the handle; further appends raise."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclass
class JournalState:
    """What a journal read reveals about past service activity."""

    #: Decoded records, file order.
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Raw read damage report from the tolerant reader.
    damage: JsonlReadResult = field(default_factory=JsonlReadResult)

    @property
    def torn_tail(self) -> bool:
        return self.damage.torn_tail

    @property
    def bad_lines(self) -> int:
        return self.damage.bad_lines

    def count(self, op: str,
              job_id: Optional[str] = None) -> int:
        """How many records carry ``op`` (optionally for one job)."""
        return sum(1 for record in self.records
                   if record.get("op") == op
                   and (job_id is None
                        or record.get("job_id") == job_id))


def read_journal(path: PathLike) -> JournalState:
    """Tolerantly read a journal file.

    Records that decode but are not objects (a JSON number on its own
    line, say) count as corrupt rather than raising — the journal is
    diagnostics, and recovery must proceed through any damage.
    """
    raw = read_jsonl(path)
    state = JournalState(damage=raw)
    for record in raw.records:
        if isinstance(record, dict) and isinstance(
                record.get("op"), str):
            state.records.append(record)
        else:
            state.damage.bad_lines += 1
    return state


def _heal_torn_tail(path: pathlib.Path) -> bool:
    """Terminate an unterminated final line before appending resumes.

    A crash can leave the journal's last line torn mid-record with no
    trailing newline.  Appending straight onto that tail would weld the
    next record to the garbage, losing *two* records to one torn write;
    writing a newline first caps the damage at the torn line itself.
    Returns True if a newline was added.
    """
    try:
        with path.open("rb+") as handle:
            handle.seek(0, 2)
            size = handle.tell()
            if size == 0:
                return False
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return False
            handle.write(b"\n")
            return True
    except OSError:
        return False


def _next_seq(path: pathlib.Path) -> int:
    """1 + the highest ``seq`` already journaled (0 for a fresh file)."""
    state = read_journal(path)
    highest = -1
    for record in state.records:
        seq = record.get("seq")
        if isinstance(seq, int) and not isinstance(seq, bool):
            highest = max(highest, seq)
    return highest + 1
