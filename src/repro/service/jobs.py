"""Job and result wire formats + the service state-directory layout.

A *job* asks the service to run one session, described by its
:class:`~repro.pipeline.spec.SessionSpec` document.  Jobs and results
are plain JSON files so every state transition is a single atomic
rename and recovery needs nothing but a directory listing.

State directory layout (``ServicePaths``)::

    <state_dir>/
      jobs/     <job_id>.json   submitted jobs (repro-job/1)
      results/  <job_id>.json   terminal outcomes (repro-result/1)
      journal.jsonl             append-only operations journal
      health.json               latest health snapshot (atomic)

**Results are the source of truth.**  A job is complete exactly when
``results/<job_id>.json`` exists; the file is written once, atomically,
and never rewritten.  Restarting the service after any crash therefore
cannot duplicate side effects: done jobs are skipped because their
result file exists, and everything else is re-queued and rerun from
its spec.  The journal is an audit trail and health input, not a
correctness dependency.
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from ..errors import ServiceError
from ..ioutil import atomic_write_json, ensure_directory

PathLike = Union[str, pathlib.Path]

#: Schema tag of job documents.
JOB_SCHEMA = "repro-job/1"
#: Schema tag of terminal result documents.
RESULT_SCHEMA = "repro-result/1"

#: Job ids are path components; keep them boring.
_JOB_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")

_JOB_REQUIRED = ("schema", "job_id", "spec")
_JOB_ALLOWED = _JOB_REQUIRED + ("deadline_s", "submitted_seq")


class JobStatus:
    """Terminal and in-flight job states (plain strings on the wire)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"

    TERMINAL = (DONE, FAILED, REJECTED)


def validate_job_id(job_id: str) -> str:
    """``job_id`` if it is a safe path component, else ServiceError."""
    if not isinstance(job_id, str) or not _JOB_ID_RE.match(job_id):
        raise ServiceError(
            f"invalid job id {job_id!r}: use 1-100 characters of "
            f"[A-Za-z0-9._-], starting alphanumeric",
            context={"subsystem": "service", "job_id": str(job_id)})
    return job_id


@dataclass(frozen=True)
class JobRequest:
    """One submitted session job (``repro-job/1``).

    ``spec`` is the raw :class:`~repro.pipeline.spec.SessionSpec`
    document — kept as a dict so a job file with a broken spec can
    still be loaded, identified and rejected with a structured failure
    record instead of being invisible.  ``submitted_seq`` is a
    client-side monotonic hint used only for deterministic scheduling
    order; ties (and absent values) fall back to ``job_id`` order.
    """

    job_id: str
    spec: Dict[str, Any]
    deadline_s: Optional[float] = None
    submitted_seq: int = 0

    def __post_init__(self) -> None:
        validate_job_id(self.job_id)
        if not isinstance(self.spec, dict):
            raise ServiceError(
                f"job {self.job_id}: spec must be a JSON object, got "
                f"{type(self.spec).__name__}",
                context={"subsystem": "service", "job_id": self.job_id})
        if self.deadline_s is not None and not (
                isinstance(self.deadline_s, (int, float))
                and not isinstance(self.deadline_s, bool)
                and self.deadline_s > 0):
            raise ServiceError(
                f"job {self.job_id}: deadline_s must be a positive "
                f"number, got {self.deadline_s!r}",
                context={"subsystem": "service", "job_id": self.job_id})

    def to_json_dict(self) -> Dict[str, Any]:
        """The ``repro-job/1`` document."""
        document: Dict[str, Any] = {
            "schema": JOB_SCHEMA,
            "job_id": self.job_id,
            "spec": self.spec,
            "submitted_seq": self.submitted_seq,
        }
        if self.deadline_s is not None:
            document["deadline_s"] = float(self.deadline_s)
        return document

    @classmethod
    def from_json_dict(cls, data: Any,
                       where: str = "job") -> "JobRequest":
        """Decode and strictly validate a ``repro-job/1`` document."""
        if not isinstance(data, dict):
            raise ServiceError(
                f"{where}: expected a JSON object, got "
                f"{type(data).__name__}",
                context={"subsystem": "service", "where": where})
        schema = data.get("schema")
        if schema != JOB_SCHEMA:
            raise ServiceError(
                f"{where}: unsupported schema {schema!r} "
                f"(expected {JOB_SCHEMA!r})",
                context={"subsystem": "service", "where": where,
                         "schema": schema})
        missing = [key for key in _JOB_REQUIRED if key not in data]
        unknown = [key for key in data if key not in _JOB_ALLOWED]
        if missing or unknown:
            raise ServiceError(
                f"{where}: missing keys {missing}, unknown keys "
                f"{unknown}",
                context={"subsystem": "service", "where": where,
                         "missing": missing, "unknown": unknown})
        seq = data.get("submitted_seq", 0)
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise ServiceError(
                f"{where}: submitted_seq must be an integer",
                context={"subsystem": "service", "where": where})
        return cls(job_id=data["job_id"], spec=data["spec"],
                   deadline_s=data.get("deadline_s"),
                   submitted_seq=seq)

    def sort_key(self):
        """Deterministic scheduling order: submit sequence, then id."""
        return (self.submitted_seq, self.job_id)


class ServicePaths:
    """Resolved paths inside one service state directory."""

    def __init__(self, state_dir: PathLike) -> None:
        self.state_dir = pathlib.Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.results_dir = self.state_dir / "results"
        self.journal_path = self.state_dir / "journal.jsonl"
        self.health_path = self.state_dir / "health.json"

    def ensure(self) -> "ServicePaths":
        """Create the directory tree (idempotent)."""
        for directory in (self.state_dir, self.jobs_dir,
                          self.results_dir):
            ensure_directory(directory)
        return self

    # -- per-job files -------------------------------------------------
    def job_path(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / f"{validate_job_id(job_id)}.json"

    def result_path(self, job_id: str) -> pathlib.Path:
        return self.results_dir / f"{validate_job_id(job_id)}.json"

    # -- listings ------------------------------------------------------
    def list_jobs(self) -> List[pathlib.Path]:
        """Every job file, sorted by name for determinism."""
        if not self.jobs_dir.is_dir():
            return []
        return sorted(self.jobs_dir.glob("*.json"))


def load_job_file(path: PathLike) -> JobRequest:
    """Read one ``jobs/<id>.json`` file; ServiceError on any damage."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ServiceError(
            f"cannot read job file {path}: {exc}",
            context={"subsystem": "service",
                     "path": str(path)}) from None
    except ValueError as exc:
        raise ServiceError(
            f"job file {path} is not valid JSON: {exc}",
            context={"subsystem": "service",
                     "path": str(path)}) from None
    return JobRequest.from_json_dict(data, where=str(path))


def write_result(paths: ServicePaths, job_id: str, status: str,
                 payload: Dict[str, Any]) -> Optional[pathlib.Path]:
    """Write a job's terminal ``repro-result/1`` document atomically.

    Write-once: if a result already exists the write is skipped and
    ``None`` returned — this is the idempotence barrier that makes
    crash-restart free of duplicate side effects.  ``payload`` carries
    ``summary`` for DONE and ``failure`` (a structured failure record)
    for FAILED/REJECTED.
    """
    if status not in JobStatus.TERMINAL:
        raise ServiceError(
            f"result status must be terminal "
            f"({'/'.join(JobStatus.TERMINAL)}), got {status!r}",
            context={"subsystem": "service", "job_id": job_id})
    path = paths.result_path(job_id)
    if path.exists():
        return None
    document = {"schema": RESULT_SCHEMA, "job_id": job_id,
                "status": status, **payload}
    return atomic_write_json(path, document)


def load_result(paths: ServicePaths,
                job_id: str) -> Optional[Dict[str, Any]]:
    """The job's terminal result document, or None if still in flight.

    A result file that exists but fails to parse raises — results are
    written atomically, so damage there is not crash fallout but real
    corruption, and silently treating the job as unfinished would
    re-run completed side effects.
    """
    path = paths.result_path(job_id)
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise ServiceError(
            f"cannot read result {path}: {exc}",
            context={"subsystem": "service", "job_id": job_id,
                     "path": str(path)}) from None
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise ServiceError(
            f"result {path} is corrupt (results are written "
            f"atomically; this is not crash damage): {exc}",
            context={"subsystem": "service", "job_id": job_id,
                     "path": str(path)}) from None
    if not isinstance(document, dict) or document.get(
            "schema") != RESULT_SCHEMA:
        raise ServiceError(
            f"result {path} has unsupported schema "
            f"{document.get('schema') if isinstance(document, dict) else None!r}",
            context={"subsystem": "service", "job_id": job_id,
                     "path": str(path)})
    return document
