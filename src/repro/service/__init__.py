"""The durable session service: crash-safe queue, rerun on restart.

``repro.service`` turns the run-to-completion batch engine into a
long-running service (``repro serve``) whose jobs survive process
death:

* :mod:`repro.service.jobs` — the ``repro-job/1`` / ``repro-result/1``
  wire formats and the on-disk state-directory layout;
* :mod:`repro.service.journal` — the append-only, crash-tolerant
  operations journal;
* :mod:`repro.service.service` — the asyncio service itself: one FIFO
  queue drained by worker tasks, deadlines, retry with backoff,
  shutdown that leaves interrupted jobs pending for a rerun from their
  spec, health reporting.

Architecture and failure matrix: ``docs/service.md``.
"""

from .jobs import (
    JOB_SCHEMA,
    RESULT_SCHEMA,
    JobRequest,
    JobStatus,
    ServicePaths,
)
from .journal import Journal, read_journal
from .service import ServiceConfig, SessionService, submit_job

__all__ = [
    "JOB_SCHEMA",
    "Journal",
    "JobRequest",
    "JobStatus",
    "RESULT_SCHEMA",
    "ServiceConfig",
    "ServicePaths",
    "SessionService",
    "read_journal",
    "submit_job",
]
