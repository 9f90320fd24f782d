"""The asyncio session service: durable queue, rerun on restart.

One :class:`SessionService` owns a state directory
(:class:`~repro.service.jobs.ServicePaths`) and runs submitted session
jobs to completion, surviving any crash:

* Jobs arrive as atomic file drops in ``jobs/``, written by
  :func:`submit_job` (works with no service running).
* ``workers`` worker tasks (plain asyncio tasks — sessions are
  CPU-bounded slices, so cooperative stepping keeps the loop responsive
  without threads) pull from one FIFO queue, in
  :meth:`~repro.service.jobs.JobRequest.sort_key` order.
* A job that a stop or crash interrupts has a spool file and no
  result, so it stays ``pending`` and the next start reruns it from
  its :class:`~repro.pipeline.spec.SessionSpec`.  The simulator is
  deterministic, so the rerun's summary is byte-identical to an
  uninterrupted run.
* Failures retry with exponential backoff up to ``max_attempts``, then
  become structured failure records (the same
  :func:`~repro.sim.batch.make_failure_record` shape the batch engine
  writes).  A job file the strict decoder refuses is terminalized as
  ``rejected`` without running.
* SIGTERM/SIGINT stop the service: in-flight jobs are cancelled and
  write no result, queued jobs stay durable on disk, the service
  exits 0.
* Health/readiness snapshots (``health.json``, atomic) are fed by a
  :class:`~repro.telemetry.metrics.MetricsRegistry`.

Failure matrix and format reference: ``docs/service.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from ..errors import ServiceError
from ..ioutil import atomic_write_json
from ..sim.batch import make_failure_record, summarize_result
from ..sim.runner import SessionRunner
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.profiling import SPAN_BUCKET_EDGES_S
from .jobs import (
    JobRequest,
    JobStatus,
    ServicePaths,
    load_job_file,
    load_result,
    write_result,
)
from .journal import Journal, read_journal

PathLike = Union[str, pathlib.Path]

#: Health snapshot schema tag.
HEALTH_SCHEMA = "repro-health/1"


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`SessionService`.

    Defaults favour correctness over throughput; tests shrink the
    periods to provoke races quickly.

    ``slice_s`` is *simulation* seconds advanced per cooperative step;
    ``slice_sleep_s`` is *wall* seconds slept between steps (0 runs
    flat out — raise it to pace execution, e.g. so a stop lands
    mid-job deterministically).
    """

    state_dir: str
    workers: int = 2
    slice_s: float = 1.0
    slice_sleep_s: float = 0.0
    max_slice_events: int = 5_000_000
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    default_deadline_s: Optional[float] = None
    poll_period_s: float = 0.05
    health_period_s: float = 0.25
    fsync_journal: bool = True
    until_idle: bool = False
    max_runtime_s: Optional[float] = None
    #: Content-addressed result cache directory (``None`` disables
    #: caching): jobs whose spec is already cached complete without
    #: simulating, finished jobs populate the cache, and the cache's
    #: ``cache.*`` counters surface in ``health.json``.
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        for name, minimum in (("workers", 1), ("max_attempts", 1),
                              ("max_slice_events", 1)):
            if getattr(self, name) < minimum:
                raise ServiceError(
                    f"{name} must be >= {minimum}, got "
                    f"{getattr(self, name)}",
                    context={"subsystem": "service", "field": name})
        for name in ("slice_s", "poll_period_s", "health_period_s"):
            if getattr(self, name) <= 0:
                raise ServiceError(
                    f"{name} must be > 0, got {getattr(self, name)}",
                    context={"subsystem": "service", "field": name})


def backoff_delay_s(attempt: int, base_s: float,
                    max_s: float) -> float:
    """Deterministic exponential backoff: ``base * 2^(attempt-1)``,
    capped.  No jitter — reproducibility beats thundering-herd
    avoidance at this scale, and tests stay deterministic."""
    return min(max_s, base_s * (2.0 ** max(0, attempt - 1)))


def job_id_for_spec(spec_document: Dict[str, Any]) -> str:
    """Content-addressed default job id for a spec document."""
    payload = json.dumps(spec_document, sort_keys=True).encode("utf-8")
    return "job-" + hashlib.sha256(payload).hexdigest()[:16]


def submit_job(state_dir: PathLike, job: JobRequest) -> pathlib.Path:
    """Spool one job into a state directory (no service required).

    The drop is a single atomic rename, so a service scanning ``jobs/``
    can never observe a half-written job.  Duplicate ids are refused —
    results are keyed by id, and silently replacing a job would make
    "which spec does this result describe?" ambiguous.
    """
    paths = ServicePaths(state_dir).ensure()
    job_path = paths.job_path(job.job_id)
    if job_path.exists():
        raise ServiceError(
            f"job {job.job_id!r} is already submitted",
            context={"subsystem": "service", "job_id": job.job_id})
    if paths.result_path(job.job_id).exists():
        raise ServiceError(
            f"job {job.job_id!r} already has a result; pick a new id",
            context={"subsystem": "service", "job_id": job.job_id})
    return atomic_write_json(job_path, job.to_json_dict())


def next_submit_seq(state_dir: PathLike) -> int:
    """1 + the highest ``submitted_seq`` spooled so far."""
    paths = ServicePaths(state_dir)
    highest = -1
    for path in paths.list_jobs():
        try:
            job = load_job_file(path)
        except ServiceError:
            continue
        highest = max(highest, job.submitted_seq)
    return highest + 1


class SessionService:
    """The durable session service.  One instance per state directory.

    Construct, then ``asyncio.run(service.serve())`` (or let the
    ``repro serve`` CLI do it).  All mutation happens on the event
    loop; no locks.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.paths = ServicePaths(config.state_dir)
        self.metrics = MetricsRegistry()
        self.journal: Optional[Journal] = None
        #: Built by :meth:`serve`, on its own event loop.
        self._queue: Optional["asyncio.Queue[JobRequest]"] = None
        self._workers: List["asyncio.Task"] = []
        self._known: Dict[str, str] = {}
        self._in_flight: int = 0
        self._stop_requested = False
        self._journal_damage: Dict[str, Any] = {"torn_tail": False,
                                                "bad_lines": 0}
        self._started_at = 0.0
        #: Content-addressed result cache (``None``: caching off).
        #: Shares the service metrics registry so its ``cache.*``
        #: counters ride the same ``health.json`` snapshot.
        self.cache = None
        if config.cache_dir is not None:
            from ..cache import ResultCache
            self.cache = ResultCache(config.cache_dir,
                                     metrics=self.metrics)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def _terminal_count(self, *statuses: str) -> int:
        wanted = statuses or JobStatus.TERMINAL
        return sum(1 for status in self._known.values()
                   if status in wanted)

    def _all_terminal(self) -> bool:
        return (self._in_flight == 0
                and all(status in JobStatus.TERMINAL
                        for status in self._known.values()))

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    async def serve(self) -> Dict[str, Any]:
        """Run until stopped; returns a final status summary.

        Exit conditions: SIGTERM/SIGINT (:meth:`request_shutdown`),
        ``until_idle`` once the backlog is empty, or ``max_runtime_s``.
        """
        config = self.config
        self.paths.ensure()
        self.journal = Journal(self.paths.journal_path,
                               fsync=config.fsync_journal)
        self._started_at = time.monotonic()
        self._install_signal_handlers()
        self._journal_op("service_start", workers=config.workers)
        self._recover()
        self._queue = asyncio.Queue()
        self._workers = [asyncio.create_task(self._worker())
                         for _ in range(config.workers)]
        last_health = 0.0
        try:
            while True:
                self._ingest_spool()
                now = time.monotonic()
                if now - last_health >= config.health_period_s:
                    self._write_health()
                    last_health = now
                if self._stop_requested:
                    break
                if (config.until_idle and self._all_terminal()
                        and not self._scan_new_job_files()):
                    break
                if (config.max_runtime_s is not None
                        and now - self._started_at
                        >= config.max_runtime_s):
                    self._stop_requested = True
                    continue
                await asyncio.sleep(config.poll_period_s)
        finally:
            await self._shutdown()
        return self.status_summary()

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                # Non-unix platforms / nested loops: no signal stop.
                return

    def request_shutdown(self) -> None:
        """Stop: cancel in-flight jobs, keep the queue on disk.

        A cancelled job writes no result, so the next start reruns it
        from its spec.
        """
        self._stop_requested = True

    async def _shutdown(self) -> None:
        self._stop_requested = True
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        if self.cache is not None:
            self.cache.write_index()
        self._write_health(state="stopped")
        self._journal_op("service_stop",
                         done=self._terminal_count(JobStatus.DONE),
                         failed=self._terminal_count(JobStatus.FAILED),
                         rejected=self._terminal_count(
                             JobStatus.REJECTED))
        if self.journal is not None:
            self.journal.close()
            self.journal = None

    # ------------------------------------------------------------------
    # Recovery + ingest
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild in-memory state from disk after a (possibly dirty)
        start.  Results are authoritative; the journal only reports
        damage and history."""
        state = read_journal(self.paths.journal_path)
        self._journal_damage = {"torn_tail": state.torn_tail,
                                "bad_lines": state.bad_lines}
        if state.torn_tail or state.bad_lines:
            self._count("service.journal_torn_tail",
                        int(state.torn_tail))
            self._count("service.journal_bad_lines", state.bad_lines)
            self._journal_op(
                "recovery", torn_tail=state.torn_tail,
                bad_lines=state.bad_lines,
                note="journal damage tolerated; results directory is "
                     "authoritative")
        recovered = 0
        durable = {JobStatus.DONE: 0, JobStatus.FAILED: 0,
                   JobStatus.REJECTED: 0}
        for path in self.paths.list_jobs():
            job_id = path.stem
            result = load_result(self.paths, job_id)
            if result is not None:
                self._known[job_id] = result["status"]
                if result["status"] in durable:
                    durable[result["status"]] += 1
                recovered += 1
        # Seed the terminal counters from the durable results so the
        # health snapshot stays monotonic across process generations —
        # the in-memory registry died with the previous incarnation,
        # but the results directory did not.
        self._count("service.jobs_done", durable[JobStatus.DONE])
        self._count("service.jobs_failed", durable[JobStatus.FAILED])
        self._count("service.jobs_rejected",
                    durable[JobStatus.REJECTED])
        if recovered:
            self._journal_op("recovery", completed_jobs=recovered)

    def _scan_new_job_files(self) -> List[pathlib.Path]:
        return [path for path in self.paths.list_jobs()
                if path.stem not in self._known]

    def _ingest_spool(self) -> None:
        """Pick up job files not yet known, in deterministic order.

        A file the strict decoder refuses, or whose ``job_id`` is not
        its file name, is terminalized as ``rejected``: an input
        refusal, never run.
        """
        new_jobs: List[JobRequest] = []
        for path in self._scan_new_job_files():
            job_id = path.stem
            result = load_result(self.paths, job_id)
            if result is not None:
                self._known[job_id] = result["status"]
                continue
            try:
                job = load_job_file(path)
            except ServiceError as exc:
                self._terminalize(
                    job_id=job_id, status=JobStatus.REJECTED,
                    error=exc, spec={}, attempts=0)
                continue
            if job.job_id != job_id:
                self._terminalize(
                    job_id=job_id, status=JobStatus.REJECTED,
                    error=ServiceError(
                        f"job file {path.name} carries mismatched "
                        f"job_id {job.job_id!r}",
                        context={"subsystem": "service"}),
                    spec=job.spec, attempts=0,
                    submitted_seq=job.submitted_seq)
                continue
            new_jobs.append(job)
        for job in sorted(new_jobs, key=JobRequest.sort_key):
            self._admit(job)

    def _admit(self, job: JobRequest) -> None:
        self._known[job.job_id] = JobStatus.PENDING
        self._count("service.jobs_ingested")
        self._journal_op("job_ingested", job_id=job.job_id,
                         submitted_seq=job.submitted_seq)
        self._queue.put_nowait(job)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            self._in_flight += 1
            self._count("worker.jobs_dispatched")
            try:
                await self._run_job(job)
            finally:
                self._in_flight -= 1
                self._queue.task_done()

    async def _run_job(self, job: JobRequest) -> None:
        config = self.config
        self._known[job.job_id] = JobStatus.RUNNING
        last_error: Optional[BaseException] = None
        for attempt in range(1, config.max_attempts + 1):
            self._count("service.attempts")
            self._journal_op("attempt_start", job_id=job.job_id,
                             attempt=attempt)
            try:
                await self._execute(job)
            except asyncio.CancelledError:
                # Shutdown mid-job: no result was written, so the job
                # stays pending and the next start reruns it.
                self._known[job.job_id] = JobStatus.PENDING
                raise
            except Exception as exc:
                last_error = exc
                self._count("service.job_failures")
                self._journal_op(
                    "attempt_failed", job_id=job.job_id,
                    attempt=attempt,
                    error_type=type(exc).__name__,
                    error_message=str(exc))
                if attempt < config.max_attempts:
                    self._count("service.retries")
                    await asyncio.sleep(backoff_delay_s(
                        attempt, config.backoff_base_s,
                        config.backoff_max_s))
                continue
            return
        assert last_error is not None
        self._terminalize(job_id=job.job_id,
                          status=JobStatus.FAILED, error=last_error,
                          spec=job.spec,
                          attempts=config.max_attempts,
                          submitted_seq=job.submitted_seq)

    async def _execute(self, job: JobRequest) -> None:
        """One attempt: run the job from its spec to a result."""
        from ..analysis.export import json_sanitize
        from ..pipeline.spec import SessionSpec

        config = self.config
        cache_key = self._cache_key(job)
        if cache_key is not None:
            cached = self.cache.get(cache_key)
            if cached is not None:
                # Served from the content-addressed cache: the payload
                # is the byte-exact JSON round-trip of a finished run's
                # summary, so sanitizing it yields the identical result
                # document the uncached path below would have written.
                summary = json_sanitize(cached["entry"])
                written = write_result(self.paths, job.job_id,
                                       JobStatus.DONE,
                                       {"summary": summary})
                self._known[job.job_id] = JobStatus.DONE
                if written is not None:
                    self._count("service.jobs_done")
                    self._count("service.cache_hits")
                    self._journal_op("job_done", job_id=job.job_id,
                                     sim_time_s=float(
                                         job.spec.get("duration_s",
                                                      0.0) or 0.0),
                                     cached=True)
                return
        runner = SessionRunner(
            SessionSpec.from_json_dict(job.spec).to_config())
        deadline_s = job.deadline_s or config.default_deadline_s
        deadline_at = (time.monotonic() + deadline_s
                       if deadline_s is not None else None)
        while not runner.done:
            if deadline_at is not None and \
                    time.monotonic() > deadline_at:
                raise TimeoutError(
                    f"job {job.job_id!r} exceeded its deadline of "
                    f"{deadline_s:.3f}s (sim time reached "
                    f"{runner.now:.3f}s of {runner.duration_s:.3f}s)")
            slice_t0 = time.perf_counter()
            runner.advance(runner.now + config.slice_s,
                           max_events=config.max_slice_events)
            self._count("worker.slices")
            # Wall-clock spans feed only the health snapshot; nothing
            # deterministic reads them.
            self.metrics.histogram(
                "span.service_slice_seconds",
                SPAN_BUCKET_EDGES_S).observe(
                    time.perf_counter() - slice_t0)
            await asyncio.sleep(config.slice_sleep_s)
        raw = summarize_result(runner.finish())
        if cache_key is not None:
            self.cache.put(cache_key, {"entry": raw, "events": []})
        summary = json_sanitize(raw)
        written = write_result(self.paths, job.job_id, JobStatus.DONE,
                               {"summary": summary})
        self._known[job.job_id] = JobStatus.DONE
        if written is not None:
            self._count("service.jobs_done")
            self._journal_op("job_done", job_id=job.job_id,
                             sim_time_s=runner.now)

    def _cache_key(self, job: JobRequest) -> Optional[str]:
        """The job's result-cache key, or None (no cache/uncacheable)."""
        if self.cache is None:
            return None
        from ..pipeline.spec import SessionSpec
        try:
            spec = SessionSpec.from_json_dict(job.spec)
        except Exception:  # noqa: BLE001 - malformed spec: run it
            return None
        return self.cache.key_for_spec(spec, capture=False)

    def _terminalize(self, *, job_id: str,
                     status: str, error: BaseException,
                     spec: Dict[str, Any], attempts: int,
                     submitted_seq: int = 0) -> None:
        """Write a structured terminal failure/rejection result."""
        record = make_failure_record(
            index=submitted_seq,
            config=spec if spec else {"app": "?"},
            error=error, attempts=attempts)
        record["job_id"] = job_id
        written = write_result(self.paths, job_id, status,
                               {"failure": record})
        self._known[job_id] = status
        if written is None:
            return
        if status == JobStatus.FAILED:
            counter, op = "service.jobs_failed", "job_failed"
        else:
            counter, op = "service.jobs_rejected", "job_rejected"
        self._count(counter)
        self._journal_op(op, job_id=job_id,
                         error_type=record["error_type"],
                         error_message=record["error_message"],
                         attempts=attempts)

    # ------------------------------------------------------------------
    # Health + bookkeeping
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)

    def _journal_op(self, op: str, **fields: Any) -> None:
        """Journal one op; a no-op before the journal opens."""
        if self.journal is None:
            return
        self.journal.append(op, **fields)

    def status_summary(self) -> Dict[str, Any]:
        """In-memory job/queue overview (also in health)."""
        return {
            "jobs": {
                "known": len(self._known),
                "pending": sum(
                    1 for status in self._known.values()
                    if status == JobStatus.PENDING),
                "running": sum(
                    1 for status in self._known.values()
                    if status == JobStatus.RUNNING),
                "done": self._terminal_count(JobStatus.DONE),
                "failed": self._terminal_count(JobStatus.FAILED),
                "rejected": self._terminal_count(JobStatus.REJECTED),
            },
            "queue_depth": self.queue_depth,
            "in_flight": self._in_flight,
            "journal": dict(self._journal_damage),
        }

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("service.queue_depth").set(
            self.queue_depth)
        self.metrics.gauge("service.in_flight").set(self._in_flight)

    def health_document(self, state: Optional[str] = None
                        ) -> Dict[str, Any]:
        """The ``repro-health/1`` document, rendered fresh.

        ``written_unix`` and ``health_period_s`` let readers detect
        staleness (a dead service stops heartbeating but the last
        snapshot stays on disk).
        """
        self._refresh_gauges()
        return {
            "schema": HEALTH_SCHEMA,
            "state": state or ("draining" if self._stop_requested
                               else "running"),
            "ready": not self._stop_requested,
            "written_unix": round(time.time(), 6),
            "health_period_s": self.config.health_period_s,
            **self.status_summary(),
            "metrics": self.scrape_snapshot(),
        }

    def scrape_snapshot(self) -> Dict[str, Any]:
        """The service registry's snapshot."""
        return self.metrics.as_dict()

    def _write_health(self, state: Optional[str] = None) -> None:
        atomic_write_json(self.paths.health_path,
                          self.health_document(state))


# ----------------------------------------------------------------------
# Offline status (CLI `repro status` — no running service needed)
# ----------------------------------------------------------------------
def service_status(state_dir: PathLike) -> Dict[str, Any]:
    """Status assembled from the state directory alone.

    Job states derive from the durable artifacts: a result file is
    terminal, a job file without one is ``pending``.  The latest ``health.json`` snapshot
    (if any) rides along — it may be stale if no service is running.
    """
    paths = ServicePaths(state_dir)
    if not paths.state_dir.is_dir():
        raise ServiceError(
            f"state directory {paths.state_dir} does not exist",
            context={"subsystem": "service",
                     "path": str(paths.state_dir)})
    jobs: Dict[str, Dict[str, Any]] = {}
    for path in paths.list_jobs():
        job_id = path.stem
        entry: Dict[str, Any] = {"job_id": job_id}
        result = load_result(paths, job_id)
        if result is not None:
            entry["status"] = result["status"]
            failure = result.get("failure")
            if isinstance(failure, dict):
                entry["error_type"] = failure.get("error_type")
        else:
            entry["status"] = JobStatus.PENDING
        jobs[job_id] = entry
    health: Optional[Dict[str, Any]] = None
    try:
        health = json.loads(paths.health_path.read_text())
    except (OSError, ValueError):
        health = None
    health_age_s, health_stale = _health_staleness(paths, health)
    journal_state = read_journal(paths.journal_path)
    return {
        "state_dir": str(paths.state_dir),
        "jobs": [jobs[job_id] for job_id in sorted(jobs)],
        "counts": {
            status: sum(1 for entry in jobs.values()
                        if entry["status"] == status)
            for status in ("pending", "done", "failed", "rejected")},
        "journal": {"records": len(journal_state.records),
                    "torn_tail": journal_state.torn_tail,
                    "bad_lines": journal_state.bad_lines},
        "health": health,
        "health_age_s": health_age_s,
        "health_stale": health_stale,
    }


def _health_staleness(paths: ServicePaths,
                      health: Optional[Dict[str, Any]],
                      now: Optional[float] = None,
                      ) -> tuple:
    """``(age_s, stale)`` for a health snapshot.

    A snapshot claiming a live state (``running``/``draining``) whose
    heartbeat is older than ``2 × health_period_s`` is *stale*: the
    service died without writing its terminal snapshot, and the state
    on disk describes the past.  ``written_unix`` is preferred;
    snapshots predating that field fall back to the file mtime.
    """
    if health is None:
        return None, False
    now = time.time() if now is None else now
    written = health.get("written_unix")
    age_s: Optional[float] = None
    if isinstance(written, (int, float)) and not isinstance(
            written, bool):
        age_s = max(0.0, now - float(written))
    else:
        try:
            age_s = max(0.0,
                        now - paths.health_path.stat().st_mtime)
        except OSError:
            return None, False
    period = health.get("health_period_s")
    if not isinstance(period, (int, float)) or isinstance(
            period, bool) or period <= 0:
        period = 0.25
    stale = (health.get("state") != "stopped"
             and age_s > 2.0 * float(period))
    return age_s, stale

