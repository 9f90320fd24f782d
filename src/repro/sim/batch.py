"""Hardened parallel batch execution of sessions.

The 30-app survey is embarrassingly parallel (every session is an
independent simulation), and multi-seed replication multiplies it
further.  This module fans session configurations out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and returns
*summaries* — full :class:`SessionResult` objects hold live simulator
state (listeners, closures) that does not cross process boundaries, and
batch workflows only need the aggregate numbers anyway.

Summaries are exactly :func:`repro.analysis.export.session_summary_dict`
plus the traces the figures aggregate (binned rates and power), all
plain numpy/python data.

Parallelism and determinism
---------------------------
``run_batch(configs, workers=N)`` dispatches configs to a process pool
using the **spawn** start method by default (safe on every platform; no
reliance on fork-inherited state), grouped into chunks so pool workers
amortize their startup over many sessions.  Results are merged
deterministically: every summary lands in its config's input slot, the
batch-level metrics registry is folded in input order
(:meth:`~repro.telemetry.metrics.MetricsRegistry.merge_snapshot`), and
captured telemetry streams are interleaved on the simulation clock
(:func:`~repro.telemetry.events.interleave_streams`).  A parallel run
therefore produces output **byte-identical** to the serial path,
regardless of worker count or completion order — the property the
equivalence tests in ``tests/test_parallel_batch.py`` pin down and
``docs/performance.md`` documents.

Sessions cross the process boundary as declarative
:class:`~repro.pipeline.spec.SessionSpec` documents, and every chunk
ships the :mod:`repro.pipeline` registries' extension entries along
(:func:`_registry_plugins`), so a governor/app/panel registered in the
parent process is selectable inside spawned workers too.

Resilience
----------
One misbehaving session must never take down a 30-app × multi-seed
sweep.  Every config therefore runs *error-isolated inside its worker*:
a session that raises produces a structured **failure record** (see
:func:`make_failure_record`) in its slot of the result list instead of
poisoning the whole pool, optionally after ``retries`` re-attempts.  A
worker that *dies outright* (killed, segfault, hard exit) breaks the
shared pool; the runner then re-runs every unresolved config in a fresh
single-worker pool, so only the lethal config is recorded as a
:class:`~repro.errors.WorkerCrashError` failure and its innocent
pool-mates still complete.  Results always come back in input order,
one entry per config; use :func:`is_failure_record` to separate the two
kinds and :func:`batch_failure_summary` for the end-of-batch report.
Callers that prefer the old fail-fast behaviour pass
``on_error="raise"``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import pathlib
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..analysis.export import session_summary_dict
from ..errors import ConfigurationError, WorkerCrashError
from ..pipeline.apps import APPS
from ..pipeline.governors import GOVERNORS
from ..pipeline.panels import PANELS
from ..pipeline.spec import SessionSpec
from ..power.oled import clear_price_memo
from ..telemetry.events import interleave_streams
from ..telemetry.metrics import MetricsRegistry
from .session import SessionConfig, run_session

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cache import ResultCache

#: What one batch item looks like on the wire: ``(input slot, spec
#: document | config object)``.  Specs are the normal form (see
#: :func:`_encode_item`); the config object is the fallback for
#: configs the spec codec cannot express losslessly.
BatchItem = Tuple[int, Union[Dict, SessionConfig]]

#: Registry extension entries shipped alongside every pooled chunk:
#: ``(registry kind, ((key, factory), ...))`` pairs.  Spawned workers
#: hold only the builtin registrations; restoring these is what makes
#: a governor (or app, or panel) registered in the parent process
#: selectable inside the pool.  Factories cross the boundary by
#: pickle-by-reference, hence the module-level-factory rule in
#: :mod:`repro.pipeline.registry`.
PluginEntries = Tuple[Tuple[str, Tuple], ...]

_PLUGIN_REGISTRIES = {
    "governors": GOVERNORS,
    "apps": APPS,
    "panels": PANELS,
}

#: ``on_error`` modes of :func:`run_batch`.
ON_ERROR_CHOICES = ("record", "raise")

#: Multiprocessing start methods :func:`run_batch` accepts.  ``spawn``
#: is the default: it works on every platform and never inherits
#: parent state, so the pooled path stays correct wherever the serial
#: path is.
MP_CONTEXT_CHOICES = ("spawn", "fork", "forkserver")

#: Seconds the pool gets to prove it can start a worker at all before
#: the batch falls back to the serial path (constrained sandboxes).
_POOL_PROBE_TIMEOUT_S = 60.0


def summarize_result(result) -> Dict:
    """Plain-data summary of one finished session (summary + traces).

    The batch runner's per-session wire form, shared with the session
    service (``repro.service``) so a job completed by a worker pool and
    a job completed by the service serialize identically.
    """
    summary = session_summary_dict(result)
    centers, power = result.power_trace(bin_width_s=1.0)
    _, content = result.meaningful_compositions.binned_rate(
        0.0, result.duration_s, 1.0)
    summary["trace"] = {
        "time_s": centers.tolist(),
        "power_mw": power.tolist(),
        "content_fps": content.tolist(),
    }
    return summary


def run_session_summary(config: SessionConfig) -> Dict:
    """Run one session and return its plain-data summary.

    Module-level (picklable) so it can be a multiprocessing worker.
    """
    return summarize_result(run_session(config))


# ----------------------------------------------------------------------
# Failure records
# ----------------------------------------------------------------------

def make_failure_record(index: int,
                        config: Union[Dict, "SessionConfig"],
                        error: BaseException,
                        attempts: int) -> Dict:
    """Structured description of one failed session.

    Keys: ``batch_failed`` (always True — the discriminator), config
    identity (``config_index``, ``app``, ``governor``, ``seed``,
    ``duration_s``), the error (``error_type``, ``error_message``,
    ``context`` — the structured :class:`~repro.errors.ReproError`
    context when available), and ``attempts`` (runs consumed including
    retries).  ``config`` may be a live config or its wire-form spec
    document (a session whose spec fails to decode in a worker never
    becomes a config, but still deserves an identifiable record).
    """
    return {
        "batch_failed": True,
        "config_index": index,
        **_payload_identity(config),
        "error_type": type(error).__name__,
        "error_message": str(error),
        "context": dict(getattr(error, "context", None) or {}),
        "attempts": attempts,
    }


def is_failure_record(entry: Dict) -> bool:
    """True when a :func:`run_batch` entry is a failure record."""
    return bool(entry.get("batch_failed", False))


def batch_metrics(results: Sequence[Dict]) -> MetricsRegistry:
    """Batch-level counters under ``batch.*``, as a metrics registry.

    Counted: ``batch.sessions_total`` / ``_succeeded`` / ``_failed``,
    ``batch.retry_attempts`` (extra attempts consumed by failing
    sessions beyond their first run), ``batch.timeouts`` (failures
    whose error was the pool's per-session wall-clock budget) and
    ``batch.worker_crashes`` (failures where the worker process died).
    """
    metrics = MetricsRegistry()
    total = metrics.counter("batch.sessions_total")
    succeeded = metrics.counter("batch.sessions_succeeded")
    failed = metrics.counter("batch.sessions_failed")
    retries = metrics.counter("batch.retry_attempts")
    timeouts = metrics.counter("batch.timeouts")
    crashes = metrics.counter("batch.worker_crashes")
    for entry in results:
        total.inc()
        if not is_failure_record(entry):
            succeeded.inc()
            continue
        failed.inc()
        retries.inc(max(0, entry.get("attempts", 1) - 1))
        if entry.get("error_type") == "TimeoutError":
            timeouts.inc()
        if entry.get("error_type") == "WorkerCrashError":
            crashes.inc()
    return metrics


def batch_failure_summary(results: Sequence[Dict]) -> Dict:
    """End-of-batch report: totals plus every failure record.

    Returns ``{"total", "succeeded", "failed", "failures",
    "counters"}`` where ``failures`` preserves input order and
    ``counters`` is the :func:`batch_metrics` registry snapshot
    (flat ``batch.*`` name -> count).
    """
    failures = [r for r in results if is_failure_record(r)]
    counters = dict(batch_metrics(results).as_dict()["counters"])
    return {
        "total": len(results),
        "succeeded": len(results) - len(failures),
        "failed": len(failures),
        "failures": failures,
        "counters": counters,
    }


def batch_telemetry_summary(results: Sequence[Dict]) -> Dict:
    """Merged telemetry of every telemetered session in a batch.

    Folds the per-session ``telemetry`` blocks — event counts and
    metrics-registry snapshots — into one batch-level view, always in
    *input* order, so the merge is independent of worker count and
    completion order (counters add, gauges last-write-wins by config
    index, histograms combine; see
    :meth:`~repro.telemetry.metrics.MetricsRegistry.merge_snapshot`).
    Failure records and sessions that ran without telemetry contribute
    nothing.
    """
    blocks = [entry["telemetry"] for entry in results
              if not is_failure_record(entry) and "telemetry" in entry]
    by_kind: Dict[str, int] = {}
    registry = MetricsRegistry()
    for block in blocks:
        for kind, count in block["events"]["by_kind"].items():
            by_kind[kind] = by_kind.get(kind, 0) + count
        registry.merge_snapshot(block["metrics"])
    return {
        "sessions_with_telemetry": len(blocks),
        "events": {
            "total": sum(by_kind.values()),
            "by_kind": {kind: by_kind[kind]
                        for kind in sorted(by_kind)},
        },
        "metrics": registry.as_dict(),
    }


def format_batch_failures(results: Sequence[Dict]) -> str:
    """Human-readable end-of-batch failure summary (one line each)."""
    summary = batch_failure_summary(results)
    lines = [f"batch: {summary['succeeded']}/{summary['total']} "
             f"sessions succeeded"]
    for record in summary["failures"]:
        where = ""
        context = record["context"]
        if context:
            inside = ", ".join(f"{k}={v}" for k, v in context.items())
            where = f" [{inside}]"
        lines.append(
            f"  #{record['config_index']} {record['app']} "
            f"({record['governor']}, seed {record['seed']}): "
            f"{record['error_type']}: {record['error_message']}"
            f"{where} after {record['attempts']} attempt(s)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Spec encoding and registry shipping (the pool wire format)
# ----------------------------------------------------------------------

def _registry_plugins() -> PluginEntries:
    """Every registry's extension entries, ready to ship to workers."""
    return tuple((kind, registry.extras())
                 for kind, registry in _PLUGIN_REGISTRIES.items()
                 if registry.extras())


def _install_plugins(plugins: PluginEntries) -> None:
    """Worker side: restore shipped registry extensions (idempotent)."""
    for kind, entries in plugins:
        _PLUGIN_REGISTRIES[kind].restore(entries)


def _encode_item(index: int, config: SessionConfig) -> BatchItem:
    """One config in wire form: its declarative spec document.

    Sessions cross the process boundary as
    :class:`~repro.pipeline.spec.SessionSpec` JSON dicts — the same
    document a user could write by hand — decoded back to a config
    inside the worker (*after* registry extensions are restored, so
    extension governors validate there).  A config the codec cannot
    round-trip losslessly ships as the pickled object itself, keeping
    the pool correct for exotic configs.
    """
    try:
        document = SessionSpec.from_config(config).to_json_dict()
        if SessionSpec.from_json_dict(document).to_config() == config:
            return index, document
    except Exception:  # noqa: BLE001 - fall back to the object form
        pass
    return index, config


def _decode_item(payload: Union[Dict, SessionConfig]) -> SessionConfig:
    """Worker side: a wire payload back to a runnable config."""
    if isinstance(payload, SessionConfig):
        return payload
    return SessionSpec.from_json_dict(payload).to_config()


def _payload_identity(payload: Union[Dict, SessionConfig]) -> Dict:
    """Config identity fields for a failure record, without assuming
    the payload decodes (a spec with a bad governor never becomes a
    config)."""
    if isinstance(payload, SessionConfig):
        app = payload.app if isinstance(payload.app, str) else \
            getattr(payload.app, "name", repr(payload.app))
        return {"app": app, "governor": payload.governor,
                "seed": payload.seed, "duration_s": payload.duration_s}
    app = payload.get("app", "?")
    if isinstance(app, dict):
        app = app.get("name", "?")
    return {"app": app,
            "governor": payload.get("governor", "section+boost"),
            "seed": payload.get("seed", 0),
            "duration_s": payload.get("duration_s", 60.0)}


# ----------------------------------------------------------------------
# Isolated execution (pool workers — all module-level, picklable)
# ----------------------------------------------------------------------

def _with_capture(config: SessionConfig) -> SessionConfig:
    """The same config with a lossless telemetry capture buffer."""
    if config.telemetry is None:
        return config
    return dataclasses.replace(
        config,
        telemetry=dataclasses.replace(config.telemetry,
                                      capture_buffer=True))


def _session_payload(config: SessionConfig, capture: bool) -> Dict:
    """Run one session; return its summary plus captured events.

    Captured events drop their ``wall_s`` field: emission wall time is
    nondeterministic by nature, and scrubbing it here is what lets the
    batch's combined stream be byte-identical across runs and worker
    counts (the simulation clock, ``sim_s``, carries the ordering).
    """
    run_config = _with_capture(config) if capture else config
    result = run_session(run_config)
    events = []
    if capture:
        for event in result.telemetry_events():
            event = dict(event)
            event.pop("wall_s", None)
            events.append(event)
    return {"entry": summarize_result(result), "events": events}


def _attempt(index: int, payload: Union[Dict, SessionConfig],
             retries: int, strict: bool, capture: bool) -> Dict:
    """Run one batch item with retry/isolation semantics, in a worker.

    ``payload`` is a wire-form item (spec document or config object);
    a spec that fails to decode yields a failure record like any other
    session error.  Returns a payload (``entry`` + ``events``); in
    non-strict mode it never raises — a session that fails every
    attempt yields a failure record instead.  A deterministic
    simulation fails identically on every attempt, so retries mainly
    cover sessions made flaky by their environment (pool pressure,
    memory) — but they are honoured uniformly so callers get one knob.
    """
    try:
        config = _decode_item(payload)
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        if strict:
            raise
        return {"entry": make_failure_record(index, payload, exc,
                                             attempts=1),
                "events": []}
    error: Optional[BaseException] = None
    attempts = 0
    for attempts in range(1, retries + 2):
        try:
            return _session_payload(config, capture)
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            error = exc
    assert error is not None
    if strict:
        raise error
    return {"entry": make_failure_record(index, config, error, attempts),
            "events": []}


def _run_chunk(items: Sequence[BatchItem],
               retries: int, strict: bool, capture: bool,
               plugins: PluginEntries = ()) -> List[Dict]:
    """Pool worker: restore registry extensions, run one chunk of
    ``(index, spec-or-config)`` items."""
    _install_plugins(plugins)
    return [_attempt(index, payload, retries, strict, capture)
            for index, payload in items]


def _pool_probe() -> bool:
    """Trivial task proving the pool can start a worker at all."""
    return True


# ----------------------------------------------------------------------
# The batch runner
# ----------------------------------------------------------------------

def run_batch(configs: Sequence[SessionConfig],
              workers: Optional[int] = None,
              *,
              retries: int = 0,
              timeout_s: Optional[float] = None,
              on_error: str = "record",
              progress: Optional[Callable[[int, int, Dict], None]]
              = None,
              mp_context: str = "spawn",
              chunksize: Optional[int] = None,
              stream_path: Optional[str] = None,
              cache: Optional["ResultCache"] = None) -> List[Dict]:
    """Run many sessions, in parallel when it pays off.

    Parameters
    ----------
    configs:
        The sessions to run; results come back in the same order, one
        entry per config (summary dict or failure record).
    workers:
        Worker-process count.  ``None`` picks
        ``min(cpu_count, len(configs))``; 1 (or a single config) runs
        in-process, which is also the deterministic fallback on
        platforms where no worker process can start.  The serial path
        applies the same isolation semantics as the pool, and a
        parallel run returns summaries byte-identical to a serial one.
    retries:
        Extra attempts per failing session before recording (or
        raising) its failure.  Honoured *inside* the worker, so a retry
        costs no extra dispatch.
    timeout_s:
        Per-session wall-clock budget, enforced in pooled mode: a
        session still running after its budget yields a timeout failure
        record and the pool's worker processes are terminated once the
        batch resolves (a hung session cannot block interpreter exit).
        Forces per-session dispatch (``chunksize=1``).  Not enforceable
        in-process, so the serial path ignores it.
    on_error:
        ``"record"`` (default) turns a failing session into a
        structured failure record in its result slot; ``"raise"``
        restores fail-fast propagation of the first error.
    progress:
        Called as ``progress(done, total, entry)`` after each session
        resolves (in input order), where ``entry`` is that session's
        summary or failure record.  Drives batch progress reporting —
        the CLI prints per-session status lines from exactly this
        hook.  A raising callback propagates; keep it cheap.
    mp_context:
        Multiprocessing start method (:data:`MP_CONTEXT_CHOICES`).
        ``spawn`` (default) is safe everywhere; ``fork`` starts workers
        faster on POSIX when the parent holds no unsafe state.
    chunksize:
        Configs per pool task.  ``None`` picks ``ceil(n / (workers *
        4))`` so each worker sees ~4 chunks (amortizing startup while
        keeping the queue balanced).  Must be 1 (or ``None``) when
        ``timeout_s`` is set.
    stream_path:
        Write one combined telemetry JSONL stream for the whole batch
        to this path.  Sessions configured with telemetry capture their
        full event streams (in workers, shipped back as plain data);
        the batch interleaves them deterministically on the simulation
        clock (:func:`~repro.telemetry.events.interleave_streams`) and
        writes one file — the supported way to stream a batch, since
        per-session ``jsonl_path`` sinks sharing one path would
        overwrite each other across workers.  Sessions without
        telemetry contribute nothing.
    cache:
        A :class:`~repro.cache.ResultCache`.  Cacheable configs are
        looked up *before* dispatch — hits fill their result slots
        without running (or pooling) anything — and every freshly
        computed success is stored back on completion, write-once.
        Because sessions are deterministic, a cached batch is
        byte-identical to an uncached one (results, merged metrics
        and interleaved telemetry streams alike); only wall clock
        changes.  Failure records are never cached, and uncacheable
        configs (trace replays, JSONL-sink telemetry, lossy specs —
        see ``docs/caching.md``) simply run as usual.  ``progress``
        still fires once per config; cache hits resolve first.
    """
    configs = list(configs)
    if not configs:
        raise ConfigurationError("run_batch needs at least one config")
    if workers is None:
        workers = min(multiprocessing.cpu_count(), len(configs))
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError(
            f"timeout_s must be > 0, got {timeout_s}")
    if on_error not in ON_ERROR_CHOICES:
        raise ConfigurationError(
            f"on_error must be one of {ON_ERROR_CHOICES}, "
            f"got {on_error!r}")
    if mp_context not in MP_CONTEXT_CHOICES:
        raise ConfigurationError(
            f"mp_context must be one of {MP_CONTEXT_CHOICES}, "
            f"got {mp_context!r}")
    if chunksize is not None and chunksize < 1:
        raise ConfigurationError(
            f"chunksize must be >= 1, got {chunksize}")
    if timeout_s is not None and chunksize is not None and chunksize > 1:
        raise ConfigurationError(
            "per-session timeout_s requires per-session dispatch; "
            f"chunksize must be 1 (got {chunksize})")

    strict = on_error == "raise"
    capture = stream_path is not None
    total = len(configs)
    indexed = list(enumerate(configs))

    def _note(done: int, entry: Dict) -> None:
        if progress is not None:
            progress(done, total, entry)

    # Cache lookup before dispatch: hits fill their slots now, misses
    # keep their keys for the populate-on-completion pass below.
    slots: List[Optional[Dict]] = [None] * total
    miss_keys: Dict[int, str] = {}
    to_run = indexed
    if cache is not None:
        to_run = []
        for index, config in indexed:
            key = cache.key_for(config, capture=capture)
            if key is not None:
                hit = cache.get(key)
                if hit is not None:
                    slots[index] = hit
                    continue
                miss_keys[index] = key
            to_run.append((index, config))
    done = 0
    for index in range(total):
        if slots[index] is not None:
            done += 1
            _note(done, slots[index]["entry"])

    def _note_run(resolved: int, entry: Dict) -> None:
        _note(done + resolved, entry)

    if to_run:
        try:
            if workers == 1 or len(to_run) == 1:
                run_payloads = _run_serial(to_run, retries, strict,
                                           capture, _note_run)
            else:
                run_payloads = _run_pooled(to_run, workers, retries,
                                           timeout_s, strict, capture,
                                           mp_context, chunksize,
                                           _note_run)
        finally:
            # No memoised frame price outlives the batch that computed
            # it; a pool's workers exit with theirs.
            clear_price_memo()
        for (index, _), payload in zip(to_run, run_payloads):
            slots[index] = payload
            key = miss_keys.get(index)
            if cache is not None and key is not None and \
                    not is_failure_record(payload["entry"]):
                cache.put(key, payload)
    assert all(slot is not None for slot in slots)
    payloads = slots
    if stream_path is not None:
        _write_stream(stream_path, payloads)
    return [payload["entry"] for payload in payloads]


def _run_serial(indexed: Sequence[Tuple[int, SessionConfig]],
                retries: int, strict: bool, capture: bool,
                note: Callable[[int, Dict], None]) -> List[Dict]:
    """The in-process batch path (also the no-pool fallback)."""
    payloads: List[Dict] = []
    for index, config in indexed:
        payloads.append(_attempt(index, config, retries, strict,
                                 capture))
        note(len(payloads), payloads[-1]["entry"])
    return payloads


def _run_pooled(indexed: List[Tuple[int, SessionConfig]],
                workers: int, retries: int, timeout_s: Optional[float],
                strict: bool, capture: bool, mp_context: str,
                chunksize: Optional[int],
                note: Callable[[int, Dict], None]) -> List[Dict]:
    """Dispatch chunks to a process pool; merge results by input slot."""
    total = len(indexed)
    if timeout_s is not None:
        chunksize = 1
    elif chunksize is None:
        chunksize = max(1, math.ceil(total / (workers * 4)))
    chunks = [indexed[i:i + chunksize]
              for i in range(0, total, chunksize)]
    ctx = multiprocessing.get_context(mp_context)
    try:
        executor = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=ctx)
    except (OSError, ValueError):
        return _run_serial(indexed, retries, strict, capture, note)
    if not _probe_pool(executor):
        # Constrained sandboxes may refuse to start worker processes;
        # the batch still completes — serially, with identical
        # isolation (and identical bytes).
        return _run_serial(indexed, retries, strict, capture, note)

    plugins = _registry_plugins()
    # Keyed by *global* config index (the batch may be a cache-miss
    # subset of the full config list, so indices need not be dense).
    by_index: Dict[int, Dict] = {}
    clean = False
    try:
        # A lethal config can break the pool while later chunks are
        # still being submitted; submit() then raises
        # BrokenProcessPool itself.  Those chunks get no future and go
        # straight to the salvage path below.
        futures: List[Optional["Future[List[Dict]]"]] = []
        submit_broken = False
        for chunk in chunks:
            if submit_broken:
                futures.append(None)
                continue
            try:
                futures.append(executor.submit(
                    _run_chunk,
                    [_encode_item(index, config)
                     for index, config in chunk],
                    retries, strict, capture, plugins))
            except BrokenProcessPool:
                submit_broken = True
                futures.append(None)
        broken = False
        timed_out = False
        done = 0
        for chunk, future in zip(chunks, futures):
            if broken or future is None:
                payloads = _salvage_chunk(chunk, retries, timeout_s,
                                          strict, capture, ctx, plugins)
            else:
                try:
                    payloads = future.result(timeout_s)
                except FuturesTimeoutError:
                    timed_out = True
                    payloads = [_timeout_payload(chunk[0], timeout_s,
                                                 strict)]
                except BrokenProcessPool:
                    broken = True
                    payloads = _salvage_chunk(chunk, retries, timeout_s,
                                              strict, capture, ctx,
                                              plugins)
            for (index, _), payload in zip(chunk, payloads):
                by_index[index] = payload
                done += 1
                note(done, payload["entry"])
        clean = not (timed_out or broken or submit_broken)
    finally:
        _shutdown(executor, force=not clean)
    assert len(by_index) == total
    return [by_index[index] for index, _ in indexed]


def _probe_pool(executor: ProcessPoolExecutor) -> bool:
    """True when the pool can actually start a worker."""
    try:
        return executor.submit(_pool_probe).result(
            _POOL_PROBE_TIMEOUT_S)
    except (BrokenProcessPool, FuturesTimeoutError, OSError):
        _shutdown(executor, force=True)
        return False


def _timeout_payload(item: Tuple[int, SessionConfig],
                     timeout_s: Optional[float],
                     strict: bool) -> Dict:
    """Failure payload (or fail-fast raise) for a timed-out session."""
    index, config = item
    record = make_failure_record(
        index, config,
        TimeoutError(f"session exceeded {timeout_s:g} s"),
        attempts=1)
    if strict:
        raise TimeoutError(
            f"session #{index} ({record['app']}) exceeded "
            f"{timeout_s:g} s")
    return {"entry": record, "events": []}


def _salvage_chunk(chunk: Sequence[Tuple[int, SessionConfig]],
                   retries: int, timeout_s: Optional[float],
                   strict: bool, capture: bool, ctx,
                   plugins: PluginEntries = ()) -> List[Dict]:
    """Re-run a chunk after the shared pool broke.

    Each config gets its own fresh single-worker pool: innocent
    sessions that merely shared the pool with a lethal one complete
    normally, while a config that kills its worker *again* is recorded
    as a :class:`~repro.errors.WorkerCrashError` failure (or raised,
    in fail-fast mode) without taking anything else down.
    """
    payloads = []
    for index, config in chunk:
        rescue = ProcessPoolExecutor(max_workers=1, mp_context=ctx)
        crashed = False
        try:
            future = rescue.submit(_run_chunk,
                                   [_encode_item(index, config)],
                                   retries, strict, capture, plugins)
            try:
                payloads.append(future.result(timeout_s)[0])
            except FuturesTimeoutError:
                crashed = True
                payloads.append(_timeout_payload((index, config),
                                                 timeout_s, strict))
            except BrokenProcessPool:
                crashed = True
                error = WorkerCrashError(
                    f"worker process died running session #{index}",
                    context={"subsystem": "batch",
                             "config_index": index})
                if strict:
                    raise error from None
                payloads.append({
                    "entry": make_failure_record(index, config, error,
                                                 attempts=1),
                    "events": [],
                })
        finally:
            _shutdown(rescue, force=crashed)
    return payloads


def _shutdown(executor: ProcessPoolExecutor, force: bool) -> None:
    """Release a pool; ``force`` also terminates its worker processes.

    Forcing mirrors ``multiprocessing.Pool.terminate``: after a
    timeout or crash the pool may still hold a running (possibly hung)
    session, and a plain shutdown — or interpreter exit — would block
    on it.  Terminating the workers is safe here because every
    unresolved config already has its failure record.
    """
    executor.shutdown(wait=not force, cancel_futures=force)
    if force:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()


def _write_stream(stream_path, payloads: Sequence[Dict]) -> pathlib.Path:
    """Write the batch's interleaved telemetry stream as JSONL.

    Atomic (temp file + rename): an interrupt mid-write never leaves a
    truncated stream at the destination path.
    """
    from ..ioutil import atomic_write_text

    events = interleave_streams([payload["events"]
                                 for payload in payloads])
    lines = [json.dumps(event, sort_keys=True) for event in events]
    text = "".join(line + "\n" for line in lines)
    return atomic_write_text(pathlib.Path(stream_path), text)
