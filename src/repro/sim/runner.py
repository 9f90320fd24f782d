"""Incremental session execution: start / advance / finish + checkpoints.

:class:`SessionRunner` splits the run-to-completion path of
:meth:`~repro.pipeline.builder.SessionBuilder.run` into resumable
steps.  The discrete-event engine makes this safe by construction:
events fire off a heap at absolute sim times, so driving the clock to
``duration_s`` in one ``run_until`` call or in a thousand slices fires
the identical event sequence — nothing in the pipeline observes slice
boundaries.  ``SessionBuilder.run()`` itself delegates here, so the
sliced path *is* the only path and cannot drift from it.

Checkpoint/resume builds on the same property plus determinism.  A
live simulator cannot be pickled (the heap holds closures over every
component), but it does not need to be: a checkpoint is the session's
:class:`~repro.pipeline.spec.SessionSpec` plus the sim time reached
plus a digest of the observable state.  Resuming rebuilds the pipeline
from the spec and deterministically replays to the checkpointed time;
the digest then *proves* the replayed state matches what was
checkpointed (wrong code version, tampered document, non-deterministic
config — anything that diverges fails the digest and raises
:class:`~repro.errors.CheckpointError` instead of silently producing
wrong results).  Because the resumed heap state equals the
uninterrupted run's heap state, the final summary is byte-identical —
the property ``tests/test_checkpoint.py`` pins at every frame
boundary.

Checkpoint document (``repro-checkpoint/1``, held in memory)::

    {
      "schema": "repro-checkpoint/1",
      "spec": { ... SessionSpec document ... },
      "sim_time_s": 12.35,
      "events_processed": 48211,
      "digest": "sha256:..."
    }

No wall-clock fields — the same session checkpointed at the same sim
time produces the same document.
"""

from __future__ import annotations

import hashlib
import struct
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

import numpy as np

from ..errors import CheckpointError, SimulationError
from ..pipeline.builder import SessionBuilder, finalize_telemetry
from .fastforward import FastForward

if TYPE_CHECKING:
    from .session import SessionConfig, SessionResult

#: Schema tag of checkpoint documents.
CHECKPOINT_SCHEMA = "repro-checkpoint/1"

#: Keys a checkpoint document carries, no more and no fewer.
_REQUIRED_KEYS = ("schema", "spec", "sim_time_s", "events_processed",
                  "digest")


class SessionRunner:
    """Drives one session incrementally: start, advance, finish.

    Construct from a :class:`~repro.sim.session.SessionConfig` (or an
    existing, possibly partially-assembled
    :class:`~repro.pipeline.builder.SessionBuilder`); the pipeline is
    assembled eagerly so attribute access (``framebuffer``, ``panel``)
    works immediately.

    Lifecycle: :meth:`start` (idempotent; :meth:`advance` auto-starts)
    -> any number of ``advance(until_s)`` calls with non-decreasing
    times -> :meth:`finish`, which stops the components, finalizes
    telemetry and returns the same
    :class:`~repro.sim.session.SessionResult` the monolithic path
    returned.  :meth:`run` does all three, and is exactly what
    ``run_session`` executes.

    Sessions the fast-forward gate admits skip V-Sync and decision
    ticks they can prove inert (:mod:`repro.sim.fastforward`); every
    output, ``events_processed`` and ``state_digest`` included, is
    byte-identical to firing each tick.
    """

    def __init__(self, source: Union["SessionConfig", SessionBuilder],
                 ) -> None:
        if isinstance(source, SessionBuilder):
            self.builder = source
        else:
            self.builder = SessionBuilder(source)
        self.builder.assemble()
        self._fast_forward = FastForward.attach(self.builder)
        self._started = False
        self._finished = False
        self._result: Optional["SessionResult"] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> "SessionConfig":
        """The session's immutable configuration."""
        return self.builder.config

    @property
    def sim(self):
        """The underlying :class:`~repro.sim.engine.Simulator`."""
        return self.builder.sim

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.builder.sim.now

    @property
    def duration_s(self) -> float:
        """Target session duration."""
        return self.builder.config.duration_s

    @property
    def started(self) -> bool:
        """True once components have been started."""
        return self._started

    @property
    def done(self) -> bool:
        """True once the clock has reached the session duration."""
        return self._started and self.now >= self.duration_s

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has produced the result."""
        return self._finished

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SessionRunner":
        """Start every component (exact monolith order); idempotent."""
        if self._started:
            return self
        builder = self.builder
        telemetry = builder.telemetry
        if telemetry is not None and telemetry.profile_spans:
            with telemetry.span("runner.start", self.now):
                self._start_components()
        else:
            self._start_components()
        self._started = True
        return self

    def _start_components(self) -> None:
        builder = self.builder
        application = builder._need(builder.application, "application")
        application.start()
        if builder.status_bar_app is not None:
            builder.status_bar_app.start()
        builder._need(builder.panel, "panel").start()
        builder._need(builder.driver, "driver").start()
        builder._need(builder.touch_source, "touch_source").start()

    def advance(self, until_s: float,
                max_events: Optional[int] = None) -> int:
        """Fire events up to sim time ``until_s`` (clamped to the
        session duration); returns the number of events fired.

        ``max_events`` bounds the slice; hitting the bound with
        eligible events still pending raises
        :class:`~repro.errors.SimulationError` (an event storm — a
        runaway self-rescheduling loop would otherwise spin forever
        inside one slice).  Times at or before ``now`` are a no-op.
        """
        if self._finished:
            raise SimulationError(
                "cannot advance a finished session runner")
        self.start()
        until_s = min(float(until_s), self.duration_s)
        if until_s <= self.now:
            return 0
        telemetry = self.builder.telemetry
        if self._fast_forward is not None:
            fired = self._fast_forward.advance(until_s, max_events)
        elif telemetry is not None and telemetry.profile_spans:
            with telemetry.span("runner.advance", self.now):
                fired = self.sim.run_until(until_s, max_events)
        else:
            fired = self.sim.run_until(until_s, max_events)
        if max_events is not None and self.now < until_s:
            raise SimulationError(
                f"event storm: slice to t={until_s:.6f}s exceeded "
                f"{max_events} events (stalled at t={self.now:.6f}s)",
                context={"subsystem": "runner", "sim_time_s": self.now,
                         "max_events": max_events})
        return fired

    def finish(self) -> "SessionResult":
        """Advance to the full duration, stop components, build the
        result.  Idempotent — later calls return the cached result."""
        if self._result is not None:
            return self._result
        from .session import SessionResult

        self.advance(self.duration_s)
        builder = self.builder
        config = builder.config
        panel = builder._need(builder.panel, "panel")
        driver = builder._need(builder.driver, "driver")
        meter = builder._need(builder.meter, "meter")
        policy = builder._need(builder.policy, "policy")
        telemetry = builder.telemetry
        if telemetry is not None and telemetry.profile_spans:
            # Recorded before finalize closes the hub, so the span
            # reaches sinks and the span.*_seconds histogram.
            with telemetry.span("runner.finish", self.now):
                driver.stop()
                panel.stop()
        else:
            driver.stop()
            panel.stop()
        if telemetry is not None:
            finalize_telemetry(telemetry, config, builder.sim,
                               panel, meter, builder.injector,
                               builder.watchdog)
        self._finished = True
        self._result = SessionResult(
            config=config,
            profile=builder.profile,
            duration_s=config.duration_s,
            governor_name=policy.name,
            metering_active=config.governor != "fixed",
            panel=panel,
            meter=meter,
            application=builder._need(builder.application,
                                      "application"),
            driver=driver,
            touch_script=builder._need(builder.touch_script,
                                       "touch_script"),
            compositions=builder._need(builder.compositions,
                                       "compositions"),
            meaningful_compositions=builder._need(
                builder.meaningful_compositions,
                "meaningful_compositions"),
            oled_tracker=builder.oled_tracker,
            status_bar_app=builder.status_bar_app,
            injector=builder.injector,
            watchdog=builder.watchdog,
            telemetry=builder.telemetry,
        )
        return self._result

    def run(self) -> "SessionResult":
        """start + advance(duration) + finish in one call."""
        return self.finish()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_digest(self) -> str:
        """``sha256:<hex>`` over the session's observable sim state.

        Hashes the framebuffer pixels, engine progress (events
        processed, clock), composition logs, panel rate history, meter
        counters and application render/content logs — everything the
        summary derives from.  Two runners holding byte-identical state
        digest identically; any divergence (different code, different
        spec, non-determinism) is detected with overwhelming
        probability.
        """
        builder = self.builder
        sha = hashlib.sha256()
        framebuffer = builder._need(builder.framebuffer, "framebuffer")
        sha.update(np.ascontiguousarray(framebuffer.pixels).tobytes())
        sha.update(struct.pack("<qd", self.sim.events_processed,
                               self.now))
        for log in (builder._need(builder.compositions, "compositions"),
                    builder._need(builder.meaningful_compositions,
                                  "meaningful_compositions")):
            sha.update(np.asarray(log.times, dtype="<f8").tobytes())
        panel = builder._need(builder.panel, "panel")
        times, values = panel.rate_history.transitions
        sha.update(np.asarray(times, dtype="<f8").tobytes())
        sha.update(np.asarray(values, dtype="<f8").tobytes())
        meter = builder._need(builder.meter, "meter")
        sha.update(struct.pack("<qqq", meter.total_frames,
                               meter.total_meaningful,
                               meter.bytes_copied))
        application = builder._need(builder.application, "application")
        for log_name in ("renders", "content_changes"):
            log = getattr(application, log_name, None)
            if log is not None:
                sha.update(np.asarray(log.times,
                                      dtype="<f8").tobytes())
        return "sha256:" + sha.hexdigest()

    def checkpoint_document(self) -> Dict[str, Any]:
        """The ``repro-checkpoint/1`` document for the current state.

        Requires a spec-expressible config (the checkpoint must carry
        everything needed to rebuild the pipeline in another process) —
        configs holding live objects a spec cannot encode raise
        :class:`~repro.errors.CheckpointError`.  The runner is started
        if it has not been, so ``sim_time_s`` reflects a consistent
        "all events <= t fired" state.
        """
        from ..pipeline.spec import SessionSpec

        if self._finished:
            raise CheckpointError(
                "cannot checkpoint a finished session",
                context={"subsystem": "checkpoint"})
        self.start()
        try:
            spec = SessionSpec.from_config(self.config)
            rebuilt = SessionSpec.from_config(spec.to_config())
        except Exception as exc:
            raise CheckpointError(
                f"session config is not spec-expressible and cannot "
                f"be checkpointed: {exc}",
                context={"subsystem": "checkpoint",
                         "error_type": type(exc).__name__}) from exc
        if rebuilt != spec:
            raise CheckpointError(
                "session spec does not round-trip; refusing to "
                "checkpoint a config that cannot be rebuilt",
                context={"subsystem": "checkpoint"})
        return {
            "schema": CHECKPOINT_SCHEMA,
            "spec": spec.to_json_dict(),
            "sim_time_s": self.now,
            "events_processed": self.sim.events_processed,
            "digest": self.state_digest(),
        }


# ----------------------------------------------------------------------
# Checkpoint documents: validate / resume
# ----------------------------------------------------------------------
def validate_checkpoint(document: Any,
                        where: str = "checkpoint") -> Dict[str, Any]:
    """Structural validation of a ``repro-checkpoint/1`` document.

    Returns the document; raises
    :class:`~repro.errors.CheckpointError` on anything malformed —
    wrong type, wrong schema tag, missing or unknown keys, or fields
    of the wrong type.  Deliberately strict: a checkpoint that cannot
    be trusted completely must not be trusted at all.
    """
    if not isinstance(document, dict):
        raise CheckpointError(
            f"{where}: expected a JSON object, got "
            f"{type(document).__name__}",
            context={"subsystem": "checkpoint", "where": where})
    schema = document.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{where}: unsupported schema {schema!r} "
            f"(expected {CHECKPOINT_SCHEMA!r})",
            context={"subsystem": "checkpoint", "where": where,
                     "schema": schema})
    missing = [key for key in _REQUIRED_KEYS if key not in document]
    unknown = [key for key in document if key not in _REQUIRED_KEYS]
    if missing or unknown:
        raise CheckpointError(
            f"{where}: missing keys {missing}, unknown keys {unknown}",
            context={"subsystem": "checkpoint", "where": where,
                     "missing": missing, "unknown": unknown})
    if not isinstance(document["spec"], dict):
        raise CheckpointError(
            f"{where}: 'spec' must be an object",
            context={"subsystem": "checkpoint", "where": where})
    for key, kinds in (("sim_time_s", (int, float)),
                       ("events_processed", (int,))):
        if not isinstance(document[key], kinds) or isinstance(
                document[key], bool):
            raise CheckpointError(
                f"{where}: {key!r} must be a number, got "
                f"{document[key]!r}",
                context={"subsystem": "checkpoint", "where": where,
                         "key": key})
    digest = document["digest"]
    if not (isinstance(digest, str) and digest.startswith("sha256:")):
        raise CheckpointError(
            f"{where}: 'digest' must be a 'sha256:<hex>' string",
            context={"subsystem": "checkpoint", "where": where})
    return document


def resume_runner(document: Dict[str, Any],
                  max_events: Optional[int] = None) -> SessionRunner:
    """Rebuild a runner from a checkpoint document and fast-forward it.

    The pipeline is reconstructed from the embedded spec and replayed
    deterministically to ``sim_time_s``; the replayed state must then
    match the checkpointed ``events_processed`` and ``digest`` exactly,
    or :class:`~repro.errors.CheckpointError` is raised (resuming from
    state that cannot be verified would risk silently wrong results).
    """
    from ..pipeline.spec import SessionSpec

    document = validate_checkpoint(document)
    try:
        spec = SessionSpec.from_json_dict(document["spec"])
        config = spec.to_config()
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint spec cannot be decoded: {exc}",
            context={"subsystem": "checkpoint",
                     "error_type": type(exc).__name__}) from exc
    runner = SessionRunner(config)
    sim_time_s = float(document["sim_time_s"])
    if sim_time_s > config.duration_s:
        raise CheckpointError(
            f"checkpoint time {sim_time_s:.6f}s exceeds session "
            f"duration {config.duration_s:.6f}s",
            context={"subsystem": "checkpoint",
                     "sim_time_s": sim_time_s})
    runner.advance(sim_time_s, max_events=max_events)
    if runner.sim.events_processed != document["events_processed"]:
        raise CheckpointError(
            f"checkpoint replay diverged: events_processed "
            f"{runner.sim.events_processed} != recorded "
            f"{document['events_processed']}",
            context={"subsystem": "checkpoint",
                     "sim_time_s": sim_time_s,
                     "replayed": runner.sim.events_processed,
                     "recorded": document["events_processed"]})
    digest = runner.state_digest()
    if digest != document["digest"]:
        raise CheckpointError(
            f"checkpoint replay diverged: state digest mismatch at "
            f"t={sim_time_s:.6f}s",
            context={"subsystem": "checkpoint",
                     "sim_time_s": sim_time_s,
                     "replayed": digest,
                     "recorded": document["digest"]})
    return runner

