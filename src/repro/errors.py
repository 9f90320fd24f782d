"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Subclasses are
grouped by subsystem to keep error handling in application code precise.

Errors optionally carry a structured ``context`` dict (subsystem, sim
time, component, ...) so supervisors — the governor watchdog, the batch
runner's failure records — can report *where* a failure hit without
parsing message strings.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    Parameters
    ----------
    args:
        Positional message arguments, exactly like :class:`Exception`.
    context:
        Optional structured failure metadata.  Conventional keys:
        ``subsystem`` (e.g. ``"meter"``), ``sim_time_s`` (when the
        failure hit on the simulation clock), ``component`` (the
        operation that failed).  Always a dict — empty when the raiser
        supplied nothing.
    """

    def __init__(self, *args: object,
                 context: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(*args)
        self.context: Dict[str, Any] = dict(context or {})


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class SpecError(ConfigurationError):
    """A serialized :class:`~repro.pipeline.spec.SessionSpec` document
    is malformed (unknown keys, wrong schema tag, undecodable field).
    Subclasses :class:`ConfigurationError` so handlers written for
    invalid configs catch spec problems too."""


class SimulationError(ReproError):
    """The simulation engine was used incorrectly (e.g. scheduling in the
    past, or running a simulator that was already finished)."""


class DisplayError(ReproError):
    """Display-hardware model misuse (e.g. requesting an unsupported
    refresh rate on a panel with a discrete level set)."""


class GraphicsError(ReproError):
    """Graphics-stack misuse (e.g. compositing surfaces whose geometry
    does not match the framebuffer)."""


class MeteringError(ReproError):
    """Content-rate metering failure (e.g. comparing framebuffers of
    different shapes, or sampling an empty grid)."""


class WorkloadError(ReproError):
    """Application-workload misuse (e.g. an unknown app name requested
    from the catalog)."""


class TelemetryError(ReproError):
    """Telemetry subsystem misuse (e.g. emitting an event kind outside
    the taxonomy, re-registering a metric under a different type, or
    summarizing an unparseable JSONL stream)."""


class TraceError(ReproError):
    """A frame-trace file is unreadable or malformed (bad magic,
    unsupported version, truncated record, inconsistent payload), or
    the trace subsystem was misused (non-monotonic frame times,
    geometry mismatch against the recording framebuffer)."""


class WorkerCrashError(ReproError):
    """A batch worker process died without returning a result (killed,
    segfaulted, or exited hard).  Raised — or recorded as a failure
    record — by the parallel batch runner; the crashed session's error
    cannot be recovered, only the fact of the crash."""


class ServiceError(ReproError):
    """Session-service misuse or internal failure (bad state directory,
    malformed job document, duplicate job id)."""


class JournalError(ServiceError):
    """The service journal is unusable beyond the tolerated crash damage
    (unwritable path, schema mismatch on a decoded record).  Torn tails
    and isolated bad lines do *not* raise — they are counted and
    reported by the tolerant reader (:func:`repro.ioutil.read_jsonl`)."""


class CheckpointError(ServiceError):
    """A checkpoint document cannot be used to resume: malformed
    document, wrong schema, spec that fails to decode, or a state digest
    that does not match the deterministically replayed state.  A caller
    reruns the session from its spec, never trusts the checkpoint
    anyway."""


class FaultInjectionError(ReproError):
    """Fault-injection subsystem misuse (e.g. an unknown fault site in
    a plan spec, or a rate outside [0, 1]).  Note: *injected* faults do
    not raise this — they raise the error type of the faulted subsystem
    (a refused panel switch is silent, a metering fault raises
    :class:`MeteringError`)."""
