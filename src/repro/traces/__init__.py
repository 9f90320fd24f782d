"""Frame-trace record/replay: captured framebuffer streams as workloads.

The paper's evaluation is "offline frame analysis": every number comes
from the sequence of frames the display pipeline actually produced.
This package makes that sequence a first-class artifact —

* :mod:`~repro.traces.format` — the ``repro-trace/1`` binary container:
  per-frame dirty-rect + run-length-encoded deltas exploiting the frame
  coherence of real UI content (consecutive frames are mostly equal);
* :mod:`~repro.traces.recorder` — :class:`TraceRecorder` taps the
  framebuffer during any session and captures the exact frame stream
  the content-rate meter saw;
* :mod:`~repro.traces.source` — :class:`TraceFrameSource`, an
  application that replays a trace through the normal compositor path,
  so a recorded trace runs under any governor via ``repro run``,
  ``run_batch`` at any worker count, and the experiments;
* :mod:`~repro.traces.replay` — config helpers guaranteeing the
  headline property: record a session, replay it under the same
  governor, and the session summary is byte-identical;
* :mod:`~repro.traces.synth` — synthetic video / scroll / idle traces
  for tests and benchmarks.

Submodules load lazily (PEP 562) so that low-level layers — the
pipeline registries, the spec codec — can import the trace profile
type without dragging in the whole replay stack, and without import
cycles.
"""

from __future__ import annotations

import importlib
from typing import List

#: Public name -> defining submodule (resolved on first attribute use).
_EXPORTS = {
    "TRACE_MAGIC": "format",
    "TRACE_SCHEMA": "format",
    "TRACE_VERSION": "format",
    "FrameRecord": "format",
    "FrameTrace": "format",
    "TraceBuilder": "format",
    "load_trace": "format",
    "rle_decode": "format",
    "rle_encode": "format",
    "save_trace": "format",
    "TraceProfile": "profile",
    "TRACE_APP_PREFIX": "profile",
    "TraceRecorder": "recorder",
    "record_session": "recorder",
    "TraceFrameSource": "source",
    "register_trace": "source",
    "replay_config": "replay",
    "SYNTH_KINDS": "synth",
    "synthetic_trace": "synth",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
