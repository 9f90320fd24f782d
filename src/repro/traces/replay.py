"""Replay configs: a trace file back into a runnable session.

:func:`replay_config` rebuilds the recorded session's configuration
from the spec embedded in the trace header and swaps the workload for
the trace itself.  Two fields are forced:

* ``app`` becomes the :class:`~repro.traces.profile.TraceProfile` of
  the file — the frame source replays the capture;
* ``status_bar`` is off — the recorded frames already *contain* the
  composited overlay, so replaying it would double-draw.

Everything else — governor, seed, panel, resolution divisor, meter
budget, Monkey shape, fault plan — comes from the recorded session, so
a same-governor replay reproduces the summary byte for byte.  Pass
``governor=`` to re-meter the same frames under a different policy.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Optional

from ..errors import TraceError
from .format import PathLike, load_trace
from .profile import TraceProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.session import SessionConfig


def replay_config(path: PathLike, *,
                  governor: Optional[str] = None,
                  **overrides: Any) -> "SessionConfig":
    """The :class:`~repro.sim.session.SessionConfig` replaying ``path``.

    Keyword overrides pass through to ``dataclasses.replace`` on the
    reconstructed config (``seed=``, ``telemetry=``, ...); ``app`` and
    ``status_bar`` are owned by the replay and cannot be overridden.
    """
    from ..pipeline.spec import SessionSpec

    for forced in ("app", "status_bar"):
        if forced in overrides:
            raise TraceError(
                f"replay_config owns the {forced!r} field; it cannot "
                f"be overridden")
    trace = load_trace(path)
    spec_doc = trace.meta.get("spec")
    if not isinstance(spec_doc, dict):
        raise TraceError(
            f"trace {path} carries no source session spec; it cannot "
            f"be replayed")
    spec = SessionSpec.from_json_dict(spec_doc)
    config = spec.to_config()
    config = dataclasses.replace(
        config, app=TraceProfile(str(path)), status_bar=False,
        **overrides)
    if governor is not None:
        config = dataclasses.replace(config, governor=governor)
    return config

