"""The workload-side identity of a trace: :class:`TraceProfile`.

A :class:`~repro.sim.session.SessionConfig` identifies its workload by
a registry name or a profile object; a trace workload is identified by
the trace *file path*.  :class:`TraceProfile` is that identity — a tiny
frozen dataclass holding only the path, so two configs replaying the
same file compare equal, specs round-trip losslessly, and batch workers
receive nothing heavier than a string.  The trace itself loads lazily
(and is cached per file state) the first time the pipeline needs it.

This module deliberately imports almost nothing: the pipeline
registries and the spec codec import it at module level, so it must
never pull the replay stack (or the pipeline) back in at import time.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Union

from ..errors import TraceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..apps.profile import AppProfile
    from .format import FrameTrace

#: String-form trace workload: ``"trace:<path>"`` anywhere an app name
#: is accepted (CLI ``--app``, specs, the batch wire format).
TRACE_APP_PREFIX = "trace:"


@dataclass
class _Entry:
    """One decoded trace file and, once asked for, its embedded
    profile.  Both live and die together: a file change replaces the
    whole entry."""

    signature: Tuple[int, int, int]
    trace: "FrameTrace"
    profile: Optional["AppProfile"] = None


#: path -> entry for the file state ``(inode, mtime_ns, size)``; an
#: atomic rewrite always changes the inode, so it always invalidates.
_CACHE: Dict[str, _Entry] = {}


@dataclass(frozen=True)
class TraceProfile:
    """A trace-backed workload, identified by its file path.

    Equality and hashing are by path alone — the identity a config
    carries across process and serialization boundaries.
    """

    path: str

    def load(self) -> "FrameTrace":
        """The decoded trace (cached until the file changes on disk)."""
        return self._entry().trace

    def _entry(self) -> _Entry:
        from .format import load_trace

        key = str(self.path)
        try:
            stat = pathlib.Path(key).stat()
            signature = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
        except OSError as exc:
            raise TraceError(
                f"cannot read trace {key}: {exc}") from None
        cached = _CACHE.get(key)
        if cached is not None and cached.signature == signature:
            return cached
        entry = _Entry(signature, load_trace(key))
        _CACHE[key] = entry
        return entry

    def as_app_profile(self) -> "AppProfile":
        """The source application's profile, embedded at record time.

        Replay sessions resolve to the *original* profile, so every
        profile-derived quantity — power model parameters, Monkey
        interaction hints, the summary's app name and category — is
        identical to the recorded session's.  It is decoded once per
        decoded trace; a decode error is raised again on every call.
        """
        entry = self._entry()
        if entry.profile is None:
            entry.profile = decode_trace_profile(entry.trace.meta,
                                                 str(self.path))
        return entry.profile


def evict_traces_under(directory: Union[str, pathlib.Path]) -> None:
    """Drop every cached trace whose path lies inside ``directory``
    (for a caller about to delete the directory)."""
    root = pathlib.Path(directory)
    for key in [key for key in _CACHE
                if pathlib.Path(key).is_relative_to(root)]:
        del _CACHE[key]


def decode_trace_profile(meta: Mapping[str, Any],
                         origin: str) -> "AppProfile":
    """The :class:`~repro.apps.profile.AppProfile` embedded in trace
    ``meta``; raises :class:`~repro.errors.TraceError` when absent or
    undecodable."""
    from ..apps.profile import AppProfile
    from ..errors import SpecError
    from ..pipeline.spec import decode_dataclass

    fields = meta.get("profile")
    if not isinstance(fields, Mapping):
        raise TraceError(
            f"trace {origin} carries no source app profile; it cannot "
            f"be replayed as a workload")
    try:
        return decode_dataclass(AppProfile, dict(fields),
                                "trace profile")
    except SpecError as exc:
        raise TraceError(
            f"trace {origin} has an undecodable app profile: "
            f"{exc}") from None
