"""Per-layer tracing from outside the program.

The traced run wraps the public methods of each pipeline layer with a
timing shim installed from this file, so the simulator itself carries
no instrumentation.  Every call lands in two aggregate counters of its
layer (self seconds and call count).  Full span records (layer, start,
end, session) are kept only for the first ``KEEP_SESSIONS`` sessions,
which bounds memory: the idle workload alone makes millions of wrapped
calls.

Self time is a span's duration minus the durations of the spans nested
directly inside it, so the self times of all layers sum to the time
spent inside outermost spans, and ``other`` (traced wall time minus that
sum) closes the ledger exactly.
"""

from __future__ import annotations

import functools
import json
import pathlib
import time
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The ledger row for time spent outside every wrapped call.
OTHER = "other"
#: Sessions whose full span records are kept for the timeline.
KEEP_SESSIONS = 2

Target = Tuple[type, str]


def family(root: type) -> List[type]:
    """``root`` and every subclass of it, found recursively."""
    seen: List[type] = []
    pending = [root]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


def owner_of(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose ``__dict__`` defines ``name``."""
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


def layer_targets() -> Dict[str, List[Target]]:
    """The public methods each layer is measured through.

    Class families are resolved at call time, after
    :mod:`repro.governors` has registered the zoo, so subclasses that
    exist (or no longer exist) are picked up without naming them.
    """
    import repro.governors  # noqa: F401  (registers the zoo classes)
    from repro.apps.base import Application
    from repro.core.content_rate import ContentRateMeter
    from repro.core.double_buffer import DoubleBuffer, SampledDoubleBuffer
    from repro.core.governor import GovernorPolicy
    from repro.core.grid import GridComparator
    from repro.graphics.compositor import SurfaceManager
    from repro.graphics.framebuffer import Framebuffer
    from repro.graphics.renderers import Renderer
    from repro.pipeline.builder import SessionBuilder
    from repro.power.model import PowerModel
    from repro.power.oled import OledModel
    from repro.sim.engine import Simulator
    from repro.sim.runner import SessionRunner
    from repro.traces.source import TraceFrameSource

    def methods(classes: Iterable[type], *names: str) -> List[Target]:
        found: List[Target] = []
        for cls in classes:
            for name in names:
                target = (owner_of(cls, name), name)
                if target not in found:
                    found.append(target)
        return found

    return {
        "core.grid": methods([GridComparator], "frames_equal",
                             "count_changed"),
        "graphics.renderers": methods(family(Renderer), "render"),
        "graphics.compositor": methods([SurfaceManager], "on_vsync"),
        "graphics.framebuffer": methods([Framebuffer], "write",
                                        "write_unchanged"),
        "core.double_buffer": methods([DoubleBuffer, SampledDoubleBuffer],
                                      "capture"),
        "power.oled": methods([OledModel], "frame_power_mw"),
        "core.governor": methods(family(GovernorPolicy), "select_rate",
                                 "on_touch"),
        "core.content_rate": methods([ContentRateMeter], "content_rate"),
        "traces.source": methods([TraceFrameSource], "on_vsync"),
        "apps.base": methods([Application], "on_vsync"),
        "sim.engine": methods([Simulator], "run_until"),
        "sim.runner": methods(family(SessionRunner), "advance"),
        "pipeline.builder": methods([SessionBuilder], "assemble"),
        "power.model": methods([PowerModel], "evaluate", "power_trace"),
    }


class Tracer:
    """Aggregate per-layer counters plus bounded span records.

    ``install`` swaps each target method for a timing wrapper;
    ``uninstall`` puts the original ``__dict__`` entries back.  Use it
    as a context manager so the program is restored even when a traced
    iteration raises.
    """

    def __init__(self, targets: Dict[str, Sequence[Target]],
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.targets = targets
        self.clock = clock
        self.names = list(targets)
        #: ``[self_s, calls]`` per layer, indexed like ``names``.
        self.stats: List[List[float]] = [[0.0, 0] for _ in self.names]
        #: ``(layer index, start, end, session id)`` of kept sessions.
        self.spans: List[Tuple[int, float, float, int]] = []
        #: Session id -> ``"app/governor"`` label, for every session
        #: minted; ids count up from 1 and are never reused.
        self.session_labels: Dict[int, str] = {}
        self.session = 0
        self.recording = False
        self._stack: List[float] = []
        self._session_ids: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        self._saved: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # Session attribution
    # ------------------------------------------------------------------
    def enter_session(self, session: int) -> None:
        self.session = session
        self.recording = 0 < session <= KEEP_SESSIONS

    def _on_assemble(self, builder) -> None:
        """Mint a session id the first time a builder assembles."""
        if builder not in self._session_ids:
            session = len(self.session_labels) + 1
            self._session_ids[builder] = session
            self.session_labels[session] = \
                f"{builder.profile.name}/{builder.config.governor}"
        self.enter_session(self._session_ids[builder])

    def _on_advance(self, runner) -> None:
        """Attribute what follows to the runner's session.

        Sticky on purpose: the summary built after a runner's final
        advance (power model evaluation) belongs to that session too,
        also when a batch engine interleaves several runners.
        """
        session = self._session_ids.get(runner.builder)
        if session is not None:
            self.enter_session(session)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, index: int,
              before: Optional[Callable] = None) -> Callable:
        stat = self.stats[index]
        stack = self._stack
        clock = self.clock
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args[0])
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stat[0] += duration - stack.pop()
                stat[1] += 1
                if stack:
                    stack[-1] += duration
                if tracer.recording:
                    spans.append((index, start, end, tracer.session))

        return wrapper

    def install(self) -> "Tracer":
        hooks = {"pipeline.builder": self._on_assemble,
                 "sim.runner": self._on_advance}
        for index, name in enumerate(self.names):
            for owner, attr in self.targets[name]:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr,
                        self._wrap(original, index, hooks.get(name)))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def ledger(self, wall_s: float) -> Dict[str, Dict[str, float]]:
        """``{layer: {self_s, calls, share}}`` plus ``other``.

        ``other`` is ``wall_s`` minus the summed self times: the time
        spent outside every wrapped call.
        """
        table: Dict[str, Dict[str, float]] = {}
        for name, (self_s, calls) in zip(self.names, self.stats):
            table[name] = {"self_s": self_s, "calls": calls,
                           "share": self_s / wall_s if wall_s else 0.0}
        other = wall_s - sum(self_s for self_s, _ in self.stats)
        table[OTHER] = {"self_s": other, "calls": 0,
                        "share": other / wall_s if wall_s else 0.0}
        return table

    def chrome_trace(self) -> Dict:
        """Kept spans as Chrome trace-event JSON (Perfetto loads it).

        One thread lane per session; each complete event carries its
        span id, its parent's span id (-1 at the top) and its session.
        """
        origin = min((start for _, start, _, _ in self.spans), default=0.0)
        ordered = sorted(range(len(self.spans)),
                         key=lambda i: (self.spans[i][3],
                                        self.spans[i][1],
                                        -self.spans[i][2]))
        events = []
        open_spans: List[int] = []
        for span_id in ordered:
            index, start, end, session = self.spans[span_id]
            while open_spans and (
                    self.spans[open_spans[-1]][3] != session
                    or self.spans[open_spans[-1]][2] < end):
                open_spans.pop()
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(span_id)
            events.append({
                "name": self.names[index], "cat": "layer", "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1, "tid": session,
                "args": {"id": span_id, "parent": parent,
                         "session": session},
            })
        for session, label in sorted(self.session_labels.items()):
            if session <= KEEP_SESSIONS:
                events.append({"name": "thread_name", "ph": "M", "pid": 1,
                               "tid": session,
                               "args": {"name": f"session {session}: "
                                                f"{label}"}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: pathlib.Path) -> pathlib.Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))
        return path
