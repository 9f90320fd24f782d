"""Host-speed sampling: time in *nominal seconds*.

A shared host's speed drifts by up to 2x within seconds as neighbours
come and go, far more than the regressions the benchmark must catch.
A workload's time tracks the time of a small fixed probe that does the
same kind of work closely, so while a run measures, :class:`Sampler`
times two probes every ``INTERVAL_S`` from a ``SIGALRM`` handler:

* ``python`` - a heap of integers and a dict, like the event loop; it
  tracks the interpreter-bound workloads best;
* ``numpy`` - gamma-decoding a small frame, like the OLED pricing and
  pixel layers; it tracks the array-bound workloads best.

:meth:`Sampler.nominal` converts a host-time interval into nominal
seconds: each slice of it is scaled by ``nominal seconds / probe
seconds`` of the probe that preceded the slice, and the probes' own
time is left out.  A nominal second is a second on a host that runs
the probe in its nominal time.  The probes are the benchmark's own
code, so they are identical for every commit compared.

The handler runs inside whatever Python frame is executing, so a
sampler must not run while layer spans are being timed.
"""

import bisect
import heapq
import signal
import time

import numpy as np

_FRAME = np.random.default_rng(0).integers(0, 256, (60, 80, 3),
                                            dtype=np.uint8)


def _python_work() -> int:
    # Integers only: the probe must not allocate the containers that
    # drive the cyclic garbage collector, or it would shift when the
    # workload's own collections run (and with them its peak memory).
    heap = []
    for i in range(1500):
        heapq.heappush(heap, (i * 7919) % 10007)
    counts = {}
    while heap:
        key = heapq.heappop(heap)
        counts[key % 97] = counts.get(key % 97, 0) + key
    return len(counts)


def _numpy_work() -> float:
    luminance = (_FRAME.astype(np.float64) / 255.0) ** 2.2
    return float(luminance.mean(axis=(0, 1)).sum())


#: Probe name -> (work, its nominal seconds: its time on an unloaded
#: 2-vCPU Xeon container with Python 3.11 and NumPy 2.4).
PROBES = {"python": (_python_work, 0.00059),
          "numpy": (_numpy_work, 0.00013)}


#: Seconds between probes.
INTERVAL_S = 0.05


class Sampler:
    """Probes the host periodically; converts host time to nominal."""

    def __init__(self) -> None:
        self.starts = []
        self.ends = []
        self.probe_s = {name: [] for name in PROBES}
        self._busy = False
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        if self._busy:  # a stalled probe outlived the interval
            return
        self._busy = True
        start = time.perf_counter()
        for name, (work, _) in PROBES.items():
            begin = time.perf_counter()
            work()
            self.probe_s[name].append(time.perf_counter() - begin)
        self.ends.append(time.perf_counter())
        self.starts.append(start)
        self._busy = False

    def start(self) -> "Sampler":
        # Python specialises a function's bytecode over its first runs
        # and NumPy sets up on first use; warm both so the first probes
        # of a fresh process time the same work as the later ones.
        for work, _ in PROBES.values():
            for _ in range(10):
                work()
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def nominal(self, begin: float, end: float, probe: str) -> float:
        """Nominal seconds in host interval ``[begin, end]``, by the
        ``probe`` named in :data:`PROBES`.

        Both ends are ``time.perf_counter()`` readings taken while the
        sampler ran (so never inside a probe).  Host time before the
        first probe is scaled by the first probe.
        """
        speeds = self.probe_s[probe]
        nominal_s = PROBES[probe][1]
        index = max(0, bisect.bisect_right(self.starts, begin) - 1)
        total = 0.0
        at = begin
        while True:
            last = index + 1 == len(self.starts)
            until = end if last else min(end, self.starts[index + 1])
            if until > at:
                total += (until - at) * nominal_s / speeds[index]
            if last or self.starts[index + 1] >= end:
                return total
            index += 1
            at = self.ends[index]
