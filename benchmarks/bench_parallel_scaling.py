"""Parallel batch scaling — serial vs pooled execution of one sweep.

No paper figure — this benchmarks the execution engine added for the
reproduction itself (see docs/performance.md).  Shapes asserted:

* a pooled run returns *byte-identical* summaries to the serial run —
  the determinism guarantee that makes ``--workers`` safe to use for
  every figure;
* failure records stay per-config under parallelism (a poisoned app
  name costs exactly one slot);
* the merged batch-level telemetry equals the input-order fold of the
  per-session blocks.

Wall-clock scaling itself is *not* asserted — this suite runs on
whatever machine hosts it (often a 1-2 core CI box where the pool
can't win), so no scaling number is gated anywhere.  The table
published here records the observed timings for the curious.
"""

import json
import multiprocessing
import time

from repro.analysis.tables import format_table
from repro.sim.batch import (
    batch_telemetry_summary,
    is_failure_record,
    run_batch,
)
from repro.sim.session import SessionConfig
from repro.telemetry import TelemetryConfig

from conftest import publish

APPS = ("Facebook", "Auction", "KakaoTalk", "Naver")


def _configs(n=8, duration_s=10.0):
    return [SessionConfig(app=APPS[i % len(APPS)],
                          governor="section+boost",
                          duration_s=duration_s, seed=i,
                          telemetry=TelemetryConfig(
                              profile_spans=False))
            for i in range(n)]


def test_parallel_scaling_reproduction(benchmark):
    configs = _configs()
    workers = min(multiprocessing.cpu_count(), 4)

    t0 = time.perf_counter()
    serial = run_batch(configs, workers=1)
    serial_s = time.perf_counter() - t0

    def pooled():
        t0 = time.perf_counter()
        results = run_batch(configs, workers=workers,
                            mp_context="fork")
        return results, time.perf_counter() - t0

    (parallel, parallel_s) = benchmark.pedantic(pooled, rounds=1,
                                                iterations=1)

    # The determinism guarantee, end to end.
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(parallel, sort_keys=True)
    assert not any(is_failure_record(r) for r in parallel)

    merged = batch_telemetry_summary(parallel)
    assert merged["sessions_with_telemetry"] == len(configs)
    assert merged["events"]["total"] == sum(
        entry["telemetry"]["events"]["total"] for entry in serial)

    rows = [["serial (workers=1)", f"{serial_s:.2f}", "1.00"],
            [f"pooled (workers={workers})", f"{parallel_s:.2f}",
             f"{serial_s / parallel_s:.2f}" if parallel_s else "-"]]
    publish("parallel_scaling", format_table(
        ["execution", "wall s", "speedup x"], rows,
        title=f"Parallel batch scaling: {len(configs)} sessions on "
              f"{multiprocessing.cpu_count()} cpu(s) "
              f"(identical output asserted)"))


def test_poisoned_config_costs_one_slot_under_parallelism():
    configs = _configs(n=4, duration_s=5.0)
    configs[1] = SessionConfig(app="NoSuchApp", duration_s=5.0)
    results = run_batch(configs, workers=2, mp_context="fork")
    assert [is_failure_record(r) for r in results] == \
        [False, True, False, False]
    assert results[1]["error_type"] == "WorkloadError"
