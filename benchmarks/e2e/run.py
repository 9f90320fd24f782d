#!/usr/bin/env python3
"""End-to-end benchmark of the display-energy simulator.

Run one workload per process from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload catalog30 --seed 1
    python3 benchmarks/e2e/run.py --workload native --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --workload tournament --seed 1 --smoke

The harness imports the package from ``src/`` of the checkout it sits
in, builds the workload's inputs from ``--seed``, sets up (import,
inputs, one 2 s warm-up session), then runs whole timed iterations
until ``--seconds`` would be exceeded (at least three, so each
session's time is a median of repeats).  Every iteration repeats the
same sessions, and every session is checked, also byte for byte
against its first run.  It prints:

* with ``--trace 0``, the end-to-end metrics of ``BENCHMARK.json``;
* with ``--trace 1``, one untraced iteration followed by traced ones,
  the per-layer ledger of ``BENCHMARK.json`` and a Chrome-trace
  timeline in ``benchmarks/e2e/out/<workload>.trace.json``.

The second-to-last line of standard output is the full report (JSON
with a ``"benchmark"`` key, read by ``compare.py``); the last line is
``{"correct", "attempted", "failed", "metrics"}``.  End-to-end times
are host time in nominal seconds (see ``hostspeed.py``); per-layer
times are plain host seconds.  Simulated time appears only as the
numerator of ``sim_s_per_s``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402  (setup time is measured from START)
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
REPORT_SCHEMA = "repro-e2e/1"
#: Extra processes that repeat set-up so ``setup_s`` is a median of 5.
SETUP_PROBES = 4
#: Repeats of every session in a full run, so per-session medians hold.
MIN_ITERATIONS = 3
#: A smoke run still repeats once, for the byte-identity check.
SMOKE_ITERATIONS = 2


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from None


def parse_args(argv, contract: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="timed budget per run (default: run_seconds "
                             "of BENCHMARK.json); compare.py refuses to "
                             "mix runs of different budgets")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report the per-layer ledger instead of "
                             "end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="3 apps, 2 s sessions, 2 iterations")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def bootstrap() -> None:
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'repro'}; run the benchmark "
                         f"from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro
    location = pathlib.Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SetupError(f"imported repro from {location}, not {SRC}")


def probe_setup(args) -> float:
    """Set up once more in a fresh process; its set-up seconds."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=False)
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_iterations(workload, seconds: float, minimum: int):
    """At least ``minimum`` whole iterations, then more while the next
    one (as long as the median so far) fits in ``seconds``.  Only the
    first keeps its outputs once checked."""
    iterations = []
    spent = 0.0
    while len(iterations) < minimum or spent + statistics.median(
            it.wall_s for it in iterations) <= seconds:
        # Sessions leave reference cycles holding frame buffers; collect
        # them untimed so each iteration starts alike and peak memory
        # does not grow with the number of iterations.
        gc.collect()
        iterations.append(workload.run_once())
        spent += iterations[-1].wall_s
        if len(iterations) > 1:
            iterations[-1].drop_outputs()
    return iterations


def tally(iterations):
    """``(attempted, failed, problems)`` over every session run.

    A session fails when it failed a check or when its output differs
    from the same session in the first iteration.
    """
    first = iterations[0].records
    failed = 0
    problems = []
    for number, iteration in enumerate(iterations, start=1):
        for index, record in enumerate(iteration.records):
            problem = iteration.failed.get(index)
            if problem is None and record != first[index]:
                problem = "output differs from iteration 1"
            if problem is not None:
                failed += 1
                problems.append(f"iteration {number} session {index}: "
                                f"{problem}")
    attempted = sum(len(it.records) for it in iterations)
    return attempted, failed, problems


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile.

    A weighted mean of all order statistics, the ``i``-th weighted by
    the mass a Beta(p(n+1), (1-p)(n+1)) density puts on ranks
    ((i-1)/n, i/n].  Sessions of a workload fall into clusters (fixed
    vs governed, app vs game), and a single order statistic jumps
    across the gap between two clusters when the seed moves a few
    sessions; the weighted mean moves smoothly.  The density is
    integrated with a 16-point midpoint rule per rank, in log space so
    it cannot underflow.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 16 * n
    grid = [(step + 0.5) / steps for step in range(steps)]
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in grid]
    top = max(logs)
    weights = [0.0] * n
    for step, log_density in enumerate(logs):
        weights[step * n // steps] += math.exp(log_density - top)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def session_costs(iterations, nominal):
    """Nominal seconds of each session: the median over its repeats.

    ``nominal(begin, end)`` converts a host interval.  Every iteration
    repeats the same sessions, so noise the host-speed scaling misses
    slows a minority of each session's repeats, and the median drops
    it.  A call without a per-session hook shares its time equally.
    """
    repeats = []
    for iteration in iterations:
        marks = [iteration.start] + iteration.ends
        times = [nominal(a, b) for a, b in zip(marks, marks[1:])]
        count = len(iteration.records)
        if len(times) != count:
            times = [sum(times) / count] * count
        repeats.append(times)
    return [statistics.median(session) for session in zip(*repeats)]


def end_to_end(iterations, setups, peak_mb, nominal):
    """The end-to-end metrics and the sample counts behind them."""
    costs = session_costs(iterations, nominal)
    metrics = {
        "sim_s_per_s": iterations[0].sim_s / sum(costs),
        "session_ms_p50": 1e3 * quantile(costs, 0.5),
        "session_ms_p90": 1e3 * quantile(costs, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
    }
    samples = {"iterations": len(iterations), "sessions": len(costs),
               "setup_s": len(setups),
               "iteration_nominal_s": [nominal(it.start, it.ends[-1])
                                       for it in iterations]}
    return metrics, samples


def per_layer(tracer, traced, untraced):
    """The per-layer ledger, per traced iteration, plus workload
    properties on the simulation clock and the tracing overhead."""
    from layers import OTHER
    from workloads import simulated_properties

    wall = sum(it.wall_s for it in traced)
    ledger = tracer.ledger(wall)
    metrics = {}
    for layer, row in ledger.items():
        metrics[f"{layer}.self_s"] = row["self_s"] / len(traced)
        if layer != OTHER:
            metrics[f"{layer}.calls"] = row["calls"] / len(traced)
        metrics[f"{layer}.share"] = row["share"]
    first = traced[0]
    metrics.update(simulated_properties(
        [s for i, s in enumerate(first.sessions) if i not in first.failed]))
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(it.wall_s for it in traced)
        / statistics.median(it.wall_s for it in untraced) - 1.0)
    return metrics, ledger, wall


def format_ledger(ledger, wall: float) -> str:
    lines = [f"{'layer':<22}{'self s':>10}{'calls':>12}{'share':>8}"]
    for layer, row in sorted(ledger.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{layer:<22}{row['self_s']:>10.3f}{row['calls']:>12d}"
                     f"{100 * row['share']:>7.1f}%")
    lines.append(f"{'traced wall':<22}{wall:>10.3f}")
    return "\n".join(lines)


def measure_end_to_end(args, workload, nominal, setup_s, budget, report):
    """Untraced iterations, timed in nominal seconds."""
    setups = [setup_s]
    if not args.smoke:
        setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
    minimum = SMOKE_ITERATIONS if args.smoke else MIN_ITERATIONS
    iterations = run_iterations(workload, budget, minimum)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, report["samples"] = end_to_end(iterations, setups, peak_mb,
                                            nominal)
    return iterations, iterations[0].digest, metrics


def measure_layers(args, workload, budget, report):
    """One untraced iteration, then traced ones for the rest."""
    from layers import Tracer, layer_targets

    untraced = run_iterations(workload, 0.0, 1)
    tracer = Tracer(layer_targets())
    with tracer:
        traced = run_iterations(workload, budget - untraced[0].wall_s, 1)
    metrics, ledger, wall = per_layer(tracer, traced, untraced)
    print(format_ledger(ledger, wall))
    path = tracer.write_chrome_trace(OUT_DIR / f"{args.workload}.trace.json")
    report["timeline"] = str(path.relative_to(ROOT))
    return untraced + traced, traced[0].digest, metrics


def main(argv=None) -> int:
    contract = load_contract()
    args = parse_args(argv, contract)
    # The probe's signal handler would land inside layer spans, so a
    # traced run keeps plain host time.
    sampler = None if args.trace else hostspeed.Sampler().start()
    try:
        return measure(args, contract, sampler)
    finally:
        if sampler is not None:
            sampler.stop()


def measure(args, contract, sampler) -> int:
    bootstrap()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workload.warm_up()
    set_up = time.perf_counter()
    if sampler is not None:
        nominal = functools.partial(sampler.nominal,
                                    probe=workload.speed_probe)
    if args.setup_probe:
        print(json.dumps({"setup_s": nominal(START, set_up)}))
        return 0

    report = {"benchmark": REPORT_SCHEMA, "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "trace": bool(args.trace)}
    # A smoke run makes its minimum iterations and no more.
    budget = 0.0 if args.smoke else args.seconds
    if args.trace:
        spec = contract["per_layer"]
        iterations, digest, metrics = measure_layers(args, workload, budget,
                                                     report)
    else:
        spec = contract["end_to_end"]
        iterations, digest, metrics = measure_end_to_end(
            args, workload, nominal, nominal(START, set_up), budget, report)

    expected = [m["name"] for m in spec]
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(expected)}")
    units = {m["name"]: m["unit"] for m in spec}
    attempted, failed, problems = tally(iterations)
    reference = json.loads((HERE / "reference.json").read_text())
    report.update({
        "output_sha256": digest,
        "iteration_wall_s": [it.wall_s for it in iterations],
        "sessions_timed": attempted,
        "failed_frac": failed / attempted,
        "problems": problems[:10],
        "table1_err_pp": workload.table1_err_pp(iterations[0],
                                                reference["table1"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in expected},
    })
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
