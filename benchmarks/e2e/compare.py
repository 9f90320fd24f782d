#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

Run alternating pairs (the first side alternates, so drift on the
machine hits both sides alike), then compare::

    python3 benchmarks/e2e/compare.py run PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --out pairs/ --pairs 10 --seed 1
    python3 benchmarks/e2e/compare.py pairs/parent pairs/change

Both checkouts must hold identical ``benchmarks/e2e`` files, so both
sides are measured by the same benchmark code.  Every pair runs at the
one ``--seed``, so the two sides differ only by the code under test
and the host's noise.  A run file is the standard output of ``run.py``;
its report line carries the workload, seed, budget and metrics.  Pair
``i`` of a workload is the ``i``-th run (in file-name order) of each
side at the same seed.

Each workload x end-to-end metric row shows both sides' median and
quartiles, the share of pairs the change won (ties count for neither)
and a verdict, with the bounds of ``BENCHMARK.json``:

* improved   - the change wins at least 9/10 of pairs and the medians
  differ, in its favour, by more than the parent's interquartile range;
* regressed  - the change's median is worse by more than the bound
  (and the spread is within the bound, or every change run is worse
  than every parent run);
* unresolved - a side's spread (IQR / median) is wider than the bound
  and the change does not beat the parent on every run;
* no worse   - otherwise.

Two rows per workload gate the outputs rather than the speed:

* ``failed sessions`` regresses when the change fails more sessions.
  It notes, without failing, any pair whose ``output_sha256`` differs:
  a change that fixes the simulator may change its outputs;
* ``table1_err_pp`` (``catalog30`` only) regresses when any pair's
  Table 1 error rises by more than 0.01 percentage points.  Both sides
  of a pair run the same seed, and the error is deterministic for a
  seed, so any rise comes from the change.

Exit status: 0, or 1 when a row regressed, or 2 on unusable input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
CONTRACT = HERE.parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
MIN_PAIRS = 10
#: Percentage points by which any pair's Table 1 error may rise.
TABLE1_BOUND_PP = 0.01


class InputError(Exception):
    """Run files that cannot be compared."""


def load_reports(directory: pathlib.Path) -> List[Dict]:
    """Every run report under ``directory``, in file-name order."""
    reports = []
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        for line in path.read_text().splitlines():
            if line.startswith('{"benchmark"'):
                reports.append(json.loads(line))
    if not reports:
        raise InputError(f"no run reports in {directory}")
    return reports


def pair_up(parent: List[Dict], change: List[Dict]
            ) -> Dict[str, List[Tuple[Dict, Dict]]]:
    """``{workload: [(parent report, change report), ...]}``."""
    if any(r["trace"] for r in parent + change):
        raise InputError("traced runs carry no end-to-end metrics; "
                         "compare untraced runs")
    if len({r["smoke"] for r in parent + change}) > 1:
        raise InputError("refusing to mix smoke and full runs")
    budgets = {r["seconds"] for r in parent + change}
    if len(budgets) > 1:
        raise InputError(f"refusing to mix runs of different --seconds "
                         f"budgets {sorted(budgets)}")

    def keyed(reports):
        seen: Dict[Tuple, int] = {}
        table = {}
        for report in reports:
            key = (report["workload"], report["seed"])
            seen[key] = seen.get(key, 0) + 1
            table[key + (seen[key],)] = report
        return table

    parents, changes = keyed(parent), keyed(change)
    pairs: Dict[str, List[Tuple[Dict, Dict]]] = {}
    for key in sorted(set(parents) & set(changes)):
        pairs.setdefault(key[0], []).append((parents[key], changes[key]))
    if not pairs:
        raise InputError("no run of one side has a partner (same workload "
                         "and seed) on the other")
    return pairs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, change's share of pair wins)`` for one row."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    # With the sign applied, larger is better on every metric.
    signed_parent = [sign * value for value in parent]
    signed_change = [sign * value for value in change]
    all_better = min(signed_change) > max(signed_parent)
    all_worse = max(signed_change) < min(signed_parent)
    if share >= WIN_SHARE and gain > p3 - p1:
        return "improved", share
    if -gain > bound * abs(pm) and (spread <= bound or all_worse):
        return "regressed", share
    if spread > bound and not all_better:
        return "unresolved", share
    return "no worse", share


def compare(parent_dir: pathlib.Path, change_dir: pathlib.Path) -> int:
    contract = json.loads(CONTRACT.read_text())
    pairs = pair_up(load_reports(parent_dir), load_reports(change_dir))
    specs = contract["end_to_end"]
    header = (f"{'workload':<11}{'metric':<16}{'parent median [q1, q3]':>34}"
              f"{'change median [q1, q3]':>34}{'wins':>6}  verdict")
    print(header)
    regressed = False
    for workload, runs in sorted(pairs.items()):
        if len(runs) < MIN_PAIRS:
            print(f"note: {workload} has {len(runs)} pairs; a gain needs "
                  f"at least {MIN_PAIRS}", file=sys.stderr)
        for spec in specs:
            name = spec["name"]
            parent = [p["metrics"][name]["value"] for p, _ in runs]
            change = [c["metrics"][name]["value"] for _, c in runs]
            result, share = verdict(parent, change, spec["better"],
                                    spec["bound"])
            regressed |= result == "regressed"
            print(f"{workload:<11}{name:<16}"
                  f"{_cell(parent):>34}{_cell(change):>34}"
                  f"{share:>6.0%}  {result}")
        failed = [sum(r["sessions_timed"] * r["failed_frac"] for r in side)
                  for side in zip(*runs)]
        same = all(p["output_sha256"] == c["output_sha256"] for p, c in runs)
        failures = "regressed" if failed[1] > failed[0] else "no worse"
        regressed |= failures == "regressed"
        print(f"{workload:<11}{'failed sessions':<16}{failed[0]:>34.0f}"
              f"{failed[1]:>34.0f}{'':>6}  {failures}"
              f"{'' if same else '  (outputs differ from parent)'}")
        errors = [(p["table1_err_pp"], c["table1_err_pp"]) for p, c in runs
                  if p["table1_err_pp"] is not None]
        if errors:
            rise = max(c - p for p, c in errors)
            fidelity = "regressed" if rise > TABLE1_BOUND_PP else "no worse"
            regressed |= fidelity == "regressed"
            parent, change = zip(*errors)
            print(f"{workload:<11}{'table1_err_pp':<16}"
                  f"{_cell(list(parent)):>34}{_cell(list(change)):>34}"
                  f"{'':>6}  {fidelity}")
    return 1 if regressed else 0


def _cell(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def bench_digest(checkout: pathlib.Path) -> str:
    """Hash of a checkout's benchmark files (outputs excluded)."""
    sha = hashlib.sha256()
    root = checkout / "benchmarks" / "e2e"
    for path in sorted(root.rglob("*")):
        relative = path.relative_to(root)
        if path.is_file() and relative.parts[0] not in (
                "out", "__pycache__", ".pytest_cache"):
            sha.update(str(relative).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def run_pairs(parent: pathlib.Path, change: pathlib.Path,
              out: pathlib.Path, pairs: int, seed: int) -> int:
    """Alternate parent and change runs of every workload, all at
    ``seed``; write each run's output."""
    workloads = [w["name"] for w in json.loads(CONTRACT.read_text())[
        "workloads"]]
    if bench_digest(parent) != bench_digest(change):
        raise InputError("the two checkouts hold different benchmarks/e2e "
                         "files; copy one side's over the other first")
    for side in ("parent", "change"):
        (out / side).mkdir(parents=True, exist_ok=True)
    for index in range(pairs):
        order = [("parent", parent), ("change", change)]
        if index % 2:
            order.reverse()
        for workload in workloads:
            for side, checkout in order:
                target = out / side / f"{workload}.{seed}.{index:03d}.txt"
                with target.open("w") as handle:
                    done = subprocess.run(
                        [sys.executable, "benchmarks/e2e/run.py",
                         "--workload", workload, "--seed", str(seed)],
                        cwd=checkout, stdout=handle,
                        stderr=subprocess.STDOUT, check=False)
                print(f"pair {index + 1}/{pairs} {workload} {side}: "
                      f"exit {done.returncode}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["run"]:
        parser = argparse.ArgumentParser(prog="compare.py run")
        parser.add_argument("parent", type=pathlib.Path)
        parser.add_argument("change", type=pathlib.Path)
        parser.add_argument("--out", type=pathlib.Path, required=True)
        parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
        parser.add_argument("--seed", type=int, default=1)
        args = parser.parse_args(argv[1:])
        return run_pairs(args.parent, args.change, args.out, args.pairs,
                         args.seed)
    parser = argparse.ArgumentParser(
        description="Compare parent and change run directories.")
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    args = parser.parse_args(argv)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
