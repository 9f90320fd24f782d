"""Tests of the end-to-end benchmark harness itself.

Run with ``python -m pytest benchmarks/e2e -q`` from the repository
root.  The smoke runs take about ten seconds in total.
"""

import json
import pathlib
import subprocess
import sys

import pytest

import compare
import hostspeed
import run

run.bootstrap()

from layers import OTHER, Tracer, layer_targets  # noqa: E402
from workloads import BatchWorkload, table1_err_pp  # noqa: E402
from repro.sim.session import SessionConfig  # noqa: E402

WORKLOADS = ("catalog30", "native", "tournament", "idle_ltpo")


def smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--smoke", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads(lines[-2])
    assert report["benchmark"] == run.REPORT_SCHEMA
    return report


@pytest.fixture(scope="module")
def smoke_runs():
    return {(workload, trace): smoke(workload, trace)
            for workload in WORKLOADS for trace in (0, 1)}


def test_tracing_does_not_change_outputs(smoke_runs):
    contract = run.load_contract()
    for workload in WORKLOADS:
        plain, traced = smoke_runs[workload, 0], smoke_runs[workload, 1]
        assert plain["smoke"] and traced["smoke"]
        assert plain["failed_frac"] == 0 == traced["failed_frac"], workload
        assert plain["output_sha256"] == traced["output_sha256"], workload
        assert set(plain["metrics"]) == {
            m["name"] for m in contract["end_to_end"]}
        assert set(traced["metrics"]) == {
            m["name"] for m in contract["per_layer"]}


def test_traced_ledger_closes_on_wall_time(smoke_runs):
    for workload in WORKLOADS:
        metrics = smoke_runs[workload, 1]["metrics"]
        shares = [value["value"] for name, value in metrics.items()
                  if name.endswith(".share")]
        assert sum(shares) == pytest.approx(1.0, rel=0.01), workload
        timeline = run.ROOT / smoke_runs[workload, 1]["timeline"]
        events = json.loads(timeline.read_text())["traceEvents"]
        assert any(event["ph"] == "X" for event in events)


def test_repeat_iterations_are_not_memoized(smoke_runs):
    samples = smoke_runs["catalog30", 0]["samples"]
    first, second = samples["iteration_nominal_s"][:2]
    assert second >= 0.5 * first


def test_tracer_restores_every_wrapped_attribute():
    targets = layer_targets()
    originals = {(owner, name): owner.__dict__[name]
                 for pairs in targets.values() for owner, name in pairs}
    with pytest.raises(RuntimeError):
        with Tracer(targets):
            assert all(owner.__dict__[name] is not original
                       for (owner, name), original in originals.items())
            BatchWorkload.run_configs(
                [SessionConfig(app="Facebook", duration_s=1.0)])
            raise RuntimeError("traced iteration failed")
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original, (owner, name)


class Outer:
    def step(self, inner, times):
        for _ in range(times):
            inner.step()


class Inner:
    def step(self):
        return None


def test_self_times_close_on_nested_spans():
    ticks = iter(range(1000))
    tracer = Tracer({"outer": [(Outer, "step")], "inner": [(Inner, "step")]},
                    clock=lambda: float(next(ticks)))
    wall_start = tracer.clock()
    with tracer:
        tracer.enter_session(1)
        Outer().step(Inner(), 2)
        Outer().step(Inner(), 0)
    wall = tracer.clock() - wall_start
    ledger = tracer.ledger(wall)
    # Clock reads: outer [1, 6] holding inner [2, 3] and [4, 5], then
    # outer [7, 8]; wall is [0, 9].
    assert ledger["outer"] == {"self_s": 4.0, "calls": 2, "share": 4 / 9}
    assert ledger["inner"]["self_s"] == 2.0
    assert ledger[OTHER]["self_s"] == 3.0
    total = sum(row["self_s"] for row in ledger.values())
    assert total == pytest.approx(wall, rel=0.01)
    assert all(row["self_s"] >= 0 for row in ledger.values())
    spans = tracer.chrome_trace()["traceEvents"]
    parents = {event["args"]["id"]: event["args"]["parent"] for event in spans
               if event["ph"] == "X"}
    names = {event["args"]["id"]: event["name"] for event in spans
             if event["ph"] == "X"}
    for span, parent in parents.items():
        expected = "outer" if names[span] == "inner" else None
        assert (names[parent] if parent >= 0 else None) == expected


def test_nominal_time_scales_each_slice_by_the_probe_before_it():
    sampler = hostspeed.Sampler()
    # Probes at [1, 2] and [5, 6]; the second ran twice as slow.
    sampler.starts, sampler.ends = [1.0, 5.0], [2.0, 6.0]
    nominal_s = hostspeed.PROBES["python"][1]
    sampler.probe_s["python"] = [nominal_s, 2 * nominal_s]
    # [3, 5] at full speed, the probe skipped, [6, 8] at half speed.
    assert sampler.nominal(3.0, 8.0, "python") == pytest.approx(2.0 + 1.0)
    assert sampler.nominal(2.5, 4.5, "python") == pytest.approx(2.0)
    assert sampler.nominal(7.0, 9.0, "python") == pytest.approx(1.0)


def test_harrell_davis_quantiles():
    assert run.quantile([4.0], 0.9) == 4.0
    assert run.quantile([2.0] * 9, 0.9) == pytest.approx(2.0)
    # Symmetric weights put the median of a symmetric sample in its middle.
    assert run.quantile([1, 2, 3, 4, 5, 6], 0.5) == pytest.approx(3.5)
    sample = [1, 2, 3, 10, 20]
    assert run.quantile(sample, 0.5) < run.quantile(sample, 0.9) < 20


def test_missing_trace_file_counts_as_a_failed_session(tmp_path):
    configs = [SessionConfig(app="Facebook", duration_s=1.0),
               SessionConfig(app=f"trace:{tmp_path / 'missing.trace'}",
                             duration_s=1.0)]
    iteration = BatchWorkload.run_configs(configs)
    attempted, failed, problems = run.tally([iteration, iteration])
    assert (attempted, failed) == (4, 2)
    assert "TraceError" in problems[0]


def summary(power: float, content: float) -> dict:
    return {"mean_power_mw": power, "content_rate_fps": content}


def test_table1_error_on_hand_built_summaries():
    reference = json.loads((run.HERE / "reference.json").read_text())
    governors = ("fixed", "section", "section+boost")
    entries = [summary(1000, 10), summary(800, 8), summary(900, 9.5),
               summary(1000, 20), summary(700, 18), summary(750, 19.4)]
    err = table1_err_pp(("Facebook", "Jelly Splash"), governors, 1, entries,
                        reference["table1"])
    # |20-18.6| + |80-74.1| + |95-95.7| + |30-27| + |90-88.5| + |97-96|
    assert err == pytest.approx((1.4 + 5.9 + 0.7 + 3.0 + 1.5 + 1.0) / 6)
    general_only = table1_err_pp(("Facebook",), governors, 1, entries[:3],
                                 reference["table1"])
    assert general_only is None


def write_runs(directory: pathlib.Path, values, smoke_flag=False,
               seconds=20.0, table1=4.0):
    directory.mkdir()
    for index, value in enumerate(values):
        report = {"benchmark": run.REPORT_SCHEMA, "workload": "catalog30",
                  "seed": 1, "seconds": seconds, "smoke": smoke_flag,
                  "trace": False, "sessions_timed": 10, "failed_frac": 0.0,
                  "output_sha256": "x", "table1_err_pp": table1,
                  "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                              for m in run.load_contract()["end_to_end"]}}
        (directory / f"catalog30.1.{index:03d}.txt").write_text(
            "table\n" + json.dumps(report) + "\n{}\n")


def test_compare_verdicts(tmp_path, capsys):
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "no worse"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower",
                           0.1)[0] == "improved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower",
                           0.1)[0] == "regressed"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy, "higher", 0.1)[0] == "unresolved"

    write_runs(tmp_path / "parent", parent)
    write_runs(tmp_path / "change", parent)
    assert compare.compare(tmp_path / "parent", tmp_path / "change") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(row.endswith("no worse") for row in rows)

    write_runs(tmp_path / "smoke", parent, smoke_flag=True)
    with pytest.raises(compare.InputError):
        compare.compare(tmp_path / "parent", tmp_path / "smoke")
    write_runs(tmp_path / "short", parent, seconds=5.0)
    with pytest.raises(compare.InputError):
        compare.compare(tmp_path / "parent", tmp_path / "short")


def test_compare_gates_table1_error(tmp_path, capsys):
    runs = [100.0 + i % 3 for i in range(10)]
    write_runs(tmp_path / "parent", runs, table1=4.0)
    write_runs(tmp_path / "same", runs, table1=4.005)
    write_runs(tmp_path / "worse", runs, table1=4.02)
    assert compare.compare(tmp_path / "parent", tmp_path / "same") == 0
    assert compare.compare(tmp_path / "parent", tmp_path / "worse") == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1].startswith("catalog30  table1_err_pp")
    assert rows[-1].endswith("regressed")
