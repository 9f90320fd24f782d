"""Command-line interface.

Everything the examples do, scriptable::

    python -m repro apps                      # list the workload catalog
    python -m repro table --panel galaxy-s3   # print the section table
    python -m repro table --rates 30,60,120   # ... for custom levels
    python -m repro run --app Facebook --governor section+boost
    python -m repro run --app Facebook --telemetry out.jsonl
    python -m repro stats out.jsonl           # summarize a telemetry stream
    python -m repro compare --app "Jelly Splash" --duration 45
    python -m repro compare --app Facebook --workers 4
    python -m repro experiment fig6           # regenerate a paper figure
    python -m repro trace record --app Facebook --out fb.rptrace
    python -m repro trace replay fb.rptrace --governor section
    python -m repro trace info fb.rptrace     # codec + content stats
    python -m repro trace gen --kind idle --out idle.rptrace

All output is plain text; every command is deterministic for a given
``--seed``.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from .analysis.export import (
    write_events_csv,
    write_session_json,
    write_trace_csv,
)
from .analysis.latency import session_touch_latency
from .analysis.tables import format_table
from .apps.catalog import all_app_names, app_profile
from .core.quality import quality_vs_baseline
from .core.section_table import SectionTable
from .display.presets import panel_preset, panel_preset_names
from .errors import ConfigurationError, ReproError
from .experiments.registry import EXPERIMENTS, experiment
from .pipeline import (
    GOVERNOR_ORACLE,
    fixed_baseline_config,
    governor_names,
)
from .sim.session import SessionConfig, run_session
from .telemetry.hub import TelemetryConfig
from .telemetry.stats import format_stats, summarize_jsonl
from .traces import SYNTH_KINDS


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Content-centric display energy management "
                    "(DAC 2014) — simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_apps = sub.add_parser("apps", help="list the application catalog")
    p_apps.set_defaults(func=cmd_apps)

    p_table = sub.add_parser(
        "table", help="print the Equation (1) section table")
    p_table.add_argument("--panel", default="galaxy-s3",
                         choices=panel_preset_names(),
                         help="panel preset supplying the rate levels")
    p_table.add_argument("--rates", default=None,
                         help="comma-separated custom rates (overrides "
                              "--panel), e.g. 30,60,120")
    p_table.set_defaults(func=cmd_table)

    p_run = sub.add_parser("run", help="run one session")
    _add_session_args(p_run)
    _add_telemetry_arg(p_run)
    p_run.add_argument("--governor", default="section+boost",
                       choices=governor_names())
    p_run.add_argument("--oled", action="store_true",
                       help="track content-dependent OLED emission")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="race governors against the fixed baseline")
    _add_session_args(p_cmp)
    p_cmp.add_argument("--governors",
                       default="section,section+boost",
                       help="comma-separated governors to compare")
    p_cmp.add_argument("--workers", type=int, default=1,
                       help="worker processes for the comparison "
                            "sessions (default 1: in-process; the "
                            "parallel batch runner guarantees "
                            "identical numbers at any count)")
    p_cmp.add_argument("--cache", default=None, metavar="DIR",
                       help="content-addressed result cache directory "
                            "(reused across runs; identical sessions "
                            "are served from disk, byte-identical to "
                            "recomputing)")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser(
        "sweep", help="parameter-grid sweep with multi-seed "
                      "statistics, result caching and a regression "
                      "check")
    p_sweep.add_argument("--app", required=True,
                         help="base application (each --grid axis "
                              "overrides one spec field)")
    p_sweep.add_argument("--governor", default="section+boost",
                         help="base governor (default section+boost)")
    p_sweep.add_argument("--duration", type=float, default=45.0,
                         help="base session duration in seconds")
    p_sweep.add_argument("--panel", default="galaxy-s3",
                         help="base panel preset")
    p_sweep.add_argument("--grid", action="append", default=None,
                         metavar="FIELD=V1,V2",
                         help="one grid axis over a spec field "
                              "(repeatable; cells are the cartesian "
                              "product)")
    p_sweep.add_argument("--seeds", default="1", metavar="S1,S2,...",
                         help="comma-separated replication seeds; "
                              "aggregates report mean ±95%% CI across "
                              "them (default: 1)")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (default 1; the "
                              "document is identical at any count)")
    p_sweep.add_argument("--cache", default=None, metavar="DIR",
                         help="content-addressed result cache "
                              "directory: repeated cells are served "
                              "from disk, byte-identical to "
                              "recomputing")
    p_sweep.add_argument("--cache-max-entries", type=int, default=None,
                         metavar="N",
                         help="evict oldest cache entries beyond N "
                              "after the sweep")
    p_sweep.add_argument("--out", default=None, metavar="PATH",
                         help="write the deterministic repro-sweep/1 "
                              "document (byte-diffable cold vs warm)")
    p_sweep.add_argument("--stats-out", default=None, metavar="PATH",
                         help="write the nondeterministic run stats "
                              "(wall clock, cache hit/miss counts)")
    p_sweep.add_argument("--json", action="store_true",
                         help="print the sweep document as JSON "
                              "instead of the aggregate table")
    p_sweep.add_argument("--check", default=None, metavar="REFERENCE",
                         help="diff against a committed repro-sweep/1 "
                              "reference; regressions exit 1")
    p_sweep.add_argument("--threshold", type=float, default=0.05,
                         help="allowed worsening per metric mean as a "
                              "fraction of the reference (default "
                              "0.05)")
    p_sweep.add_argument("--metric-threshold", action="append",
                         default=None, metavar="NAME=FRACTION",
                         help="per-metric threshold override "
                              "(repeatable)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_tour = sub.add_parser(
        "tournament", help="power-vs-quality leaderboard over every "
                           "registered governor (catalog + synthetic "
                           "traces + luminance probe)")
    p_tour.add_argument("--governors", default=None,
                        metavar="G1,G2,...",
                        help="comma-separated competitors (default: "
                             "every registered governor)")
    p_tour.add_argument("--apps", default=None, metavar="A1,A2,...",
                        help="comma-separated catalog apps (default: "
                             "the full 30-app catalog)")
    p_tour.add_argument("--traces", default="video,scroll",
                        metavar="K1,K2,...",
                        help="comma-separated synthetic trace kinds "
                             "(default: video,scroll; empty for none)")
    p_tour.add_argument("--duration", type=float, default=20.0,
                        help="session duration per cell in seconds")
    p_tour.add_argument("--trace-duration", type=float, default=10.0,
                        help="generated trace length in seconds")
    p_tour.add_argument("--seed", type=int, default=1,
                        help="workload seed shared by every cell")
    p_tour.add_argument("--no-probe", action="store_true",
                        help="skip the dark/light luminance probe "
                             "pair")
    p_tour.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1; the "
                             "document is identical at any count)")
    p_tour.add_argument("--cache", default=None, metavar="DIR",
                        help="content-addressed result cache "
                             "directory: repeated catalog cells are "
                             "served from disk, byte-identical to "
                             "recomputing (trace cells are "
                             "uncacheable)")
    p_tour.add_argument("--cache-max-entries", type=int, default=None,
                        metavar="N",
                        help="evict oldest cache entries beyond N "
                             "after the run")
    p_tour.add_argument("--out", default=None, metavar="PATH",
                        help="write the deterministic "
                             "repro-tournament/1 document "
                             "(byte-diffable cold vs warm)")
    p_tour.add_argument("--stats-out", default=None, metavar="PATH",
                        help="write the nondeterministic run stats "
                             "(wall clock, cache hit/miss counts)")
    p_tour.add_argument("--json", action="store_true",
                        help="print the tournament document as JSON "
                             "instead of the leaderboard table")
    p_tour.add_argument("--check", default=None, metavar="REFERENCE",
                        help="byte-compare against a committed "
                             "repro-tournament/1 reference; any "
                             "difference exits 1")
    p_tour.set_defaults(func=cmd_tournament)

    p_export = sub.add_parser(
        "export", help="run a session and dump its traces")
    _add_session_args(p_export)
    _add_telemetry_arg(p_export)
    p_export.add_argument("--governor", default="section+boost",
                          choices=governor_names())
    p_export.add_argument("--out", default="session",
                          help="output prefix: writes <out>.json, "
                               "<out>_trace.csv, <out>_events.csv")
    p_export.set_defaults(func=cmd_export)

    p_scn = sub.add_parser(
        "scenario", help="run a multi-app usage scenario")
    p_scn.add_argument("--apps", required=True,
                       help="comma-separated app names, one segment "
                            "each")
    p_scn.add_argument("--segment-duration", type=float, default=20.0)
    p_scn.add_argument("--governor", default="section+boost",
                       choices=[g for g in governor_names()
                                if g != GOVERNOR_ORACLE])
    p_scn.add_argument("--seed", type=int, default=1)
    p_scn.set_defaults(func=cmd_scenario)

    p_rep = sub.add_parser(
        "report", help="regenerate EVERY paper artifact into one file")
    p_rep.add_argument("--out", default="REPRODUCTION_REPORT.txt",
                       help="output file (default "
                            "REPRODUCTION_REPORT.txt)")
    p_rep.add_argument("--fast", action="store_true",
                       help="short sessions (quick sanity run)")
    p_rep.set_defaults(func=cmd_report)

    p_exp = sub.add_parser(
        "experiment", help="regenerate a paper figure/table")
    p_exp.add_argument("experiment_id", nargs="?", default=None,
                       help="e.g. fig6, table1; omit to list all")
    p_exp.set_defaults(func=cmd_experiment)

    p_stats = sub.add_parser(
        "stats", help="summarize a telemetry JSONL stream (or render "
                      "it as Prometheus exposition text)")
    p_stats.add_argument("jsonl", help="stream written by "
                                       "'run --telemetry'")
    p_stats.add_argument("--format", default="text",
                         choices=("text", "prom"),
                         help="output format: human-readable summary "
                              "(default) or Prometheus text exposition "
                              "v0.0.4")
    p_stats.set_defaults(func=cmd_stats)

    p_trace = sub.add_parser(
        "trace", help="record, replay, and inspect binary frame "
                      "traces (repro-trace/1)")
    trace_sub = p_trace.add_subparsers(dest="trace_command",
                                       required=True)

    p_rec = trace_sub.add_parser(
        "record", help="run a session and record its framebuffer "
                       "into a trace file")
    _add_session_args(p_rec)
    _add_telemetry_arg(p_rec)
    p_rec.add_argument("--governor", default="section+boost",
                       choices=governor_names())
    p_rec.add_argument("--out", required=True, metavar="PATH",
                       help="trace file to write (.rptrace)")
    p_rec.set_defaults(func=cmd_trace_record)

    p_play = trace_sub.add_parser(
        "replay", help="replay a trace as a first-class session "
                       "(byte-identical under the recorded governor)")
    p_play.add_argument("trace", help="trace file to replay")
    p_play.add_argument("--governor", default=None,
                        choices=governor_names(),
                        help="override the recorded governor")
    p_play.add_argument("--summary-json", default=None, metavar="PATH",
                        help="write the session summary as JSON "
                             "('-' for stdout)")
    p_play.set_defaults(func=cmd_trace_replay)

    p_info = trace_sub.add_parser(
        "info", help="print a trace's header, codec, and content "
                     "statistics")
    p_info.add_argument("trace", help="trace file to inspect")
    p_info.set_defaults(func=cmd_trace_info)

    p_gen = trace_sub.add_parser(
        "gen", help="generate a synthetic trace (video/scroll/idle)")
    p_gen.add_argument("--kind", required=True,
                       choices=list(SYNTH_KINDS))
    p_gen.add_argument("--duration", type=float, default=10.0,
                       help="trace length in seconds")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, metavar="PATH",
                       help="trace file to write (.rptrace)")
    p_gen.set_defaults(func=cmd_trace_gen)

    p_serve = sub.add_parser(
        "serve", help="run the durable session service over a state "
                      "directory (docs/service.md)")
    p_serve.add_argument("--state-dir", required=True, metavar="DIR",
                         help="service state directory (journal, "
                              "jobs, results)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="concurrent session workers (default 2)")
    p_serve.add_argument("--slice", type=float, default=1.0,
                         metavar="SIM_S",
                         help="sim seconds advanced per cooperative "
                              "step (default 1)")
    p_serve.add_argument("--slice-sleep", type=float, default=0.0,
                         metavar="WALL_S",
                         help="wall seconds slept between steps "
                              "(paces execution; default 0)")
    p_serve.add_argument("--max-attempts", type=int, default=3,
                         help="attempts per job before a terminal "
                              "failure record (default 3)")
    p_serve.add_argument("--deadline", type=float, default=None,
                         metavar="WALL_S",
                         help="default per-job wall-clock deadline "
                              "(jobs may carry their own)")
    p_serve.add_argument("--until-idle", action="store_true",
                         help="exit once every known job is terminal "
                              "and no new jobs arrive (batch mode)")
    p_serve.add_argument("--max-runtime", type=float, default=None,
                         metavar="WALL_S",
                         help="stop and exit after this many wall "
                              "seconds, leaving unfinished jobs pending "
                              "(CI safety net)")
    p_serve.add_argument("--no-fsync", action="store_true",
                         help="skip per-append journal fsync (faster, "
                              "test-only; crash durability weakens)")
    p_serve.add_argument("--cache", default=None, metavar="DIR",
                         help="content-addressed result cache "
                              "directory: jobs whose spec is already "
                              "cached complete without simulating, "
                              "and finished jobs populate the cache")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="spool a session job into a service state "
                       "directory (atomic; works with no service "
                       "running)")
    p_submit.add_argument("--state-dir", required=True, metavar="DIR")
    source = p_submit.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", default=None, metavar="PATH",
                        help="SessionSpec JSON document to submit "
                             "('-' reads stdin)")
    source.add_argument("--app", default=None,
                        help="catalog application name (builds the "
                             "spec from --governor/--duration/--seed)")
    source.add_argument("--trace", default=None, metavar="PATH",
                        help="frame-trace file; submits its replay "
                             "session")
    p_submit.add_argument("--governor", default="section+boost",
                          choices=governor_names())
    p_submit.add_argument("--duration", type=float, default=45.0)
    p_submit.add_argument("--seed", type=int, default=1)
    p_submit.add_argument("--panel", default="galaxy-s3",
                          choices=panel_preset_names())
    p_submit.add_argument("--job-id", default=None,
                          help="job id (default: content-addressed "
                               "from the spec)")
    p_submit.add_argument("--deadline", type=float, default=None,
                          metavar="WALL_S",
                          help="per-job wall-clock deadline")
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser(
        "status", help="report job states and health for a service "
                       "state directory")
    p_status.add_argument("--state-dir", required=True, metavar="DIR")
    p_status.add_argument("--json", action="store_true",
                          help="machine-readable status document")
    p_status.set_defaults(func=cmd_status)

    return parser


def _add_session_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", required=True,
                        help="catalog application name")
    parser.add_argument("--duration", type=float, default=45.0,
                        help="session length in seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--panel", default="galaxy-s3",
                        choices=panel_preset_names())
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault-injection plan, e.g. "
                             "'panel_refuse=0.05,meter_fail=0.01,"
                             "touch_drop=0.1'; bursts as "
                             "'meter_fail@10:20=1.0'")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault injector's random "
                             "streams (default 0)")


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    """``--telemetry``, for the commands whose handlers honour it."""
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="capture a structured event stream "
                             "(rate switches, boosts, spans, ...) to "
                             "this JSONL file; summarize it with "
                             "'repro stats PATH'")


def _resolve_telemetry(args: argparse.Namespace):
    """The :class:`TelemetryConfig` requested, or None (disabled)."""
    if args.telemetry is None:
        return None
    return TelemetryConfig(jsonl_path=args.telemetry)


def _resolve_faults(args: argparse.Namespace):
    """The :class:`FaultPlan` requested on the command line, or None."""
    if getattr(args, "faults", None) is None:
        return None
    from .faults.plan import FaultPlan
    return FaultPlan.parse(args.faults, seed=args.fault_seed)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_apps(args: argparse.Namespace) -> int:
    rows = []
    for name in all_app_names():
        p = app_profile(name)
        rows.append([
            name, p.category.value,
            f"{p.idle_content_fps:g}", f"{p.active_content_fps:g}",
            f"{p.idle_submit_fps:g}", p.render_style.value,
            p.notes,
        ])
    print(format_table(
        ["app", "category", "idle fps", "active fps", "submit fps",
         "style", "notes"],
        rows, title="Application catalog (30 apps, fit to the paper's "
                    "survey)"))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.rates:
        try:
            rates = [float(r) for r in args.rates.split(",")]
        except ValueError:
            raise ConfigurationError(
                f"--rates must be a comma-separated list of numbers, "
                f"got {args.rates!r}") from None
        table = SectionTable.from_rates(rates)
        source = f"custom rates {rates}"
    else:
        spec = panel_preset(args.panel)
        table = SectionTable.for_panel(spec)
        source = spec.name
    print(f"Section table (Equation 1) for {source}:")
    print(table.describe())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    result = run_session(SessionConfig(
        app=args.app, governor=args.governor,
        duration_s=args.duration, seed=args.seed,
        panel=panel_preset(args.panel),
        track_oled=args.oled,
        faults=_resolve_faults(args),
        telemetry=_resolve_telemetry(args)))
    report = result.power_report()
    print(f"app:            {result.profile.name} "
          f"({result.profile.category.value})")
    print(f"governor:       {result.governor_name}")
    print(f"duration:       {result.duration_s:g} s "
          f"(seed {args.seed})")
    print(f"mean power:     {report.mean_power_mw:.1f} mW")
    components = ", ".join(
        f"{k} {v:.0f}" for k, v in report.component_power_mw().items()
        if v > 0)
    print(f"  components:   {components} (mW)")
    print(f"mean refresh:   {result.mean_refresh_rate_hz:.1f} Hz "
          f"({result.panel.rate_switches} switches)")
    print(f"frame rate:     {result.mean_frame_rate_fps:.1f} fps "
          f"({result.mean_content_rate_fps:.1f} content, "
          f"{result.mean_redundant_rate_fps:.1f} redundant)")
    latency = session_touch_latency(result)
    if latency.answered:
        print(f"touch latency:  {1e3 * latency.mean_s:.0f} ms mean over "
              f"{latency.answered} touches")
    if result.injector is not None:
        faults = result.fault_summary_dict()
        by_site = ", ".join(
            f"{site} {count}" for site, count
            in sorted(faults["injected_by_site"].items())) or "none"
        print(f"faults:         {faults['injected_total']} injected "
              f"({by_site})")
        print(f"watchdog:       {faults['meter_failures']} meter "
              f"failures, {faults['failsafe_entries']} fail-safe "
              f"entries, {faults['recoveries']} recoveries "
              f"(final state {faults['watchdog_state']})")
    if result.telemetry is not None:
        hub = result.telemetry
        print(f"telemetry:      {hub.events_total} events "
              f"({args.telemetry}); "
              f"summarize with 'repro stats {args.telemetry}'")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .sim.batch import run_batch
    governors = [g.strip() for g in args.governors.split(",") if g]
    faults = _resolve_faults(args)
    configs = [fixed_baseline_config(
        args.app, duration_s=args.duration, seed=args.seed,
        panel=panel_preset(args.panel))]
    configs += [SessionConfig(
        app=args.app, governor=governor, duration_s=args.duration,
        seed=args.seed, panel=panel_preset(args.panel),
        faults=faults) for governor in governors]
    cache = None
    if args.cache is not None:
        from .cache import ResultCache
        cache = ResultCache(args.cache)
    summaries = run_batch(configs, workers=args.workers,
                          on_error="raise", cache=cache)
    if cache is not None:
        cache.write_index()
    base = summaries[0]
    base_power = base["mean_power_mw"]
    rows = [["fixed", f"{base_power:.0f}", "0", "100.0",
             f"{base['mean_refresh_hz']:.1f}"]]
    for governor, summary in zip(governors, summaries[1:]):
        power = summary["mean_power_mw"]
        quality = quality_vs_baseline(summary["content_rate_fps"],
                                      base["content_rate_fps"])
        rows.append([governor, f"{power:.0f}",
                     f"{base_power - power:.0f}",
                     f"{100 * quality:.1f}",
                     f"{summary['mean_refresh_hz']:.1f}"])
    print(format_table(
        ["governor", "power mW", "saved mW", "quality %", "refresh Hz"],
        rows,
        title=f"{args.app}: identical {args.duration:g} s workload "
              f"(seed {args.seed})"))
    return 0


def _parse_metric_thresholds(items) -> dict:
    """``NAME=FRACTION`` override arguments -> ``{name: fraction}``."""
    overrides = {}
    for item in items or ():
        name, _, value = item.partition("=")
        if not name or not value:
            raise ConfigurationError(
                f"--metric-threshold expects NAME=FRACTION, got "
                f"{item!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ConfigurationError(
                f"--metric-threshold {item!r}: {value!r} is not "
                f"a number") from None
    return overrides


def cmd_sweep(args: argparse.Namespace) -> int:
    import json
    import pathlib
    import sys
    import time

    from .analysis.sweep import (
        SWEEP_SCHEMA,
        SWEEP_STATS_SCHEMA,
        compare_sweep,
        format_regressions,
        format_sweep,
        parse_grid,
        run_sweep,
    )
    from .ioutil import atomic_write_json
    from .pipeline.spec import SessionSpec
    # Load the reference before the (slow) sweep so a missing or
    # malformed one fails fast.
    reference = None
    if args.check:
        try:
            reference = json.loads(
                pathlib.Path(args.check).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot read sweep reference {args.check!r}: "
                f"{exc}") from None
        if not isinstance(reference, dict) or \
                reference.get("schema") != SWEEP_SCHEMA:
            raise ConfigurationError(
                f"{args.check!r} is not a {SWEEP_SCHEMA} document")
    overrides = _parse_metric_thresholds(args.metric_threshold)
    grid = {}
    for item in args.grid or ():
        field, values = parse_grid(item)
        if field in grid:
            raise ConfigurationError(
                f"grid axis {field!r} given twice")
        grid[field] = values
    try:
        seeds = [int(part) for part in args.seeds.split(",")
                 if part.strip()]
    except ValueError:
        raise ConfigurationError(
            f"--seeds expects comma-separated integers, got "
            f"{args.seeds!r}") from None
    base = SessionSpec(app=args.app, governor=args.governor,
                       duration_s=args.duration, panel=args.panel)
    cache = None
    if args.cache is not None:
        from .cache import ResultCache
        cache = ResultCache(args.cache)
    started = time.perf_counter()
    document = run_sweep(base, grid, seeds=seeds,
                         workers=args.workers, cache=cache)
    wall_s = time.perf_counter() - started
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(format_sweep(document))
    if args.out:
        atomic_write_json(args.out, document)
        print(f"wrote {args.out}", file=sys.stderr)
    if cache is not None:
        if args.cache_max_entries is not None:
            cache.prune(args.cache_max_entries)
        cache.write_index()
        from .cache import hit_rate
        hits, lookups, fraction = hit_rate(cache.stats_dict())
        print(f"cache: {hits}/{lookups} hits "
              f"({100 * fraction:.0f}%) in {wall_s:.2f} s",
              file=sys.stderr)
    if args.stats_out:
        atomic_write_json(args.stats_out, {
            "schema": SWEEP_STATS_SCHEMA,
            "wall_s": wall_s,
            "cells": len(document["cells"]),
            "cache": cache.stats_dict() if cache is not None
            else None,
        })
        print(f"wrote {args.stats_out}", file=sys.stderr)
    if reference is not None:
        regressions = compare_sweep(document, reference,
                                    args.threshold,
                                    overrides or None)
        print(format_regressions(regressions))
        return 1 if regressions else 0
    return 0


def _split_csv(text) -> tuple:
    """A comma-separated CLI list -> tuple (empty string -> empty)."""
    if text is None:
        return ()
    return tuple(part.strip() for part in text.split(",")
                 if part.strip())


def cmd_tournament(args: argparse.Namespace) -> int:
    import json
    import pathlib
    import sys
    import time

    from .experiments.tournament import (
        TOURNAMENT_SCHEMA,
        TOURNAMENT_STATS_SCHEMA,
        TournamentConfig,
        format_tournament,
        run_tournament,
    )
    from .ioutil import atomic_write_json
    # Load the reference before the (slow) run so a missing or
    # malformed one fails fast.
    reference = None
    if args.check:
        try:
            reference = json.loads(
                pathlib.Path(args.check).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot read tournament reference {args.check!r}: "
                f"{exc}") from None
        if not isinstance(reference, dict) or \
                reference.get("schema") != TOURNAMENT_SCHEMA:
            raise ConfigurationError(
                f"{args.check!r} is not a {TOURNAMENT_SCHEMA} "
                f"document")
    from .apps.catalog import all_app_names
    config = TournamentConfig(
        governors=_split_csv(args.governors),
        apps=_split_csv(args.apps) or all_app_names(),
        trace_kinds=_split_csv(args.traces),
        duration_s=args.duration,
        trace_duration_s=args.trace_duration,
        seed=args.seed,
        luminance_probe=not args.no_probe)
    cache = None
    if args.cache is not None:
        from .cache import ResultCache
        cache = ResultCache(args.cache)
    started = time.perf_counter()
    document = run_tournament(config, workers=args.workers,
                              cache=cache)
    wall_s = time.perf_counter() - started
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(format_tournament(document))
    if args.out:
        atomic_write_json(args.out, document)
        print(f"wrote {args.out}", file=sys.stderr)
    if cache is not None:
        if args.cache_max_entries is not None:
            cache.prune(args.cache_max_entries)
        cache.write_index()
        from .cache import hit_rate
        hits, lookups, fraction = hit_rate(cache.stats_dict())
        print(f"cache: {hits}/{lookups} hits "
              f"({100 * fraction:.0f}%) in {wall_s:.2f} s",
              file=sys.stderr)
    if args.stats_out:
        atomic_write_json(args.stats_out, {
            "schema": TOURNAMENT_STATS_SCHEMA,
            "wall_s": wall_s,
            "cells": len(document["cells"]),
            "cache": cache.stats_dict() if cache is not None
            else None,
        })
        print(f"wrote {args.stats_out}", file=sys.stderr)
    if reference is not None:
        if document != reference:
            print("tournament check: document differs from "
                  f"{args.check}", file=sys.stderr)
            return 1
        print("tournament check: OK (byte-identical to reference)")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    result = run_session(SessionConfig(
        app=args.app, governor=args.governor,
        duration_s=args.duration, seed=args.seed,
        panel=panel_preset(args.panel),
        faults=_resolve_faults(args),
        telemetry=_resolve_telemetry(args)))
    json_path = write_session_json(result, f"{args.out}.json")
    trace_path = write_trace_csv(result, f"{args.out}_trace.csv")
    events_path = write_events_csv(result, f"{args.out}_events.csv")
    print(f"wrote {json_path}, {trace_path}, {events_path}")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from .sim.scenario import (
        ScenarioConfig, ScenarioSegment, run_scenario)
    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    segments = tuple(ScenarioSegment(app, args.segment_duration)
                     for app in apps)

    def run_with(governor):
        return run_scenario(ScenarioConfig(
            segments=segments, governor=governor, seed=args.seed))

    base = run_with("fixed")
    governed = run_with(args.governor)
    rows = []
    for i, segment in enumerate(governed.segments):
        b = base.segment_power(base.segments[i]).mean_power_mw
        g = governed.segment_power(segment).mean_power_mw
        quality = governed.segment_quality(i, base)
        rows.append([segment.profile.name,
                     f"{segment.start_s:g}-{segment.end_s:g}",
                     f"{b:.0f}", f"{b - g:.0f}",
                     f"{100 * quality:.1f}"])
    print(format_table(
        ["segment", "window s", "baseline mW", "saved mW",
         "quality %"],
        rows,
        title=f"Scenario under {governed.governor_name} "
              f"(seed {args.seed})"))
    total_saved = (base.power_report().mean_power_mw -
                   governed.power_report().mean_power_mw)
    print(f"total: {total_saved:.0f} mW saved over "
          f"{governed.config.total_duration_s:g} s")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from .experiments.report import generate_report
    from .experiments.survey import SurveyConfig
    if args.fast:
        text = generate_report(
            survey_config=SurveyConfig(duration_s=10.0),
            trace_duration_s=20.0, fig6_duration_s=5.0)
    else:
        text = generate_report()
    from .ioutil import atomic_write_text
    path = atomic_write_text(pathlib.Path(args.out), text)
    print(text)
    print(f"(written to {path})")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.experiment_id is None:
        rows = [[e.experiment_id, e.paper_content, e.benchmark]
                for e in EXPERIMENTS]
        print(format_table(["id", "paper content", "benchmark"], rows,
                           title="Registered experiments"))
        return 0
    info = experiment(args.experiment_id)
    print(f"Running {info.experiment_id}: {info.paper_content} ...")
    result = info.runner()
    print(result.format())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.format == "prom":
        import sys

        from .telemetry.expose import (
            render_snapshot,
            snapshot_from_events,
        )
        from .telemetry.stats import parse_jsonl
        snapshot = snapshot_from_events(parse_jsonl(args.jsonl))
        sys.stdout.write(render_snapshot(snapshot))
        return 0
    print(format_stats(summarize_jsonl(args.jsonl)))
    return 0


def _print_session_brief(result) -> None:
    """The short summary every trace subcommand shares."""
    report = result.power_report()
    print(f"governor:       {result.governor_name}")
    print(f"mean power:     {report.mean_power_mw:.1f} mW")
    print(f"mean refresh:   {result.mean_refresh_rate_hz:.1f} Hz "
          f"({result.panel.rate_switches} switches)")
    print(f"frame rate:     {result.mean_frame_rate_fps:.1f} fps "
          f"({result.mean_content_rate_fps:.1f} content)")


def cmd_trace_record(args: argparse.Namespace) -> int:
    from .traces import record_session, save_trace
    result, trace = record_session(SessionConfig(
        app=args.app, governor=args.governor,
        duration_s=args.duration, seed=args.seed,
        panel=panel_preset(args.panel),
        faults=_resolve_faults(args),
        telemetry=_resolve_telemetry(args)))
    path = save_trace(trace, args.out)
    info = trace.info_dict()
    print(f"recorded {info['frame_count']} frames "
          f"({info['meaningful_frames']} meaningful) over "
          f"{trace.duration_s:g} s -> {path}")
    print(f"encoded:        {info['encoded_frame_bytes']} B "
          f"({100 * info['compression_ratio']:.1f}% of raw)")
    _print_session_brief(result)
    return 0


def cmd_trace_replay(args: argparse.Namespace) -> int:
    import json
    import pathlib
    import sys

    from .analysis.export import json_sanitize, session_summary_dict
    from .traces import replay_config
    overrides = {}
    if args.governor is not None:
        overrides["governor"] = args.governor
    result = run_session(replay_config(args.trace, **overrides))
    _print_session_brief(result)
    if args.summary_json is not None:
        text = json.dumps(json_sanitize(session_summary_dict(result)),
                          indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
        if args.summary_json == "-":
            sys.stdout.write(text)
        else:
            from .ioutil import atomic_write_text
            atomic_write_text(pathlib.Path(args.summary_json), text)
            print(f"wrote {args.summary_json}")
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    from .traces import load_trace
    info = load_trace(args.trace).info_dict()
    print(f"schema:         {info['schema']}")
    print(f"geometry:       {info['width']}x{info['height']} "
          f"(duration {info['duration_s']:g} s)")
    print(f"frames:         {info['frame_count']} "
          f"({info['meaningful_frames']} meaningful, "
          f"{info['redundant_frames']} redundant)")
    print(f"raw bytes:      {info['raw_frame_bytes']}")
    print(f"encoded bytes:  {info['encoded_frame_bytes']} "
          f"({100 * info['compression_ratio']:.1f}% of raw)")
    for name, count in sorted(info["aux_channels"].items()):
        print(f"aux:            {name} ({count} samples)")
    origin = info["meta"].get("origin", "unknown")
    print(f"origin:         {origin}")
    return 0


def cmd_trace_gen(args: argparse.Namespace) -> int:
    from .traces import save_trace, synthetic_trace
    trace = synthetic_trace(args.kind, duration_s=args.duration,
                            seed=args.seed)
    path = save_trace(trace, args.out)
    info = trace.info_dict()
    print(f"generated {args.kind} trace: {info['frame_count']} frames "
          f"over {trace.duration_s:g} s -> {path}")
    print(f"encoded:        {info['encoded_frame_bytes']} B "
          f"({100 * info['compression_ratio']:.1f}% of raw)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import sys

    from .service import ServiceConfig, SessionService
    config = ServiceConfig(
        state_dir=args.state_dir,
        workers=args.workers,
        slice_s=args.slice,
        slice_sleep_s=args.slice_sleep,
        max_attempts=args.max_attempts,
        default_deadline_s=args.deadline,
        until_idle=args.until_idle,
        max_runtime_s=args.max_runtime,
        fsync_journal=not args.no_fsync,
        cache_dir=args.cache,
    )
    service = SessionService(config)
    print(f"serving {args.state_dir} (workers={args.workers})",
          file=sys.stderr)
    summary = asyncio.run(service.serve())
    jobs = summary["jobs"]
    print(f"service exit: {jobs['done']} done, {jobs['failed']} "
          f"failed, {jobs['rejected']} rejected, "
          f"{jobs['pending'] + jobs['running']} pending",
          file=sys.stderr)
    return 0


def _submit_spec_document(args: argparse.Namespace) -> dict:
    """The SessionSpec document `repro submit` should spool."""
    import json
    import pathlib
    import sys

    from .pipeline.spec import SessionSpec
    if args.spec is not None:
        text = (sys.stdin.read() if args.spec == "-"
                else pathlib.Path(args.spec).read_text())
        # Round-trip through the strict decoder so a malformed spec is
        # rejected at submit time, not inside a service worker.
        return SessionSpec.from_json(text).to_json_dict()
    app = args.app if args.app is not None else f"trace:{args.trace}"
    config = SessionConfig(
        app=app, governor=args.governor, duration_s=args.duration,
        seed=args.seed, panel=panel_preset(args.panel))
    return SessionSpec.from_config(config).to_json_dict()


def cmd_submit(args: argparse.Namespace) -> int:
    from .service import JobRequest
    from .service.service import (
        job_id_for_spec,
        next_submit_seq,
        submit_job,
    )
    spec_document = _submit_spec_document(args)
    job_id = args.job_id or job_id_for_spec(spec_document)
    job = JobRequest(
        job_id=job_id, spec=spec_document,
        deadline_s=args.deadline,
        submitted_seq=next_submit_seq(args.state_dir))
    path = submit_job(args.state_dir, job)
    print(f"submitted {job_id} -> {path}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    import json

    from .service.service import service_status
    status = service_status(args.state_dir)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counts = status["counts"]
    print(f"state dir:      {status['state_dir']}")
    print(f"jobs:           {len(status['jobs'])} known "
          f"({counts['done']} done, {counts['failed']} failed, "
          f"{counts['rejected']} rejected, "
          f"{counts['pending']} pending)")
    journal = status["journal"]
    damage = ""
    if journal["torn_tail"] or journal["bad_lines"]:
        damage = (f"  [damage: torn_tail={journal['torn_tail']}, "
                  f"bad_lines={journal['bad_lines']}]")
    print(f"journal:        {journal['records']} records{damage}")
    health = status.get("health")
    if health:
        if status.get("health_stale"):
            age = status.get("health_age_s")
            age_text = (f"{age:.1f}s ago"
                        if isinstance(age, (int, float)) else "unknown")
            print(f"last health:    STALE (last reported "
                  f"state={health.get('state')!r} {age_text}; "
                  f"heartbeat older than 2x health period)")
        else:
            print(f"last health:    state={health.get('state')} "
                  f"ready={health.get('ready')}")
    if status["jobs"]:
        rows = [[entry["job_id"], entry["status"],
                 entry.get("error_type") or ""]
                for entry in status["jobs"]]
        print(format_table(["job", "status", "error"], rows))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2  # pragma: no cover - parser.exit raises
    except OSError as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2  # pragma: no cover - parser.exit raises


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
