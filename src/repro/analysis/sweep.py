"""Parameter-grid sweeps with multi-seed statistics and regression
checking.

The survey answers one fixed question (every catalog app under three
governors).  Real experimentation asks *parameterized* questions — how
does power respond to the decision period?  does boost-hold length
trade quality for energy? — which are grids over
:class:`~repro.pipeline.spec.SessionSpec` fields.  This module expands
such grids, fans the resulting specs out over the deterministic batch
runner (optionally through a :class:`~repro.cache.ResultCache`, so a
repeated sweep costs file reads instead of simulation), aggregates
each grid cell across seeds into mean/std/95 % confidence intervals
(Student-t; null rather than zero when a single seed gives the
statistics nothing to say),
and diffs a sweep against a committed reference with per-metric
thresholds (``repro sweep --check``).

Two documents, deliberately separate:

* the **sweep document** (``repro-sweep/1``) holds only deterministic
  content — base spec, grid, seeds, per-cell metrics, aggregates — so
  a cold run and a cache-served warm run are byte-identical and CI can
  literally ``diff`` them;
* the **run-stats document** (``repro-sweep-stats/1``) holds the
  nondeterministic rest — wall clock, cache hit/miss counts — which is
  exactly what cold vs warm runs legitimately disagree about.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import typing
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..errors import ConfigurationError
from ..pipeline.spec import SessionSpec
from .tables import format_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cache import ResultCache

#: Deterministic sweep document schema.
SWEEP_SCHEMA = "repro-sweep/1"

#: Nondeterministic run-stats document schema.
SWEEP_STATS_SCHEMA = "repro-sweep-stats/1"

#: Summary fields a sweep extracts from each session (power and
#: quality metrics; identity fields like app/governor live in params).
METRIC_FIELDS = ("mean_power_mw", "energy_mj", "mean_refresh_hz",
                 "frame_rate_fps", "content_rate_fps",
                 "redundant_rate_fps", "display_quality",
                 "dropped_fps", "rate_switches")

#: Metrics where a *decrease* is an improvement; everything else in
#: :data:`METRIC_FIELDS` regresses when it drops.
LOWER_IS_BETTER = frozenset({"mean_power_mw", "energy_mj",
                             "redundant_rate_fps", "dropped_fps",
                             "rate_switches"})

#: Spec fields a grid may sweep over (scalar, spec-expressible).
_SWEEPABLE_TYPES = (str, int, float, bool)


def _sweepable_fields() -> Dict[str, type]:
    """Grid-addressable SessionSpec fields and their scalar types."""
    hints = typing.get_type_hints(SessionSpec)
    fields: Dict[str, type] = {}
    for field in dataclasses.fields(SessionSpec):
        hint = hints[field.name]
        if hint in _SWEEPABLE_TYPES:
            fields[field.name] = hint
        elif typing.get_origin(hint) is typing.Union and \
                str in typing.get_args(hint):
            # app / panel: the string (registry key) form is sweepable.
            fields[field.name] = str
    return fields


def _coerce(field: str, kind: type, text: str) -> Any:
    text = text.strip()
    try:
        if kind is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        return kind(text)
    except ValueError:
        raise ConfigurationError(
            f"grid axis {field!r}: cannot parse {text!r} as "
            f"{kind.__name__}") from None


def parse_grid(text: str) -> Tuple[str, List[Any]]:
    """One ``--grid field=v1,v2,...`` argument -> ``(field, values)``.

    Values coerce to the spec field's declared type (``duration_s=30``
    becomes ``30.0``); unknown or non-scalar fields are rejected with
    the sweepable choices listed.
    """
    field, sep, values_text = text.partition("=")
    field = field.strip()
    fields = _sweepable_fields()
    if not sep or not field:
        raise ConfigurationError(
            f"grid axis {text!r} must look like field=v1,v2")
    if field not in fields:
        raise ConfigurationError(
            f"grid axis {field!r} is not a sweepable spec field; "
            f"choices: {tuple(sorted(fields))}")
    if field == "seed":
        raise ConfigurationError(
            "sweep seeds via --seeds (they are the replication axis), "
            "not as a grid dimension")
    values = [_coerce(field, fields[field], item)
              for item in values_text.split(",") if item.strip()]
    if not values:
        raise ConfigurationError(
            f"grid axis {field!r} needs at least one value")
    deduped = []
    for value in values:
        if value not in deduped:
            deduped.append(value)
    return field, deduped


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> \
        List[Dict[str, Any]]:
    """Cartesian expansion, axes in sorted-name order (deterministic).

    An empty grid expands to one empty cell — "sweep" degenerates to
    "replicate the base spec across seeds".
    """
    axes = sorted(grid)
    combos = itertools.product(*(list(grid[axis]) for axis in axes))
    return [dict(zip(axes, combo)) for combo in combos]


def _cell_specs(base: SessionSpec, params: Mapping[str, Any],
                seeds: Sequence[int]) -> List[SessionSpec]:
    return [dataclasses.replace(base, seed=seed, **params)
            for seed in seeds]


def _finite(value: Any) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    value = float(value)
    return value if math.isfinite(value) else None


#: Two-sided 95 % Student-t critical values by degrees of freedom
#: (standard table rows).  Sample std at the typical n=3-5 sweep badly
#: undercovers at the normal z=1.96; the t value is the correct
#: small-sample width.
_T_CRITICAL_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
    25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}


def t_critical_95(df: int) -> float:
    """Two-sided 95 % Student-t critical value for ``df >= 1``.

    Degrees of freedom between table rows round *down* to the nearest
    tabulated row — the conservative direction (a slightly wider
    interval), so the reported CI never claims more confidence than
    the sample supports.
    """
    if df < 1:
        raise ConfigurationError(
            f"t critical value needs df >= 1, got {df}")
    if df in _T_CRITICAL_95:
        return _T_CRITICAL_95[df]
    return _T_CRITICAL_95[max(row for row in _T_CRITICAL_95
                              if row <= df)]


def _aggregate(values: List[float]) -> Dict[str, Any]:
    n = len(values)
    if n == 0:
        return {"mean": None, "std": None, "ci95": None, "n": 0}
    mean = sum(values) / n
    if n < 2:
        # One sample carries no dispersion information: std and ci95
        # are unknown (null), not zero — 0.0 would render a single
        # seed as perfect certainty.
        return {"mean": mean, "std": None, "ci95": None, "n": n}
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(variance)
    ci95 = t_critical_95(n - 1) * std / math.sqrt(n)
    return {"mean": mean, "std": std, "ci95": ci95, "n": n}


def run_sweep(base: SessionSpec, grid: Mapping[str, Sequence[Any]],
              *, seeds: Sequence[int] = (1,),
              workers: Optional[int] = None,
              cache: Optional["ResultCache"] = None) -> Dict[str, Any]:
    """Run the full grid x seeds sweep; returns the sweep document.

    Every ``(params, seed)`` cell is one deterministic session; the
    whole sweep fans out as a single :func:`~repro.sim.batch.run_batch`
    call (fail-fast), so worker count never changes the document and a
    ``cache`` serves repeated cells from disk byte-identically.
    """
    from ..sim.batch import run_batch

    if not seeds:
        raise ConfigurationError("sweep needs at least one seed")
    seeds = list(dict.fromkeys(int(seed) for seed in seeds))
    cells_params = expand_grid(grid)
    specs: List[SessionSpec] = []
    for params in cells_params:
        try:
            specs.extend(_cell_specs(base, params, seeds))
        except TypeError as exc:
            raise ConfigurationError(
                f"grid cell {params!r} does not apply to the base "
                f"spec: {exc}") from None
    entries = run_batch([spec.to_config() for spec in specs],
                        workers=workers, on_error="raise", cache=cache)
    cells = []
    aggregates = []
    flat = iter(zip(specs, entries))
    for params in cells_params:
        samples: Dict[str, List[float]] = {name: []
                                           for name in METRIC_FIELDS}
        for seed in seeds:
            spec, entry = next(flat)
            metrics = {}
            for name in METRIC_FIELDS:
                value = _finite(entry.get(name))
                metrics[name] = value
                if value is not None:
                    samples[name].append(value)
            cells.append({"params": params, "seed": seed,
                          "spec_digest": spec.digest(),
                          "metrics": metrics})
        aggregates.append({
            "params": params,
            "metrics": {name: _aggregate(samples[name])
                        for name in METRIC_FIELDS}})
    return {
        "schema": SWEEP_SCHEMA,
        "base": base.to_json_dict(),
        "grid": {axis: list(grid[axis]) for axis in sorted(grid)},
        "seeds": seeds,
        "cells": cells,
        "aggregates": aggregates,
    }


# ----------------------------------------------------------------------
# Regression checking
# ----------------------------------------------------------------------
def _params_key(params: Mapping[str, Any]) -> Tuple:
    return tuple(sorted((k, repr(v)) for k, v in params.items()))


def compare_sweep(current: Mapping[str, Any],
                  reference: Mapping[str, Any],
                  threshold: float = 0.05,
                  metric_thresholds: Optional[Mapping[str, float]]
                  = None) -> List[Dict[str, Any]]:
    """Regressions of ``current`` against a committed ``reference``.

    A regression is a reference aggregate cell that is missing from
    the current sweep, a metric that lost its value, or a metric mean
    that moved in its *bad* direction (per :data:`LOWER_IS_BETTER`) by
    more than the threshold fraction of the reference mean.
    ``metric_thresholds`` overrides the default per metric name.
    Improvements never flag.
    """
    metric_thresholds = dict(metric_thresholds or {})
    for name, value in metric_thresholds.items():
        if value < 0:
            raise ConfigurationError(
                f"metric threshold {name!r} must be >= 0, got {value}")
    if threshold < 0:
        raise ConfigurationError(
            f"threshold must be >= 0, got {threshold}")
    current_cells = {_params_key(a["params"]): a
                     for a in current.get("aggregates", [])}
    regressions: List[Dict[str, Any]] = []
    for ref_cell in reference.get("aggregates", []):
        params = ref_cell["params"]
        cur_cell = current_cells.get(_params_key(params))
        if cur_cell is None:
            regressions.append({
                "params": params, "metric": None,
                "reference": None, "current": None, "delta_frac": None,
                "threshold": None,
                "reason": "grid cell missing from current sweep"})
            continue
        for name, ref_stats in ref_cell.get("metrics", {}).items():
            ref_mean = _finite((ref_stats or {}).get("mean"))
            if ref_mean is None:
                continue
            allowed = metric_thresholds.get(name, threshold)
            cur_stats = cur_cell.get("metrics", {}).get(name) or {}
            cur_mean = _finite(cur_stats.get("mean"))
            if cur_mean is None:
                regressions.append({
                    "params": params, "metric": name,
                    "reference": ref_mean, "current": None,
                    "delta_frac": None, "threshold": allowed,
                    "reason": "metric missing from current sweep"})
                continue
            delta = cur_mean - ref_mean
            if name in LOWER_IS_BETTER:
                bad = max(0.0, delta)
            else:
                bad = max(0.0, -delta)
            scale = abs(ref_mean)
            bad_frac = (bad / scale) if scale > 0 else \
                (math.inf if bad > 0 else 0.0)
            if bad_frac > allowed:
                direction = "rose" if delta > 0 else "fell"
                regressions.append({
                    "params": params, "metric": name,
                    "reference": ref_mean, "current": cur_mean,
                    "delta_frac": bad_frac, "threshold": allowed,
                    "reason": f"{name} {direction} "
                              f"{100 * bad_frac:.1f}% "
                              f"(allowed {100 * allowed:.1f}%)"})
    return regressions


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_params(params: Mapping[str, Any]) -> str:
    if not params:
        return "(base)"
    return " ".join(f"{k}={v}" for k, v in sorted(params.items()))


def _format_stat(stats: Mapping[str, Any], unit_scale: float = 1.0,
                 digits: int = 1) -> str:
    mean = stats.get("mean")
    if mean is None:
        return "-"
    text = f"{unit_scale * mean:.{digits}f}"
    ci95 = stats.get("ci95")
    # `is not None`, not truthiness: a zero-width interval (all seeds
    # agree exactly) is a legitimate, maximally-informative CI.
    if ci95 is not None and stats.get("n", 0) > 1:
        text += f" ±{unit_scale * ci95:.{digits}f}"
    return text


def format_sweep(document: Mapping[str, Any]) -> str:
    """The sweep's aggregate table (mean ±95 % CI across seeds)."""
    rows = []
    for cell in document.get("aggregates", []):
        metrics = cell.get("metrics", {})
        rows.append([
            _format_params(cell.get("params", {})),
            _format_stat(metrics.get("mean_power_mw", {}), digits=0),
            _format_stat(metrics.get("display_quality", {}),
                         unit_scale=100.0),
            _format_stat(metrics.get("mean_refresh_hz", {})),
            _format_stat(metrics.get("frame_rate_fps", {})),
        ])
    seeds = document.get("seeds", [])
    return format_table(
        ["cell", "power mW", "quality %", "refresh Hz", "fps"],
        rows,
        title=f"sweep: {len(rows)} cells x {len(seeds)} seeds")


def format_regressions(regressions: Sequence[Mapping[str, Any]]) -> str:
    """Human-readable regression report (empty list -> all-clear)."""
    if not regressions:
        return "sweep check: OK (no metric regressed)"
    lines = [f"sweep check: {len(regressions)} regression(s)"]
    for item in regressions:
        params = _format_params(item.get("params", {}))
        lines.append(f"  {params}: {item['reason']}")
    return "\n".join(lines)
