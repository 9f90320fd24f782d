"""Prometheus text exposition (format v0.0.4) for registry snapshots.

The :class:`~repro.telemetry.metrics.MetricsRegistry` built in PR 2 is
post-hoc: its snapshots surface in session summaries after a run ends.
This module turns any snapshot — merged batch registry, offline
stats — into the Prometheus *text exposition format*
version 0.0.4, the line protocol every Prometheus-compatible scraper
speaks::

    # HELP repro_panel_rate_switches_total repro metric panel.rate_switches
    # TYPE repro_panel_rate_switches_total counter
    repro_panel_rate_switches_total 17

Three rules connect the internal naming convention
(``<subsystem>.<noun>[_<unit>]``, dotted lowercase — see
``docs/observability.md``) to exposition names:

* every name is prefixed ``repro_`` and dots become underscores
  (``panel.rate_switches`` → ``repro_panel_rate_switches``);
* counters gain the conventional ``_total`` suffix;
* histograms expand to ``_bucket`` (cumulative, with an ``le`` label
  per edge plus ``+Inf``), ``_sum`` and ``_count`` series.

Rendering is **pure**: snapshot in, text out, no clocks, no I/O, so
``repro stats --format prom`` renders an offline stream without
touching the deterministic simulation that wrote it.

:func:`parse_exposition` is the inverse used by tests: it parses
exposition text back into typed families and *validates* it (histogram
buckets must be cumulative, ``+Inf`` must equal ``_count``, names must
be legal), so "the renderer emits well-formed output" is an executable
assertion, not a hope.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import TelemetryError

#: Content-Type a v0.0.4 exposition response must carry.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default prefix joining the repo's dotted names to the Prometheus
#: namespace.
DEFAULT_PREFIX = "repro_"

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")
_NAME_FIRST_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_LABEL_FIRST_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")

#: A label set rendered into one sample line: sorted (name, value).
LabelItems = Tuple[Tuple[str, str], ...]


def sanitize_metric_name(name: str,
                         prefix: str = DEFAULT_PREFIX) -> str:
    """Map one internal metric name onto a legal Prometheus name.

    Every character outside ``[a-zA-Z0-9_:]`` becomes ``_`` (the dots
    of the internal convention included), and ``prefix`` is prepended.
    The mapping is deterministic but not injective — ``a.b`` and
    ``a_b`` collide; the internal convention separates subsystems with
    dots precisely so this never happens in practice.
    """
    if not name:
        raise TelemetryError(
            "cannot sanitize an empty metric name",
            context={"subsystem": "telemetry", "component": "expose"})
    body = "".join(ch if ch in _NAME_OK else "_" for ch in name)
    candidate = prefix + body
    if candidate[0] not in _NAME_FIRST_OK:
        candidate = "_" + candidate
    return candidate


def sanitize_label_name(name: str) -> str:
    """Map a string onto a legal Prometheus label name."""
    if not name:
        raise TelemetryError(
            "cannot sanitize an empty label name",
            context={"subsystem": "telemetry", "component": "expose"})
    body = "".join(ch if ch in _NAME_OK and ch != ":" else "_"
                   for ch in name)
    if body[0] not in _LABEL_FIRST_OK:
        body = "_" + body
    return body


def escape_label_value(value: str) -> str:
    """Backslash-escape a label value per the exposition grammar."""
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r"\""))


def escape_help(text: str) -> str:
    """Escape a HELP line (backslash and newline only)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def format_value(value: float) -> str:
    """Render one sample value: ``+Inf``/``-Inf``/``NaN``, integers
    without a decimal point, everything else via ``repr``."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_items(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((sanitize_label_name(str(k)), str(v))
                        for k, v in labels.items()))


def _render_labels(items: LabelItems) -> str:
    if not items:
        return ""
    inner = ",".join(f'{name}="{escape_label_value(value)}"'
                     for name, value in items)
    return "{" + inner + "}"


class _Family:
    """One metric family being assembled: a type plus its samples."""

    __slots__ = ("internal_name", "kind", "samples")

    def __init__(self, internal_name: str, kind: str) -> None:
        self.internal_name = internal_name
        self.kind = kind
        # list of (suffix, extra label items, label items, value)
        self.samples: List[Tuple[str, LabelItems, float]] = []


def _histogram_lines(name: str, labels: LabelItems,
                     hist: Mapping[str, object]) -> List[str]:
    """The ``_bucket``/``_sum``/``_count`` lines of one histogram
    series.  Bucket counts are cumulative; an explicit ``+Inf`` edge in
    the snapshot is folded into the terminal ``+Inf`` bucket instead of
    being emitted twice."""
    edges = [float(e) for e in hist["edges"]]  # type: ignore[index]
    counts = [int(c) for c in hist["counts"]]  # type: ignore[index]
    total = int(hist["count"])  # type: ignore[arg-type]
    lines: List[str] = []
    cumulative = 0
    for edge, count in zip(edges, counts):
        cumulative += count
        if math.isinf(edge) and edge > 0:
            # The snapshot's own +Inf edge: the terminal bucket below
            # covers it (values beyond +Inf cannot exist).
            continue
        bucket_labels = _render_labels(
            labels + (("le", format_value(edge)),))
        lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
    inf_labels = _render_labels(labels + (("le", "+Inf"),))
    lines.append(f"{name}_bucket{inf_labels} {total}")
    lines.append(f"{name}_sum{_render_labels(labels)} "
                 f"{format_value(float(hist['sum']))}")  # type: ignore[arg-type]
    lines.append(f"{name}_count{_render_labels(labels)} {total}")
    return lines


def render_groups(groups: Sequence[Tuple[Mapping[str, object],
                                         Optional[Mapping[str, str]]]],
                  prefix: str = DEFAULT_PREFIX) -> str:
    """Render labelled registry snapshots into one exposition document.

    ``groups`` holds ``(snapshot, labels)`` pairs — each snapshot in
    the :meth:`~repro.telemetry.metrics.MetricsRegistry.as_dict` shape,
    each label set applied to every series of that snapshot.  Samples
    sharing a metric name across groups are folded under a single
    ``# TYPE`` block (the format forbids repeating one), so several
    registries render as one document: one unlabelled, each of the
    others with its own label (say ``shard="N"``), one family per
    name.

    Raises :class:`~repro.errors.TelemetryError` when the same name is
    used with different instrument types or when two samples collide
    on identical labels.
    """
    families: Dict[str, _Family] = {}
    seen: Dict[Tuple[str, str, LabelItems], bool] = {}

    def family(internal: str, kind: str) -> _Family:
        found = families.get(internal)
        if found is None:
            found = _Family(internal, kind)
            families[internal] = found
        elif found.kind != kind:
            raise TelemetryError(
                f"metric {internal!r} rendered as both "
                f"{found.kind} and {kind}",
                context={"subsystem": "telemetry",
                         "component": "expose", "name": internal})
        return found

    def add(internal: str, kind: str, suffix: str,
            labels: LabelItems, value: float) -> None:
        key = (internal, suffix, labels)
        if key in seen:
            raise TelemetryError(
                f"duplicate sample for {internal!r} with labels "
                f"{dict(labels)}",
                context={"subsystem": "telemetry",
                         "component": "expose", "name": internal})
        seen[key] = True
        family(internal, kind).samples.append((suffix, labels, value))

    for snapshot, raw_labels in groups:
        labels = _label_items(raw_labels)
        for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
            add(name, "counter", "", labels, float(value))
        for name, value in snapshot.get("gauges", {}).items():  # type: ignore[union-attr]
            add(name, "gauge", "", labels, float(value))
        for name, hist in snapshot.get("histograms", {}).items():  # type: ignore[union-attr]
            add(name, "histogram", "", labels, 0.0)
            # The histogram payload rides on the family, keyed by its
            # label set; store it for the render pass below.
            families[name].samples[-1] = ("__hist__", labels, hist)  # type: ignore[assignment]

    lines: List[str] = []
    for internal in sorted(families):
        fam = families[internal]
        exposed = sanitize_metric_name(internal, prefix)
        if fam.kind == "counter":
            exposed += "_total"
        lines.append(f"# HELP {exposed} "
                     f"{escape_help('repro metric ' + internal)}")
        lines.append(f"# TYPE {exposed} {fam.kind}")
        for suffix, labels, value in fam.samples:
            if suffix == "__hist__":
                lines.extend(_histogram_lines(
                    exposed, labels, value))  # type: ignore[arg-type]
            else:
                lines.append(f"{exposed}{_render_labels(labels)} "
                             f"{format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_snapshot(snapshot: Mapping[str, object],
                    labels: Optional[Mapping[str, str]] = None,
                    prefix: str = DEFAULT_PREFIX) -> str:
    """Render one registry snapshot (one label set) to exposition
    text.  Pure convenience over :func:`render_groups`."""
    return render_groups([(snapshot, labels)], prefix=prefix)


# ----------------------------------------------------------------------
# Parsing (the validation inverse)
# ----------------------------------------------------------------------

def _parse_value(token: str, where: str) -> float:
    mapped = {"+Inf": math.inf, "-Inf": -math.inf, "NaN": math.nan}
    if token in mapped:
        return mapped[token]
    try:
        return float(token)
    except ValueError:
        raise TelemetryError(
            f"{where}: unparseable sample value {token!r}",
            context={"subsystem": "telemetry",
                     "component": "expose"}) from None


def _parse_labels(text: str, where: str) -> LabelItems:
    items: List[Tuple[str, str]] = []
    i = 0
    while i < len(text):
        eq = text.find("=", i)
        if eq < 0:
            raise TelemetryError(
                f"{where}: malformed label block",
                context={"subsystem": "telemetry",
                         "component": "expose"})
        name = text[i:eq].strip()
        if eq + 1 >= len(text) or text[eq + 1] != '"':
            raise TelemetryError(
                f"{where}: label value must be quoted",
                context={"subsystem": "telemetry",
                         "component": "expose"})
        j = eq + 2
        value_chars: List[str] = []
        while j < len(text):
            ch = text[j]
            if ch == "\\" and j + 1 < len(text):
                nxt = text[j + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                j += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            j += 1
        else:
            raise TelemetryError(
                f"{where}: unterminated label value",
                context={"subsystem": "telemetry",
                         "component": "expose"})
        items.append((name, "".join(value_chars)))
        i = j + 1
        if i < len(text) and text[i] == ",":
            i += 1
    return tuple(sorted(items))


def _valid_name(name: str) -> bool:
    return bool(name) and name[0] in _NAME_FIRST_OK and all(
        ch in _NAME_OK for ch in name)


def parse_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Parse exposition text back into typed metric families.

    Returns ``{family_name: {"type": str, "help": str | None,
    "samples": {(sample_name, label_items): value}}}`` where histogram
    sample names keep their ``_bucket``/``_sum``/``_count`` suffixes
    and the family name is the base.  Validates as it goes — duplicate
    ``TYPE`` lines, illegal names, unparseable values, non-cumulative
    histogram buckets and a ``+Inf`` bucket disagreeing with
    ``_count`` all raise :class:`~repro.errors.TelemetryError` — so a
    successful parse *is* the well-formedness assertion CI wants.
    """
    families: Dict[str, Dict[str, object]] = {}

    def family_for(name: str) -> Dict[str, object]:
        # A histogram sample belongs to its base family.
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                candidate = name[: -len(suffix)]
                if candidate in families and \
                        families[candidate]["type"] == "histogram":
                    base = candidate
                break
        return families.setdefault(
            base, {"type": "untyped", "help": None, "samples": {}})

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        where = f"exposition line {lineno}"
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            family_for(name)["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split()
            if len(parts) != 2:
                raise TelemetryError(
                    f"{where}: malformed TYPE line",
                    context={"subsystem": "telemetry",
                             "component": "expose"})
            name, kind = parts
            if kind not in ("counter", "gauge", "histogram",
                            "summary", "untyped"):
                raise TelemetryError(
                    f"{where}: unknown metric type {kind!r}",
                    context={"subsystem": "telemetry",
                             "component": "expose"})
            if not _valid_name(name):
                raise TelemetryError(
                    f"{where}: illegal metric name {name!r}",
                    context={"subsystem": "telemetry",
                             "component": "expose"})
            fam = families.setdefault(
                name, {"type": "untyped", "help": None, "samples": {}})
            if fam["type"] != "untyped":
                raise TelemetryError(
                    f"{where}: duplicate TYPE for {name!r}",
                    context={"subsystem": "telemetry",
                             "component": "expose"})
            fam["type"] = kind
            continue
        if line.startswith("#"):
            continue  # comment
        # Sample line: name[{labels}] value [timestamp]
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise TelemetryError(
                    f"{where}: unbalanced label braces",
                    context={"subsystem": "telemetry",
                             "component": "expose"})
            name = line[:brace]
            labels = _parse_labels(line[brace + 1:close], where)
            remainder = line[close + 1:].strip()
        else:
            fields = line.split()
            if len(fields) < 2:
                raise TelemetryError(
                    f"{where}: sample line needs a value",
                    context={"subsystem": "telemetry",
                             "component": "expose"})
            name, remainder = fields[0], " ".join(fields[1:])
            labels = ()
        if not _valid_name(name):
            raise TelemetryError(
                f"{where}: illegal sample name {name!r}",
                context={"subsystem": "telemetry",
                         "component": "expose"})
        value_token = remainder.split()[0] if remainder.split() else ""
        value = _parse_value(value_token, where)
        samples = family_for(name)["samples"]
        key = (name, labels)
        if key in samples:  # type: ignore[operator]
            raise TelemetryError(
                f"{where}: duplicate sample {name!r} {dict(labels)}",
                context={"subsystem": "telemetry",
                         "component": "expose"})
        samples[key] = value  # type: ignore[index]

    _validate_histograms(families)
    return families


def _validate_histograms(
        families: Dict[str, Dict[str, object]]) -> None:
    for base, fam in families.items():
        if fam["type"] != "histogram":
            continue
        samples: Dict[Tuple[str, LabelItems], float] = \
            fam["samples"]  # type: ignore[assignment]
        # Group buckets per non-le label signature.
        series: Dict[LabelItems, List[Tuple[float, float]]] = {}
        counts: Dict[LabelItems, float] = {}
        for (name, labels), value in samples.items():
            rest = tuple(item for item in labels if item[0] != "le")
            if name == base + "_bucket":
                le = dict(labels).get("le")
                if le is None:
                    raise TelemetryError(
                        f"{base}: bucket sample without an le label",
                        context={"subsystem": "telemetry",
                                 "component": "expose"})
                series.setdefault(rest, []).append(
                    (_parse_value(le, base), value))
            elif name == base + "_count":
                counts[rest] = value
        for rest, buckets in series.items():
            buckets.sort(key=lambda item: item[0])
            cumulative = [v for _, v in buckets]
            if any(b < a for a, b in zip(cumulative, cumulative[1:])):
                raise TelemetryError(
                    f"{base}: bucket counts are not cumulative",
                    context={"subsystem": "telemetry",
                             "component": "expose",
                             "labels": dict(rest)})
            if not buckets or not math.isinf(buckets[-1][0]):
                raise TelemetryError(
                    f"{base}: histogram series lacks a +Inf bucket",
                    context={"subsystem": "telemetry",
                             "component": "expose",
                             "labels": dict(rest)})
            total = counts.get(rest)
            if total is None or buckets[-1][1] != total:
                raise TelemetryError(
                    f"{base}: +Inf bucket ({buckets[-1][1]}) disagrees "
                    f"with _count ({total})",
                    context={"subsystem": "telemetry",
                             "component": "expose",
                             "labels": dict(rest)})


def histogram_quantile(edges: Sequence[float],
                       counts: Sequence[int],
                       quantile: float) -> float:
    """Estimate a quantile from fixed-bucket histogram counts.

    ``edges``/``counts`` are the registry snapshot shape (``counts``
    has ``len(edges) + 1`` entries, non-cumulative).  Uses the standard
    Prometheus estimator: linear interpolation inside the bucket the
    quantile falls in, clamped to the last finite edge for the
    overflow bucket.  Returns 0.0 for an empty histogram.
    """
    if not 0.0 <= quantile <= 1.0:
        raise TelemetryError(
            f"quantile must be in [0, 1], got {quantile}",
            context={"subsystem": "telemetry", "component": "expose"})
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = quantile * total
    cumulative = 0.0
    for index, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank:
            if index >= len(edges):
                return float(edges[-1])  # overflow bucket: clamp
            upper = float(edges[index])
            lower = float(edges[index - 1]) if index > 0 else 0.0
            if count == 0 or math.isinf(upper):
                return upper if not math.isinf(upper) else lower
            fraction = (rank - (cumulative - count)) / count
            return lower + (upper - lower) * fraction
    return float(edges[-1])


# ----------------------------------------------------------------------
# Offline snapshot builder (``repro stats --format prom``)
# ----------------------------------------------------------------------

def snapshot_from_events(events: Sequence[Mapping[str, object]]) -> dict:
    """Build a registry snapshot from parsed telemetry JSONL events.

    Event counts become ``stream.events.<kind>`` counters (plus a
    ``stream.events`` total — exposed as
    ``repro_stream_events_total``), sessions a ``stream.sessions``
    gauge,
    fault sites ``stream.faults.<site>`` counters, and span durations
    are re-bucketed into the *same* ``span.<name>_seconds`` histograms
    the live hub maintains — so an offline stream and the hub's own
    registry render identical span families.
    """
    from .metrics import MetricsRegistry
    from .profiling import SPAN_BUCKET_EDGES_S

    registry = MetricsRegistry()
    sessions = set()
    registry.counter("stream.events")
    for event in events:
        kind = str(event.get("kind", "unknown"))
        registry.counter("stream.events").inc()
        registry.counter(f"stream.events.{kind}").inc()
        if "session" in event:
            sessions.add(event["session"])
        data = event.get("data", {})
        if not isinstance(data, Mapping):
            continue
        if kind == "fault_injected":
            site = str(data.get("site", "unknown"))
            registry.counter(f"stream.faults.{site}").inc()
        elif kind == "span":
            name = str(data.get("name", "unknown"))
            registry.histogram(f"span.{name}_seconds",
                               SPAN_BUCKET_EDGES_S).observe(
                float(data.get("duration_s", 0.0)))  # type: ignore[arg-type]
    registry.gauge("stream.sessions").set(len(sessions))
    return registry.as_dict()

