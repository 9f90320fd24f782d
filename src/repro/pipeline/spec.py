"""Declarative, JSON-round-trippable session specification.

A :class:`SessionSpec` is the plain-data twin of
:class:`~repro.sim.session.SessionConfig`: every field a session needs,
expressed only in JSON types (strings, numbers, booleans, dicts,
lists).  Where a ``SessionConfig`` holds live objects — an
:class:`~repro.apps.profile.AppProfile`, a
:class:`~repro.display.spec.PanelSpec`, a
:class:`~repro.faults.plan.FaultPlan` — the spec holds either a
registry key (``"galaxy-s3"``) or a nested field dict.  That makes the
spec the form a session takes when it crosses a boundary: written to
disk, embedded in a report, or pickled to a parallel batch worker.

The mapping is lossless both ways::

    spec = SessionSpec.from_config(config)
    assert spec.to_config() == config
    assert SessionSpec.from_json(spec.to_json()) == spec

Documents are strict: unknown keys — top-level or nested — are
rejected with a :class:`~repro.errors.SpecError` listing the valid
keys, so a typo'd field fails loudly instead of silently running the
default.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import typing
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Type, TypeVar, Union

from ..apps.profile import AppProfile
from ..apps.wallpaper import WallpaperProfile
from ..core.content_rate import MeterConfig
from ..core.watchdog import WatchdogConfig
from ..display.spec import PanelSpec
from ..errors import SpecError
from ..faults.plan import FaultPlan
from ..inputs.monkey import MonkeyConfig
from ..sim.scenario import ScenarioWorkload
from ..telemetry.hub import TelemetryConfig
from ..traces.profile import TraceProfile
from .panels import PANELS, panel_key_for

#: Schema tag embedded in every serialized spec document.
SPEC_SCHEMA = "repro-session/1"

#: Discriminator values for the ``app`` field's inline-object form.
APP_TYPE_PROFILE = "profile"
APP_TYPE_WALLPAPER = "wallpaper"
APP_TYPE_TRACE = "trace"
APP_TYPE_SCENARIO = "scenario"

D = TypeVar("D")


# ----------------------------------------------------------------------
# Generic dataclass <-> JSON-dict codec
# ----------------------------------------------------------------------
def _encode_value(value: Any) -> Any:
    """One value to its JSON form (enums by value, tuples as lists)."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return encode_dataclass(value)
    if isinstance(value, tuple):
        return [_encode_value(item) for item in value]
    return value


def encode_dataclass(obj: Any) -> Dict[str, Any]:
    """A dataclass instance as a JSON-ready field dict."""
    return {f.name: _encode_value(getattr(obj, f.name))
            for f in dataclasses.fields(obj)}


def _decode_value(tp: Any, value: Any, where: str) -> Any:
    """One JSON value back to the typed form ``tp`` describes."""
    origin = typing.get_origin(tp)
    if origin is Union:
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if value is None:
            return None
        if len(args) == 1:
            return _decode_value(args[0], value, where)
        # An object decodes to the union's one dataclass (an AppProfile).
        classes = [a for a in args if dataclasses.is_dataclass(a)]
        if isinstance(value, Mapping) and len(classes) == 1:
            return decode_dataclass(classes[0], value, where)
        return value
    if origin is tuple:
        args = typing.get_args(tp)
        elem = args[0] if args else Any
        if not isinstance(value, (list, tuple)):
            raise SpecError(
                f"{where} must be a list, got {type(value).__name__}")
        return tuple(_decode_value(elem, item, f"{where}[{i}]")
                     for i, item in enumerate(value))
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError:
            choices = tuple(member.value for member in tp)
            raise SpecError(f"{where}: unknown value {value!r}; "
                            f"choices: {choices}") from None
    if isinstance(tp, type) and dataclasses.is_dataclass(tp):
        return decode_dataclass(tp, value, where)
    return value


def decode_dataclass(cls: Type[D], data: Any, where: str) -> D:
    """A field dict back to a ``cls`` instance.

    Unknown keys raise :class:`~repro.errors.SpecError` naming both the
    offenders and the valid keys; missing keys take the dataclass
    defaults.  Field values decode recursively (nested dataclasses,
    enums by value, tuples from lists).
    """
    if not isinstance(data, Mapping):
        raise SpecError(
            f"{where} must be an object, got {type(data).__name__}")
    valid = tuple(f.name for f in dataclasses.fields(cls))
    unknown = tuple(key for key in data if key not in valid)
    if unknown:
        raise SpecError(f"{where}: unknown keys {unknown}; "
                        f"valid keys: {valid}")
    hints = typing.get_type_hints(cls)
    kwargs = {name: _decode_value(hints[name], value, f"{where}.{name}")
              for name, value in data.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise SpecError(f"{where}: {exc}") from None


# ----------------------------------------------------------------------
# App / panel field codecs (registry key or inline object)
# ----------------------------------------------------------------------
def _encode_app(
        app: Union[str, AppProfile, WallpaperProfile, TraceProfile,
                   ScenarioWorkload]
) -> Union[str, Dict[str, Any]]:
    if isinstance(app, str):
        return app
    if isinstance(app, WallpaperProfile):
        return {"type": APP_TYPE_WALLPAPER, **encode_dataclass(app)}
    if isinstance(app, TraceProfile):
        return {"type": APP_TYPE_TRACE, **encode_dataclass(app)}
    if isinstance(app, ScenarioWorkload):
        return {"type": APP_TYPE_SCENARIO, **encode_dataclass(app)}
    return {"type": APP_TYPE_PROFILE, **encode_dataclass(app)}


def _decode_app(
        value: Union[str, Mapping[str, Any]]
) -> Union[str, AppProfile, WallpaperProfile, TraceProfile,
           ScenarioWorkload]:
    if isinstance(value, str):
        return value
    if not isinstance(value, Mapping):
        raise SpecError(f"app must be a registry name or an object, "
                        f"got {type(value).__name__}")
    fields = dict(value)
    app_type = fields.pop("type", None)
    if app_type == APP_TYPE_WALLPAPER:
        return decode_dataclass(WallpaperProfile, fields, "app")
    if app_type == APP_TYPE_PROFILE:
        return decode_dataclass(AppProfile, fields, "app")
    if app_type == APP_TYPE_TRACE:
        return decode_dataclass(TraceProfile, fields, "app")
    if app_type == APP_TYPE_SCENARIO:
        return decode_dataclass(ScenarioWorkload, fields, "app")
    raise SpecError(
        f"app object needs 'type' of {APP_TYPE_PROFILE!r}, "
        f"{APP_TYPE_WALLPAPER!r}, {APP_TYPE_TRACE!r} or "
        f"{APP_TYPE_SCENARIO!r}, got {app_type!r}")


def _encode_panel(panel: PanelSpec) -> Union[str, Dict[str, Any]]:
    key = panel_key_for(panel)
    if key is not None:
        return key
    return encode_dataclass(panel)


def _decode_panel(value: Union[str, Mapping[str, Any]]) -> PanelSpec:
    if isinstance(value, str):
        return PANELS.get(value)()
    return decode_dataclass(PanelSpec, value, "panel")


# ----------------------------------------------------------------------
# The spec itself
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionSpec:
    """Plain-data session description (see module docstring).

    Field names and defaults mirror
    :class:`~repro.sim.session.SessionConfig` one-to-one; optional
    object fields (``meter``, ``monkey``, ``faults``,
    ``watchdog_config``, ``telemetry``) are nested field dicts or None
    with exactly the config's None semantics.  Treat instances as
    immutable — the nested dicts are owned by the spec.
    """

    app: Union[str, Dict[str, Any]]
    governor: str = "section+boost"
    duration_s: float = 60.0
    seed: int = 0
    panel: Union[str, Dict[str, Any]] = "galaxy-s3"
    resolution_divisor: int = 8
    meter: Optional[Dict[str, Any]] = None
    decision_period_s: float = 0.2
    boost_hold_s: float = 1.0
    monkey: Optional[Dict[str, Any]] = None
    content_window_s: float = 1.0
    track_oled: bool = False
    status_bar: bool = False
    table_bias: int = 0
    faults: Optional[Dict[str, Any]] = None
    watchdog: bool = True
    watchdog_config: Optional[Dict[str, Any]] = None
    telemetry: Optional[Dict[str, Any]] = None

    # -- SessionConfig <-> SessionSpec ---------------------------------
    @classmethod
    def from_config(cls, config: "SessionConfig") -> "SessionSpec":
        """The spec equivalent of a live config (lossless)."""
        return cls(
            app=_encode_app(config.app),
            governor=config.governor,
            duration_s=config.duration_s,
            seed=config.seed,
            panel=_encode_panel(config.panel),
            resolution_divisor=config.resolution_divisor,
            meter=encode_dataclass(config.meter),
            decision_period_s=config.decision_period_s,
            boost_hold_s=config.boost_hold_s,
            monkey=(encode_dataclass(config.monkey)
                    if config.monkey is not None else None),
            content_window_s=config.content_window_s,
            track_oled=config.track_oled,
            status_bar=config.status_bar,
            table_bias=config.table_bias,
            faults=(encode_dataclass(config.faults)
                    if config.faults is not None else None),
            watchdog=config.watchdog,
            watchdog_config=encode_dataclass(config.watchdog_config),
            telemetry=(encode_dataclass(config.telemetry)
                       if config.telemetry is not None else None),
        )

    def to_config(self) -> "SessionConfig":
        """The live :class:`~repro.sim.session.SessionConfig` this spec
        describes.  Registry keys resolve here (unknown panel or
        governor names fail with the registry's choices-listing
        error)."""
        from ..sim.session import SessionConfig

        return SessionConfig(
            app=_decode_app(self.app),
            governor=self.governor,
            duration_s=self.duration_s,
            seed=self.seed,
            panel=_decode_panel(self.panel),
            resolution_divisor=self.resolution_divisor,
            meter=(decode_dataclass(MeterConfig, self.meter, "meter")
                   if self.meter is not None else MeterConfig()),
            decision_period_s=self.decision_period_s,
            boost_hold_s=self.boost_hold_s,
            monkey=(decode_dataclass(MonkeyConfig, self.monkey, "monkey")
                    if self.monkey is not None else None),
            content_window_s=self.content_window_s,
            track_oled=self.track_oled,
            status_bar=self.status_bar,
            table_bias=self.table_bias,
            faults=(decode_dataclass(FaultPlan, self.faults, "faults")
                    if self.faults is not None else None),
            watchdog=self.watchdog,
            watchdog_config=(
                decode_dataclass(WatchdogConfig, self.watchdog_config,
                                 "watchdog_config")
                if self.watchdog_config is not None
                else WatchdogConfig()),
            telemetry=(
                decode_dataclass(TelemetryConfig, self.telemetry,
                                 "telemetry")
                if self.telemetry is not None else None),
        )

    # -- JSON document <-> SessionSpec ---------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-ready document (schema-tagged; optional
        fields that are None are omitted)."""
        document: Dict[str, Any] = {"schema": SPEC_SCHEMA}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            document[f.name] = value
        return document

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "SessionSpec":
        """Parse a document produced by :meth:`to_json_dict`.

        Rejects wrong schema tags and unknown keys (listing the valid
        ones); missing keys take the spec defaults.
        """
        if not isinstance(data, Mapping):
            raise SpecError(f"session spec must be an object, "
                            f"got {type(data).__name__}")
        fields = dict(data)
        schema = fields.pop("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise SpecError(f"unsupported session spec schema "
                            f"{schema!r}; expected {SPEC_SCHEMA!r}")
        valid = tuple(f.name for f in dataclasses.fields(cls))
        unknown = tuple(key for key in fields if key not in valid)
        if unknown:
            raise SpecError(f"session spec: unknown keys {unknown}; "
                            f"valid keys: {valid}")
        if "app" not in fields:
            raise SpecError("session spec: missing required key 'app'")
        return cls(**fields)

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """The spec serialized as a JSON string."""
        return json.dumps(self.to_json_dict(), indent=indent,
                          sort_keys=True)

    def canonical_json(self) -> str:
        """The spec's canonical wire form: sorted keys, no indent.

        Two equal specs always canonicalize to the same string, which
        is what makes :meth:`digest` a stable identity.
        """
        return self.to_json(indent=None)

    def digest(self) -> str:
        """``sha256:<hex>`` over :meth:`canonical_json`.

        Used by the session service to derive content-addressed job
        ids and by checkpoint verification to pin which spec a
        checkpoint belongs to.
        """
        import hashlib

        payload = self.canonical_json().encode("utf-8")
        return "sha256:" + hashlib.sha256(payload).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "SessionSpec":
        """Parse a string produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"session spec is not valid JSON: "
                            f"{exc}") from None
        return cls.from_json_dict(data)


def spec_roundtrip(config: "SessionConfig") -> "SessionConfig":
    """``config`` -> spec -> JSON -> spec -> config.

    The full boundary-crossing path in one call; used by equivalence
    tests and the bench harness to price the codec.
    """
    return SessionSpec.from_json(
        SessionSpec.from_config(config).to_json()).to_config()


if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.session import SessionConfig
