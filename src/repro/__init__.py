"""repro — Content-centric Display Energy Management for Mobile Devices.

A full offline reproduction of Kim, Jung & Cha (DAC 2014): the
**content rate** metric, its low-cost measurement via double buffering
and grid-based framebuffer comparison, and the **section-based
refresh-rate control** with **touch boosting** that cuts display-path
power without visible quality loss — all running on a simulated
Android-style display pipeline (surfaces, compositor, V-Sync, panel
with discrete refresh levels, calibrated power model, Monkey-style
input, and a 30-app synthetic workload catalog).

Quickstart
----------
>>> from repro import SessionConfig, run_session
>>> baseline = run_session(SessionConfig(app="Jelly Splash",
...                                      governor="fixed",
...                                      duration_s=30.0, seed=1))
>>> governed = run_session(SessionConfig(app="Jelly Splash",
...                                      governor="section+boost",
...                                      duration_s=30.0, seed=1))
>>> saved = (baseline.power_report().mean_power_mw
...          - governed.power_report().mean_power_mw)
>>> saved > 0
True
"""

from .apps import (
    AppCategory,
    AppProfile,
    Application,
    GAME_APP_NAMES,
    GENERAL_APP_NAMES,
    LiveWallpaper,
    WallpaperProfile,
    all_app_names,
    app_profile,
    nexus_revamped,
)
from .baselines import (
    E3ScrollGovernor,
    FixedRefreshGovernor,
    NaiveMatchGovernor,
    OracleGovernor,
)
from .core import (
    ContentRateMeter,
    DoubleBuffer,
    GridComparator,
    GridSpec,
    MeterConfig,
    QualityReport,
    SampledDoubleBuffer,
    Section,
    SectionBasedGovernor,
    SectionTable,
    TouchBoostGovernor,
    compute_quality,
)
from .display import (
    DisplayPanel,
    FIXED_60_PANEL,
    GALAXY_S3_PANEL,
    LTPO_120_PANEL,
    PanelSpec,
    THREE_LEVEL_PANEL,
    panel_preset,
    panel_preset_names,
)
from .core.watchdog import GovernorWatchdog, WatchdogConfig
from .errors import (
    ConfigurationError,
    DisplayError,
    FaultInjectionError,
    GraphicsError,
    MeteringError,
    ReproError,
    SimulationError,
    SpecError,
    TelemetryError,
    WorkerCrashError,
    WorkloadError,
)
from .faults import (
    FaultInjector,
    FaultPlan,
    FaultRecord,
    FaultWindow,
)
from .graphics import Framebuffer, Surface, SurfaceManager
from .inputs import (
    MonkeyConfig,
    MonkeyScriptGenerator,
    TouchEvent,
    TouchKind,
    TouchScript,
    TouchSource,
)
from .pipeline import (
    APPS,
    GOVERNORS,
    PANELS,
    GovernorContext,
    Registry,
    SessionBuilder,
    SessionSpec,
    build_governor,
    fixed_baseline_config,
    governor_names,
    run_fixed_baseline,
    run_spec,
    spec_roundtrip,
)
from .power import (
    MonsoonMeter,
    PowerCalibration,
    PowerModel,
    PowerReport,
    galaxy_s3_calibration,
)
from .sim import Simulator
from .sim.batch import (
    batch_failure_summary,
    batch_metrics,
    batch_telemetry_summary,
    format_batch_failures,
    is_failure_record,
    make_failure_record,
    run_batch,
    run_session_summary,
)
from .sim.scenario import (
    ScenarioConfig,
    ScenarioResult,
    ScenarioSegment,
    run_scenario,
)
from .sim.session import (
    GOVERNOR_CHOICES,
    SessionConfig,
    SessionResult,
    run_session,
)
from .telemetry import (
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    RingBufferSink,
    TelemetryConfig,
    TelemetryEvent,
    TelemetryHub,
    TelemetrySink,
    build_hub,
    format_stats,
    parse_jsonl,
    summarize_events,
    summarize_jsonl,
    timed,
)

__version__ = "1.0.0"

__all__ = [
    "AppCategory",
    "AppProfile",
    "Application",
    "ConfigurationError",
    "ContentRateMeter",
    "Counter",
    "DisplayError",
    "DisplayPanel",
    "DoubleBuffer",
    "E3ScrollGovernor",
    "FaultInjectionError",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "FaultWindow",
    "FIXED_60_PANEL",
    "FixedRefreshGovernor",
    "Framebuffer",
    "GALAXY_S3_PANEL",
    "GAME_APP_NAMES",
    "GENERAL_APP_NAMES",
    "GOVERNOR_CHOICES",
    "Gauge",
    "GovernorWatchdog",
    "GraphicsError",
    "GridComparator",
    "GridSpec",
    "Histogram",
    "JsonlSink",
    "LTPO_120_PANEL",
    "LiveWallpaper",
    "MeterConfig",
    "MeteringError",
    "MetricsRegistry",
    "MonkeyConfig",
    "MonkeyScriptGenerator",
    "MonsoonMeter",
    "NaiveMatchGovernor",
    "NullSink",
    "OracleGovernor",
    "PanelSpec",
    "PowerCalibration",
    "PowerModel",
    "PowerReport",
    "APPS",
    "GOVERNORS",
    "GovernorContext",
    "PANELS",
    "QualityReport",
    "Registry",
    "ReproError",
    "RingBufferSink",
    "SampledDoubleBuffer",
    "ScenarioConfig",
    "ScenarioResult",
    "ScenarioSegment",
    "Section",
    "SectionBasedGovernor",
    "SectionTable",
    "SessionBuilder",
    "SessionConfig",
    "SessionResult",
    "SessionSpec",
    "SimulationError",
    "SpecError",
    "Simulator",
    "Surface",
    "SurfaceManager",
    "THREE_LEVEL_PANEL",
    "TelemetryConfig",
    "TelemetryError",
    "TelemetryEvent",
    "TelemetryHub",
    "TelemetrySink",
    "TouchBoostGovernor",
    "TouchEvent",
    "TouchKind",
    "TouchScript",
    "TouchSource",
    "WallpaperProfile",
    "WatchdogConfig",
    "WorkerCrashError",
    "WorkloadError",
    "all_app_names",
    "app_profile",
    "batch_failure_summary",
    "batch_metrics",
    "batch_telemetry_summary",
    "build_governor",
    "build_hub",
    "compute_quality",
    "fixed_baseline_config",
    "format_batch_failures",
    "format_stats",
    "galaxy_s3_calibration",
    "governor_names",
    "is_failure_record",
    "make_failure_record",
    "nexus_revamped",
    "panel_preset",
    "panel_preset_names",
    "parse_jsonl",
    "run_batch",
    "run_fixed_baseline",
    "run_scenario",
    "run_session",
    "run_session_summary",
    "run_spec",
    "spec_roundtrip",
    "summarize_events",
    "summarize_jsonl",
    "timed",
    "__version__",
]
