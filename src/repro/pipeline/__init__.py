"""The typed component pipeline behind every session.

This package is the seam between *what* a session runs (declarative
names and specs) and *how* it runs (wired component graphs):

``interfaces``
    :class:`typing.Protocol` contracts for each pipeline stage
    (input source, frame source, meter, governor, panel, power
    accountant).
``registry``
    The generic string-keyed factory :class:`Registry`.
``governors`` / ``apps`` / ``panels``
    The three concrete registries — single sources of truth for the
    selector strings accepted by the CLI, the batch runner, scenarios
    and every experiment.  Extensions register from their own module;
    no core file needs editing.
``spec``
    :class:`SessionSpec`, the JSON-round-trippable twin of
    :class:`~repro.sim.session.SessionConfig` — the form a session
    takes when it crosses a process or file boundary.
``builder``
    :class:`SessionBuilder`, the staged assembly that
    :func:`~repro.sim.session.run_session` now delegates to.
``baseline``
    The shared stock-device (``fixed``) baseline helper the figures
    compare against.

See ``docs/architecture.md`` for the layering diagram and the
add-a-governor-in-one-file recipe.
"""

from .baseline import fixed_baseline_config, run_fixed_baseline
from .builder import (
    SCROLL_MOVE_EVENT_HZ,
    SessionBuilder,
    run_spec,
)
from .governors import (
    GOVERNOR_E3,
    GOVERNOR_FIXED,
    GOVERNOR_NAIVE,
    GOVERNOR_ORACLE,
    GOVERNOR_SECTION,
    GOVERNOR_SECTION_BOOST,
    GOVERNOR_SECTION_HYSTERESIS,
    GOVERNORS,
    GovernorContext,
    GovernorFactory,
    build_governor,
    governor_names,
)
from .apps import (
    APPS,
    AppFactory,
    WorkloadProfile,
    resolve_app_profile,
    resolve_workload,
)
from .interfaces import (
    FrameSource,
    GovernorPolicy,
    InputSource,
    Meter,
    Panel,
    PowerAccountant,
    TouchListener,
    VsyncListener,
)
from .panels import PANELS, PanelFactory, panel_key_for
from .registry import Registry
from .spec import SPEC_SCHEMA, SessionSpec, spec_roundtrip

__all__ = [
    # registries
    "Registry",
    "GOVERNORS",
    "APPS",
    "PANELS",
    # governor layer
    "GovernorContext",
    "GovernorFactory",
    "build_governor",
    "governor_names",
    "GOVERNOR_FIXED",
    "GOVERNOR_SECTION",
    "GOVERNOR_SECTION_BOOST",
    "GOVERNOR_SECTION_HYSTERESIS",
    "GOVERNOR_NAIVE",
    "GOVERNOR_ORACLE",
    "GOVERNOR_E3",
    # app layer
    "AppFactory",
    "WorkloadProfile",
    "resolve_workload",
    "resolve_app_profile",
    # panel layer
    "PanelFactory",
    "panel_key_for",
    # spec + builder
    "SessionSpec",
    "SPEC_SCHEMA",
    "spec_roundtrip",
    "SessionBuilder",
    "run_spec",
    "SCROLL_MOVE_EVENT_HZ",
    # baseline helper
    "fixed_baseline_config",
    "run_fixed_baseline",
    # stage protocols
    "InputSource",
    "FrameSource",
    "Meter",
    "GovernorPolicy",
    "Panel",
    "PowerAccountant",
    "TouchListener",
    "VsyncListener",
]
