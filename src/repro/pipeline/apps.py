"""The app registry: workload name -> profile factory.

Builtins are the full 30-app catalog (every
:func:`repro.apps.catalog.all_app_names` entry) plus the paper's
worst-case ``nexus-revamped`` stressor wallpaper, so every name that
worked before works unchanged — and a custom workload registers from
its own module::

    from repro.apps.profile import AppCategory, AppProfile
    from repro.pipeline import APPS

    @APPS.register("My Benchmark App")
    def make_my_app() -> AppProfile:
        return AppProfile(name="My Benchmark App",
                          category=AppCategory.GENERAL,
                          idle_content_fps=2.0, active_content_fps=30.0)

Unknown names raise :class:`~repro.errors.WorkloadError` (the same
family the catalog lookup raised), now listing every registered key.
"""

from __future__ import annotations

from typing import Callable, Union

from ..apps.catalog import all_app_names, app_profile
from ..apps.profile import AppProfile
from ..apps.wallpaper import WallpaperProfile, nexus_revamped
from ..errors import WorkloadError
from ..sim.scenario import ScenarioWorkload
from ..traces.profile import TRACE_APP_PREFIX, TraceProfile
from .registry import Registry

#: What an app factory may produce (wallpapers and trace profiles
#: adapt via their ``as_app_profile`` methods).
WorkloadProfile = Union[AppProfile, WallpaperProfile, TraceProfile]

#: Factory signature every entry in :data:`APPS` satisfies.
AppFactory = Callable[[], WorkloadProfile]

#: The app registry (catalog + wallpaper builtins + extensions).
APPS: Registry[AppFactory] = Registry("application",
                                      error_type=WorkloadError)


def _make_catalog_factory(name: str) -> AppFactory:
    def factory() -> WorkloadProfile:
        return app_profile(name)
    factory.__name__ = f"make_{name}"
    return factory


for _name in all_app_names():
    APPS.register(_name, _make_catalog_factory(_name), builtin=True)
APPS.register("nexus-revamped", nexus_revamped, builtin=True)
del _name


def resolve_workload(
        app: Union[str, WorkloadProfile, ScenarioWorkload]
) -> Union[WorkloadProfile, ScenarioWorkload]:
    """The profile object behind a session's ``app`` field.

    Strings go through the registry — except the ``"trace:<path>"``
    scheme, which names a recorded frame-trace file directly (no
    registration needed; the string form survives every spec and
    batch-wire boundary unchanged).  Profile objects pass through.  A
    :class:`WallpaperProfile` result means the session should run a
    :class:`~repro.apps.wallpaper.LiveWallpaper`; a
    :class:`~repro.traces.profile.TraceProfile` result means it should
    replay the trace through a
    :class:`~repro.traces.source.TraceFrameSource`; a
    :class:`~repro.sim.scenario.ScenarioWorkload` switches apps.
    """
    if isinstance(app, str):
        if app.startswith(TRACE_APP_PREFIX):
            return TraceProfile(app[len(TRACE_APP_PREFIX):])
        return APPS.get(app)()
    return app


def resolve_app_profile(
        app: Union[str, WorkloadProfile, ScenarioWorkload]) -> AppProfile:
    """Like :func:`resolve_workload`, flattened to an
    :class:`~repro.apps.profile.AppProfile` (wallpapers, traces and
    scenarios adapted)."""
    workload = resolve_workload(app)
    if isinstance(workload, AppProfile):
        return workload
    return workload.as_app_profile()
