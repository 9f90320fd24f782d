"""Latching a lone full-screen surface is invisible: latch ≡ blit.

When the stack is one surface covering the screen, the compositor
presents the surface's own buffer and hands the surface the frame it
replaced as its next back buffer, restored lazily from the presented
frame.  Every other stack is blitted.  The property below drives the
same random sequence of renders, posts, foreign writes, overlay
changes and app switches twice, once as the program runs and once with
the latch declined (every composite blitted), and requires the same
presented frames, the same ``previous_pixels`` seen by a framebuffer
listener and the same composition counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphics.compositor import SurfaceManager
from repro.graphics.framebuffer import Framebuffer
from repro.graphics.renderers import (
    FullScreenVideoRenderer,
    MovingSpritesRenderer,
    SceneChangeRenderer,
    ScrollRenderer,
    SmallRegionRenderer,
    StaticRenderer,
)
from repro.graphics.surface import Surface
from repro.traces.format import TraceBuilder

#: Frame geometry: 22 rows leave a partial 4-pixel video block row.
WIDTH, HEIGHT = 24, 22
#: The two full-screen apps an app switch alternates between.
APPS = ("app0", "app1")


# The two helper renderers below are duck-typed rather than Renderer
# subclasses, so they stay out of the renderer family other tests walk.


class _FillRenderer:
    """``Surface.fill`` with a colour from the generator; about one
    draw in three repeats the last colour, so some frames are equal."""

    def __init__(self) -> None:
        self.color = (0, 0, 0)

    def render(self, surface, rng):
        if rng.random() < 2 / 3:
            self.color = tuple(int(c) * 120
                               for c in rng.integers(0, 3, 3))
        surface.fill(self.color)


class _TraceRenderer:
    """Applies recorded frame deltas in order, as trace replay does."""

    def __init__(self) -> None:
        rng = np.random.default_rng(5)
        builder = TraceBuilder(WIDTH, HEIGHT)
        frame = np.zeros((HEIGHT, WIDTH, 3), dtype=np.uint8)
        for index in range(12):
            if index % 3:  # a block changes; every third frame repeats
                y, x = (int(v) for v in rng.integers(0, 10, 2))
                frame[y:y + 8, x:x + 9] = rng.integers(0, 256, 3)
            builder.add_frame(0.1 * index, frame)
        self.records = builder.build(2.0).records
        self.cursor = 0

    def render(self, surface, rng):
        record = self.records[self.cursor % len(self.records)]
        self.cursor += 1
        if record.apply(surface.pixels):
            surface.mark_damaged()


RENDERERS = {
    "static": StaticRenderer,
    "scroll": lambda: ScrollRenderer(scroll_px=3),
    "scene": SceneChangeRenderer,
    "video": lambda: FullScreenVideoRenderer(block_px=4),
    "small": lambda: SmallRegionRenderer(region_height=3, region_width=5,
                                         y=2, x=4),
    "sprites": lambda: MovingSpritesRenderer(num_dots=3, dot_px=2,
                                             step_px=2),
    "fill": _FillRenderer,
    "trace": _TraceRenderer,
}

_OPS = st.one_of(
    st.tuples(st.just("render"), st.sampled_from(sorted(RENDERERS))),
    st.tuples(st.just("idle"), st.none()),
    st.tuples(st.just("foreign"), st.integers(0, 255)),
    st.tuples(st.just("bar"), st.none()),
    st.tuples(st.just("switch"), st.none()),
)
_STEPS = st.lists(st.tuples(_OPS, st.booleans()), min_size=1,
                  max_size=40)


def _run(steps):
    """Drive ``steps`` and return everything a reader could observe."""
    fb = Framebuffer(WIDTH, HEIGHT)
    comp = SurfaceManager(fb)
    apps = {name: Surface(WIDTH, HEIGHT, name=name) for name in APPS}
    bar = Surface(WIDTH, 3, z_order=1, name="status_bar")
    renderers = {}
    rngs = {name: np.random.default_rng(index)
            for index, name in enumerate(APPS)}
    seen = []
    fb.add_update_listener(lambda time, framebuffer: seen.append(
        (framebuffer.previous_pixels.tobytes(),
         framebuffer.pixels.tobytes())))
    active = apps[APPS[0]]
    comp.register_surface(active)
    observed = []
    for step, ((op, arg), vsync) in enumerate(steps):
        if op == "render":
            key = (active.name, arg)
            if key not in renderers:
                renderers[key] = RENDERERS[arg]()
            renderers[key].render(active, rngs[active.name])
            comp.post(active)
        elif op == "idle":
            comp.post(active, content_changed=False)
        elif op == "foreign":
            fb.write(np.full(fb.shape, arg, dtype=np.uint8), step + 0.5)
        elif op == "bar":
            if bar in comp.surfaces:
                comp.unregister_surface(bar)
            else:
                comp.register_surface(bar)
                bar.fill((200, 10 * (step % 20), 90))
                comp.post(bar)
            comp.post(active, content_changed=False)
        else:
            # An app switch: the app coming back was unregistered
            # while the other drew, and reposts what it held.
            comp.unregister_surface(active)
            active = apps[APPS[1]] if active is apps[APPS[0]] \
                else apps[APPS[0]]
            comp.register_surface(active)
            comp.post(active, content_changed=False)
        if vsync:
            updated = comp.on_vsync(float(step + 1))
            observed.append((step, updated, fb.pixels.tobytes(),
                             fb.generation, fb.last_write_unchanged,
                             comp.compositions,
                             comp.redundant_compositions))
    contents = {name: surface.pixels.tobytes()
                for name, surface in apps.items()}
    return observed, seen, contents


def _blit_only(steps):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SurfaceManager, "_latched_surface",
                      lambda self, rects: None)
        return _run(steps)


class TestLatchEqualsBlit:
    @settings(deadline=None, max_examples=150)
    @given(_STEPS)
    def test_presented_frames_and_counters_match(self, steps):
        latched_observed, latched_seen, latched_contents = _run(steps)
        blit_observed, blit_seen, blit_contents = _blit_only(steps)
        assert latched_observed == blit_observed
        assert latched_seen == blit_seen
        assert latched_contents == blit_contents

    def test_switch_back_after_the_other_app_drew(self):
        # app0 is latched with a pending restore, is switched out, and
        # app1 draws into the buffer app0's restore came from.
        steps = [(("render", "fill"), True), (("render", "video"), True),
                 (("switch", None), True), (("render", "video"), True),
                 (("render", "scroll"), True), (("switch", None), True)]
        assert _run(steps) == _blit_only(steps)

    def test_renderer_table_covers_every_builtin_renderer(self):
        built = {type(make()) for make in RENDERERS.values()}
        assert {StaticRenderer, ScrollRenderer, SceneChangeRenderer,
                FullScreenVideoRenderer, SmallRegionRenderer,
                MovingSpritesRenderer} <= built


class TestLatchPath:
    """What the latch moves, and what it leaves alone."""

    @staticmethod
    def _latched():
        fb = Framebuffer(WIDTH, HEIGHT)
        comp = SurfaceManager(fb)
        surface = Surface(WIDTH, HEIGHT, name="app")
        comp.register_surface(surface)
        return fb, comp, surface

    def test_lone_full_screen_surface_goes_on_screen_itself(self):
        fb, comp, surface = self._latched()
        surface.fill((1, 2, 3))
        drawn = surface.pixels
        comp.post(surface)
        comp.on_vsync(1.0)
        assert fb.pixels is drawn
        assert surface.pixels is not drawn
        assert (surface.pixels == [1, 2, 3]).all()
        assert comp._scratch is None  # no blit, no blit buffer

    def test_overlay_stack_is_blitted(self):
        fb, comp, surface = self._latched()
        bar = Surface(WIDTH, 3, z_order=1, name="bar")
        comp.register_surface(bar)
        surface.fill((1, 2, 3))
        drawn = surface.pixels
        comp.post(surface)
        comp.on_vsync(1.0)
        assert fb.pixels is not drawn
        assert surface.pixels is drawn
        assert comp._scratch is not None

    def test_full_overwrite_skips_the_restore(self, monkeypatch):
        fb, comp, surface = self._latched()
        surface.fill((9, 9, 9))
        comp.post(surface)
        comp.on_vsync(1.0)
        copies = []
        copyto = np.copyto

        def counting_copyto(dst, src, *args, **kwargs):
            copies.append(dst.shape)
            return copyto(dst, src, *args, **kwargs)

        monkeypatch.setattr(np, "copyto", counting_copyto)
        FullScreenVideoRenderer(block_px=4).render(
            surface, np.random.default_rng(1))
        comp.post(surface)
        comp.on_vsync(2.0)
        surface.fill((4, 4, 4))
        assert copies == []
        # A renderer that keeps pixels pays the one restore copy.
        comp.post(surface)
        comp.on_vsync(3.0)
        SmallRegionRenderer().render(surface, np.random.default_rng(1))
        assert copies == [surface.pixels.shape]

    def test_unregister_resolves_the_restore(self):
        fb, comp, surface = self._latched()
        surface.fill((8, 8, 8))
        comp.post(surface)
        comp.on_vsync(1.0)
        on_screen = fb.pixels
        comp.unregister_surface(surface)
        # The restore's source may be reused from now on: the
        # surface's content must not move with it.
        on_screen.flags.writeable = True
        on_screen[...] = 0
        assert (surface.pixels == 8).all()
