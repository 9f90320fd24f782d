"""OLED emission power: content-dependent panel draw (extension).

The paper's evaluation device is a Galaxy S3 — an AMOLED panel, whose
emission power depends on what is displayed (each sub-pixel emits its
own light; black is nearly free).  The paper factors this out by
reporting *differences* under the same content, but the related work it
cites (Chameleon, FOCUS, OLED DVS) lives entirely in this
content-dependence.  Since the simulation has real pixels, modelling
emission is natural and lets the benchmarks show that refresh-rate
control and content-colour techniques are *orthogonal* savings.

Model
-----
Per sub-pixel, emission power follows the standard display model: the
stored value is gamma-decoded to luminance, and each channel has its
own efficiency (blue OLED emitters are the least efficient):

    P_frame = base + area_scale * mean over pixels of
              sum_c k_c * (value_c / 255) ** gamma

Coefficients default to magnitudes consistent with published AMOLED
measurements for a 4.8-inch 2012-era panel: a full-white screen around
1 W of emission, full black near zero, with blue costing roughly twice
red.  As with the rest of the power substrate, absolute numbers are
calibration; shapes (white >> black, blue-heavy > red-heavy) are exact
properties of the model.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..sim.tracing import StepSeries
from ..units import ensure_non_negative, ensure_positive


@lru_cache(maxsize=8)
def decode_table(gamma: float) -> np.ndarray:
    """Read-only luminance of every uint8 level at ``gamma``.

    Entry ``v`` is exactly ``(v / 255.0) ** gamma`` as the per-pixel
    array expression computes it, so indexing the table with a frame
    gives the same float64 values bit for bit.
    """
    table = (np.arange(256, dtype=np.float64) / 255.0) ** gamma
    table.flags.writeable = False
    return table


#: Most entries the price memo holds; the oldest is evicted first.
#: An entry is about 120 bytes whatever the frame's resolution.
PRICE_MEMO_MAX_ENTRIES = 4096

#: Frame prices keyed by the sha256 of the model's repr, the frame's
#: shape and its bytes.  A hit returns the very float the miss
#: computed, so no output shows whether the memo was used.
#: :func:`repro.sim.batch.run_batch` empties it when it returns, so no
#: price outlives its batch.  The keys are plain bytes: tuple keys
#: holding the model raised a tournament's peak RSS.
_PRICE_MEMO: Dict[bytes, float] = {}


def clear_price_memo() -> None:
    """Forget every memoised frame price."""
    _PRICE_MEMO.clear()


@dataclass(frozen=True)
class OledModel:
    """Content-dependent emission power model.

    Parameters
    ----------
    full_channel_mw:
        Emission power of the whole panel showing a full-intensity
        (255) frame of each pure channel, ``(red, green, blue)`` in mW.
    gamma:
        Display gamma used to decode stored values to luminance.
    base_mw:
        Emission floor (driver overhead) even on an all-black frame.
    """

    full_channel_mw: Tuple[float, float, float] = (280.0, 350.0, 550.0)
    gamma: float = 2.2
    base_mw: float = 15.0

    def __post_init__(self) -> None:
        if len(self.full_channel_mw) != 3:
            raise ConfigurationError(
                "full_channel_mw needs (red, green, blue)")
        # A tuple of floats keeps the frozen model hashable and its
        # repr (part of the price memo's key) canonical; a list would
        # pass validation but not hash.
        object.__setattr__(self, "full_channel_mw", tuple(
            ensure_non_negative(value, "full_channel_mw entry")
            for value in self.full_channel_mw))
        ensure_positive(self.gamma, "gamma")
        ensure_non_negative(self.base_mw, "base_mw")
        # The model is frozen, so the repr part of every price memo key
        # is fixed: render it once, not once per frame.
        object.__setattr__(self, "_memo_key_head",
                           f"{self!r} ".encode())

    # ------------------------------------------------------------------
    # Frame pricing
    # ------------------------------------------------------------------
    def frame_power_mw(self, pixels: np.ndarray) -> float:
        """Emission power while ``pixels`` is on screen.

        ``pixels`` is any ``(h, w, 3)`` uint8 frame; resolution does
        not matter because the model works in mean per-pixel luminance
        (the panel's area is folded into the channel coefficients).
        Each sub-pixel is decoded by a lookup in :func:`decode_table`.
        Repeats of a C-contiguous frame are served from a memo keyed
        by the frame's digest (see ``_PRICE_MEMO``).
        """
        if pixels.ndim != 3 or pixels.shape[-1] != 3:
            raise ConfigurationError(
                f"expected an (h, w, 3) frame, got shape {pixels.shape}")
        if pixels.dtype != np.uint8:
            raise ConfigurationError(
                f"expected a uint8 frame, got {pixels.dtype}")
        if not pixels.flags.c_contiguous:
            # The mean sums in stride order, so another layout can
            # price one ulp off its contiguous copy: price it directly.
            return self._price(pixels)
        hasher = hashlib.sha256(
            self._memo_key_head + str(pixels.shape).encode())
        hasher.update(pixels)
        key = hasher.digest()
        price = _PRICE_MEMO.get(key)
        if price is None:
            price = self._price(pixels)
            if len(_PRICE_MEMO) >= PRICE_MEMO_MAX_ENTRIES:
                del _PRICE_MEMO[next(iter(_PRICE_MEMO))]
            _PRICE_MEMO[key] = price
        return price

    def _price(self, pixels: np.ndarray) -> float:
        luminance = decode_table(self.gamma)[pixels]
        # The sequential per-channel sum keeps the price bit-identical
        # to pricing the decoded frame; do not swap in another sum.
        channel_mean = luminance.mean(axis=(0, 1))
        coeffs = np.asarray(self.full_channel_mw, dtype=np.float64)
        return float(self.base_mw + (coeffs * channel_mean).sum())

    @property
    def full_white_mw(self) -> float:
        """Emission power of a full-white frame."""
        return self.base_mw + float(sum(self.full_channel_mw))

    @property
    def full_black_mw(self) -> float:
        """Emission power of a full-black frame (the floor)."""
        return self.base_mw


class OledEmissionTracker:
    """Records a session's emission power as a step series.

    Attach to a framebuffer like the content-rate meter: each frame
    update re-prices the emission, which then holds until the next
    update (emission depends on what is *displayed*, not on the
    refresh rate — the displayed image persists between updates).
    """

    def __init__(self, framebuffer, model: OledModel = None,
                 start_time: float = 0.0) -> None:
        self.model = model or OledModel()
        self._framebuffer = framebuffer
        self._price_mw = self.model.frame_power_mw(framebuffer.pixels)
        self.history = StepSeries("oled_emission_mw", self._price_mw,
                                  start_time)
        self._evaluations = 0
        framebuffer.add_update_listener(self._on_frame_update)

    @property
    def evaluations(self) -> int:
        """Frame updates priced so far."""
        return self._evaluations

    def _on_frame_update(self, time: float, framebuffer) -> None:
        self._evaluations += 1
        if not framebuffer.last_write_unchanged:
            # A proven-unchanged update shows the frame already priced.
            self._price_mw = self.model.frame_power_mw(framebuffer.pixels)
        self.history.set(time, self._price_mw)

    def mean_emission_mw(self, start: float, end: float) -> float:
        """Time-weighted mean emission power over a window."""
        return self.history.mean(start, end)

    def energy_mj(self, start: float, end: float) -> float:
        """Emission energy over a window, in millijoules."""
        return self.history.integrate(start, end)

    def detach(self) -> None:
        """Stop observing the framebuffer."""
        self._framebuffer.remove_update_listener(self._on_frame_update)
