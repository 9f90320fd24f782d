"""Monsoon power-meter emulation.

The paper samples whole-device current with a Monsoon Power Monitor.
Real meter readings carry measurement noise and are reported as mean ±
standard deviation across repeated runs; :class:`MonsoonMeter` adds a
configurable, seeded noise floor on top of the exact model power so the
reproduction's tables can carry honest ±figures of the same character.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from ..units import ensure_non_negative


def integrate_segments(values: Union[Sequence[float], np.ndarray],
                       durations: Union[Sequence[float], np.ndarray]
                       ) -> float:
    """Integrate a piecewise-constant signal from per-segment values
    and durations.

    The single implementation of the energy integral, behind
    :meth:`repro.sim.tracing.StepSeries.integrate`.  Per-segment
    products are computed vectorised, but the accumulation stays
    **sequential in segment order**: IEEE-754 addition is not
    associative, and byte-identical summaries require the exact floats
    the original scalar loop produced (numpy's pairwise ``.sum()``
    rounds differently).
    """
    value_arr = np.asarray(values, dtype=np.float64)
    duration_arr = np.asarray(durations, dtype=np.float64)
    if value_arr.shape != duration_arr.shape:
        raise ValueError(
            f"values {value_arr.shape} and durations "
            f"{duration_arr.shape} must align")
    products = value_arr * duration_arr
    total = 0.0
    for product in products.tolist():
        total += product
    return total


class MonsoonMeter:
    """Adds seeded measurement noise to an exact power trace.

    Parameters
    ----------
    noise_mw:
        Standard deviation of the additive Gaussian sampling noise, in
        milliwatts.  Monsoon-class meters resolve well under 10 mW at
        phone currents; the default is conservative.
    seed:
        Seed for the noise stream (repeatable "measurements").
    """

    def __init__(self, noise_mw: float = 5.0, seed: int = 0) -> None:
        self.noise_mw = ensure_non_negative(noise_mw, "noise_mw")
        self._rng = np.random.default_rng(seed)

    def measure_trace(self, times: np.ndarray,
                      power_mw: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return the trace with sampling noise applied.

        ``times`` passes through untouched; power gains i.i.d. Gaussian
        noise, floored at zero (a current meter never reads negative
        power for a discharging phone).
        """
        if times.shape != power_mw.shape:
            raise ValueError(
                f"times {times.shape} and power {power_mw.shape} must "
                f"align")
        noisy = power_mw + self._rng.normal(0.0, self.noise_mw,
                                            size=power_mw.shape)
        return times, np.maximum(noisy, 0.0)

    def measure_mean(self, power_mw: float, samples: int = 100) -> float:
        """One session-mean 'reading': the exact mean plus the residual
        noise of averaging ``samples`` meter samples."""
        if samples <= 0:
            raise ValueError("samples must be > 0")
        residual = self.noise_mw / np.sqrt(samples)
        return max(0.0, power_mw + float(self._rng.normal(0.0, residual)))
