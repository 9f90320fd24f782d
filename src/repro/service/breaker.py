"""Circuit breaker: shed load instead of hanging when workers keep dying.

Classic three-state machine:

* **closed** — normal operation; consecutive failures are counted.
* **open** — tripped after ``failure_threshold`` consecutive failures;
  every admission check fails fast until ``cooldown_s`` has elapsed.
* **half-open** — after the cooldown one probe job is admitted; success
  closes the breaker, failure re-opens it (and restarts the cooldown).

The service consults :meth:`CircuitBreaker.allow` when *ingesting*
jobs: while open, new jobs are rejected with a structured
:class:`~repro.errors.ServiceUnavailableError` record instead of
queueing behind a failing fleet.  Jobs already admitted keep running —
the breaker protects the front door, not the workers.

The clock is injectable (monotonic seconds) so tests drive state
transitions deterministically.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict

from ..errors import ConfigurationError


class BreakerState:
    """The three breaker states, as wire-friendly strings."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with cooldown + probe."""

    def __init__(self, failure_threshold: int = 5,
                 cooldown_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got "
                f"{failure_threshold}")
        if cooldown_s <= 0:
            raise ConfigurationError(
                f"cooldown_s must be > 0, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_outstanding = False
        self._trips = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, cooldown expiry applied."""
        self._maybe_half_open()
        return self._state

    @property
    def trips(self) -> int:
        """How many times the breaker has opened."""
        return self._trips

    def _maybe_half_open(self) -> None:
        if (self._state == BreakerState.OPEN
                and self._clock() - self._opened_at
                >= self.cooldown_s):
            self._state = BreakerState.HALF_OPEN
            self._probe_outstanding = False

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May one more job be admitted right now?

        Closed: always.  Open: never (until cooldown).  Half-open: one
        probe at a time — the first caller gets True, later callers
        False until the probe reports back.
        """
        self._maybe_half_open()
        if self._state == BreakerState.CLOSED:
            return True
        if self._state == BreakerState.HALF_OPEN:
            if not self._probe_outstanding:
                self._probe_outstanding = True
                return True
            return False
        return False

    def record_success(self) -> None:
        """An admitted job finished cleanly."""
        self._consecutive_failures = 0
        self._probe_outstanding = False
        self._state = BreakerState.CLOSED

    def record_failure(self) -> None:
        """An admitted job failed (all retries exhausted, or crashed)."""
        self._maybe_half_open()
        self._consecutive_failures += 1
        self._probe_outstanding = False
        if self._state == BreakerState.HALF_OPEN or (
                self._state == BreakerState.CLOSED
                and self._consecutive_failures
                >= self.failure_threshold):
            self._state = BreakerState.OPEN
            self._opened_at = self._clock()
            self._trips += 1

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot for health reporting."""
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "failure_threshold": self.failure_threshold,
            "cooldown_s": self.cooldown_s,
            "trips": self._trips,
        }
