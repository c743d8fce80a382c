"""Service-level objectives and admission control for online serving.

Each admitted request carries an SLO — a completion deadline in **seconds**
measured from its arrival.  The policy derives the deadline from the
request's *isolated* analytic latency (Eq. 1-3 under the current placement,
no queueing): a request is "fast enough" when it finishes within
``latency_multiplier`` times what it would take on an idle cluster, with an
absolute floor so near-zero estimates don't create impossible deadlines.

Admission control compares the deadline against a *predicted* completion
time (isolated latency + live queue-pressure estimate from the queue-aware
router).  Requests predicted to miss are rejected at arrival — shedding load
early keeps the tail of the admitted stream bounded, which is what the
goodput metric rewards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SLOPolicy:
    """How deadlines are assigned and enforced.

    Attributes:
        latency_multiplier: Deadline = ``multiplier * isolated_estimate_s``
            (dimensionless; >= 1).
        floor_s: Minimum deadline in seconds (guards tiny estimates).
        absolute_s: If set, overrides the scaled deadline with a fixed
            per-request budget in seconds.
        admission: ``True`` rejects requests predicted to miss their SLO at
            arrival; ``False`` admits everything (pure FIFO overload).
    """

    latency_multiplier: float = 3.0
    floor_s: float = 1.0
    absolute_s: Optional[float] = None
    admission: bool = True

    def __post_init__(self) -> None:
        if self.latency_multiplier < 1.0:
            raise ValueError(
                f"latency_multiplier must be >= 1, got {self.latency_multiplier}"
            )
        if self.floor_s < 0:
            raise ValueError(f"floor_s must be non-negative, got {self.floor_s}")
        if self.absolute_s is not None and self.absolute_s <= 0:
            raise ValueError(f"absolute_s must be positive, got {self.absolute_s}")

    def slo_for(self, isolated_estimate_s: float) -> float:
        """The deadline (seconds from arrival) for a request whose isolated
        analytic latency is ``isolated_estimate_s``."""
        if self.absolute_s is not None:
            return self.absolute_s
        return max(self.floor_s, self.latency_multiplier * isolated_estimate_s)

    def admit(self, predicted_latency_s: float, slo_s: float) -> bool:
        """Whether to admit a request predicted to finish in ``predicted_latency_s``."""
        if not self.admission:
            return True
        return predicted_latency_s <= slo_s


@dataclass(frozen=True)
class RetryPolicy:
    """Per-attempt timeouts with a bounded retry budget.

    When ``timeout_s`` is set, every module *attempt* (one routed
    transfer + queue + execute on one host) is raced against a watchdog:
    an attempt still unfinished after ``timeout_s`` simulated seconds is
    cancelled (dequeued if still waiting; abandoned if mid-service) and
    the module re-routes, exactly like a device-loss retry.  ``max_retries``
    bounds the *total* retries a request may spend across all causes
    (timeouts and device failures share the budget); once exhausted the
    request terminates as **timed out** — a distinct terminal state in the
    widened conservation invariant
    ``completed + rejected + timed_out == arrivals``.  ``backoff_s`` sleeps
    ``backoff_s * 2^retries_so_far`` before each retry to avoid hammering a
    recovering pool.  A timeout needs a bounded ``max_retries``: on an
    unbounded budget, an attempt that always outlasts it would re-route
    forever.

    The default (no timeout, unlimited retries, no backoff) reproduces the
    pre-policy runtime bit-for-bit.
    """

    timeout_s: Optional[float] = None
    max_retries: Optional[int] = None
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and (
            not math.isfinite(self.timeout_s) or self.timeout_s <= 0
        ):
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_s is not None and self.max_retries is None:
            # An attempt that always outlasts the timeout would re-route
            # forever on an unbounded budget.
            raise ValueError(
                f"timeout_s={self.timeout_s} needs a bounded max_retries, got None"
            )
        if not math.isfinite(self.backoff_s) or self.backoff_s < 0:
            raise ValueError(f"backoff_s must be non-negative, got {self.backoff_s}")

    @property
    def enabled(self) -> bool:
        """Whether any timeout/budget machinery is active."""
        return self.timeout_s is not None or self.max_retries is not None

    def allows_retry(self, retries_so_far: int) -> bool:
        """Whether a request that has already retried ``retries_so_far``
        times may spend another retry."""
        return self.max_retries is None or retries_so_far < self.max_retries

    def backoff_delay(self, retries_so_far: int) -> float:
        """Seconds to sleep before the next retry (exponential, capped)."""
        if self.backoff_s == 0.0:
            return 0.0
        return self.backoff_s * (2.0 ** min(retries_so_far, 16))
