"""Inference requests and workload generators.

Requests arrive at the *model* level (paper Sec. V-A): each request names a
model ``k(q)`` and a source device ``n_q`` holding the input data.  The
generators cover the evaluation's arrival patterns: a single request,
simultaneous multi-task bursts (Table X), back-to-back sequences (the
pipelining discussion), and Poisson streams for the queueing studies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from repro.core.catalog import get_model
from repro.core.models import ModelSpec
from repro.utils.seeding import rng_for

_request_counter = itertools.count()


@dataclass(frozen=True)
class InferenceRequest:
    """One model-level inference request ``q``."""

    model: ModelSpec
    source: str
    arrival_time: float = 0.0
    request_id: int = field(default_factory=lambda: next(_request_counter))

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_time):
            raise ValueError(f"arrival_time must be finite, got {self.arrival_time!r}")

    @staticmethod
    def for_model(model: "ModelSpec | str", source: str, arrival_time: float = 0.0) -> "InferenceRequest":
        spec = get_model(model) if isinstance(model, str) else model
        return InferenceRequest(model=spec, source=source, arrival_time=arrival_time)


def simultaneous_workload(
    models: Sequence["ModelSpec | str"], source: str
) -> List[InferenceRequest]:
    """All requests arrive at t=0 — the Table X multi-task burst."""
    return [InferenceRequest.for_model(model, source, 0.0) for model in models]


def sequential_workload(
    models: Sequence["ModelSpec | str"], source: str, spacing_s: float
) -> List[InferenceRequest]:
    """Requests spaced ``spacing_s`` apart (back-to-back when 0 with FIFO order)."""
    if not (math.isfinite(spacing_s) and spacing_s >= 0):
        raise ValueError(f"spacing_s must be a finite number >= 0, got {spacing_s!r}")
    return [
        InferenceRequest.for_model(model, source, index * spacing_s)
        for index, model in enumerate(models)
    ]


def poisson_workload(
    models: Sequence["ModelSpec | str"],
    source: str,
    rate_per_s: float,
    count: int,
    seed: int = 0,
) -> List[InferenceRequest]:
    """``count`` requests with exponential inter-arrivals, models round-robin.

    Deterministic given ``seed`` (see :mod:`repro.utils.seeding`).
    """
    if not (math.isfinite(rate_per_s) and rate_per_s > 0):
        raise ValueError(f"rate_per_s must be a finite number > 0, got {rate_per_s!r}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = rng_for("poisson-workload", seed)
    now = 0.0
    requests = []
    cycle: Iterator = itertools.cycle(models)
    for _ in range(count):
        now += float(rng.exponential(1.0 / rate_per_s))
        requests.append(InferenceRequest.for_model(next(cycle), source, now))
    return requests
