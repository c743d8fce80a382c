"""Arrival-process generation for the online serving runtime.

The batch experiments (`python -m repro table6..11`) evaluate one-shot
request sets; continuous serving needs *arrival processes*.  This module
generates deterministic, seeded arrival traces over the existing model
catalog in three shapes:

- ``poisson`` — a homogeneous Poisson process at ``rate_rps``.
- ``bursty`` — a two-state Markov-modulated Poisson process: the stream
  alternates between a *base* state at ``rate_rps`` and a *burst* state at
  ``rate_rps * burst_factor``, with exponentially distributed dwell times.
  This is the flash-crowd shape that stresses the micro-batcher and the
  admission controller.
- ``diurnal`` — a non-homogeneous Poisson process (generated by thinning)
  whose instantaneous rate follows ``rate_rps * (1 + amplitude *
  sin(2*pi*(t + phase_offset)/period))`` — a compressed day/night cycle.
  ``phase_offset_s`` shifts the cycle so timezone-offset clusters (the
  federation's correlated per-cluster loads) reuse this exact generator;
  the default offset 0 reproduces the historical stream bit-for-bit.

All times are **seconds** of simulated time; rates are **requests per
second**.  Given the same constructor arguments and ``seed``, ``generate``
returns a bit-identical :class:`ArrivalTrace` on every platform (the RNG is
derived via :mod:`repro.utils.seeding`).

Sampling is vectorized: the poisson and bursty paths draw numpy batches
(one RNG call per chunk instead of one per arrival) and the model
assignment is a single batched ``integers`` draw for every kind.  The
batched draws consume the *same* RNG stream as the historical one-at-a-time
samplers — ``Generator.exponential(size=n)`` fills sequentially with the
same ziggurat routine as n scalar calls — and any overdraw at the end of
the trace is rewound via ``bit_generator.state`` save/restore, so traces
stay bit-for-bit identical across seeds and versions.  The scalar samplers
are kept as ``_*_times_scalar`` reference implementations, pinned to the
vectorized paths by regression tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.checks import is_finite_real
from repro.utils.seeding import rng_for

#: Supported arrival-process shapes.
WORKLOAD_KINDS: Tuple[str, ...] = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class Arrival:
    """One request arrival: a catalog model name at a point in time (s)."""

    time: float
    model_name: str


@dataclass(frozen=True)
class ArrivalTrace:
    """A deterministic sequence of arrivals over ``[0, duration_s)``."""

    arrivals: Tuple[Arrival, ...]
    duration_s: float
    kind: str
    seed: int

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def observed_rate_rps(self) -> float:
        """Arrivals per second actually realized by the trace."""
        if self.duration_s <= 0:
            return 0.0
        return len(self.arrivals) / self.duration_s

    def model_counts(self) -> dict:
        """How many arrivals each model received."""
        counts: dict = {}
        for arrival in self.arrivals:
            counts[arrival.model_name] = counts.get(arrival.model_name, 0) + 1
        return counts


class WorkloadGenerator:
    """Generates seeded, deterministic arrival traces over a model set.

    Args:
        models: Catalog model names to draw from (uniformly at random).
        kind: One of :data:`WORKLOAD_KINDS`.
        rate_rps: Base arrival rate in requests/second.
        duration_s: Length of the arrival window in simulated seconds
            (arrivals stop at ``duration_s``; service may finish later).
        seed: Determinism seed; same seed, same trace, bit-for-bit.
        burst_factor: Bursty only — rate multiplier while in the burst state.
        burst_dwell_s: Bursty only — mean burst-state dwell time (s).
        base_dwell_s: Bursty only — mean base-state dwell time (s).
        diurnal_period_s: Diurnal only — one full day/night cycle (s).
        diurnal_amplitude: Diurnal only — relative swing in [0, 1):
            the instantaneous rate ranges over ``rate_rps * (1 ± amplitude)``.
        phase_offset_s: Diurnal only — shift of the day/night cycle in
            seconds: the instantaneous rate becomes ``rate_rps * (1 +
            amplitude * sin(2*pi*(t + phase_offset_s)/period))``, so
            timezone-shifted clusters share one code path.  Any finite
            value is accepted (the sine wraps); the default ``0.0`` is
            bit-identical to the historical unshifted stream.
    """

    def __init__(
        self,
        models: Sequence[str],
        kind: str = "poisson",
        rate_rps: float = 0.4,
        duration_s: float = 60.0,
        seed: int = 0,
        burst_factor: float = 6.0,
        burst_dwell_s: float = 5.0,
        base_dwell_s: float = 20.0,
        diurnal_period_s: float = 60.0,
        diurnal_amplitude: float = 0.8,
        phase_offset_s: float = 0.0,
    ) -> None:
        if not models:
            raise ValueError("need at least one model to generate a workload")
        if kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {kind!r}; choose from {WORKLOAD_KINDS}")
        for name, value in (
            ("rate_rps", rate_rps),
            ("duration_s", duration_s),
            ("burst_dwell_s", burst_dwell_s),
            ("base_dwell_s", base_dwell_s),
            ("diurnal_period_s", diurnal_period_s),
        ):
            if not is_finite_real(value) or value <= 0:
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        if not is_finite_real(burst_factor) or burst_factor < 1:
            raise ValueError(f"burst_factor must be a finite number >= 1, got {burst_factor!r}")
        if not 0 <= diurnal_amplitude < 1:
            raise ValueError(f"diurnal_amplitude must be in [0, 1), got {diurnal_amplitude}")
        if not is_finite_real(phase_offset_s):
            raise ValueError(f"phase_offset_s must be a finite number, got {phase_offset_s!r}")
        self.models = list(models)
        self.kind = kind
        self.rate_rps = float(rate_rps)
        self.duration_s = float(duration_s)
        self.seed = int(seed)
        self.burst_factor = float(burst_factor)
        self.burst_dwell_s = float(burst_dwell_s)
        self.base_dwell_s = float(base_dwell_s)
        self.diurnal_period_s = float(diurnal_period_s)
        self.diurnal_amplitude = float(diurnal_amplitude)
        self.phase_offset_s = float(phase_offset_s)

    # ------------------------------------------------------------------
    def generate(self) -> ArrivalTrace:
        """Produce the trace; repeatable bit-for-bit for a given seed."""
        rng = rng_for("serving-workload", self.kind, self.seed)
        if self.kind == "poisson":
            times = self._poisson_times(rng)
        elif self.kind == "bursty":
            times = self._bursty_times(rng)
        else:
            times = self._diurnal_times(rng)
        if times:
            # One batched draw; same stream as one integers() call per time.
            picks = rng.integers(len(self.models), size=len(times))
            arrivals = tuple(
                Arrival(time=t, model_name=self.models[k])
                for t, k in zip(times, picks)
            )
        else:
            arrivals = ()
        return ArrivalTrace(
            arrivals=arrivals, duration_s=self.duration_s, kind=self.kind, seed=self.seed
        )

    # ------------------------------------------------------------------
    def _gap_chunk(self, expected: float) -> int:
        """Batch size: expected draw count plus four-sigma Poisson slack."""
        return max(64, int(expected + 4.0 * math.sqrt(max(expected, 1.0)) + 16.0))

    def _poisson_times(self, rng) -> List[float]:
        """Batched homogeneous Poisson sampling.

        Draw inter-arrival gaps a chunk at a time and cumsum them (numpy's
        cumsum accumulates left-to-right, so the running clock is bit-equal
        to the scalar ``now += gap`` loop; the chunk offset is threaded
        through the cumsum itself to keep the rounding order).  The draw
        that crosses ``duration_s`` ends the trace; the stream is rewound
        to consume exactly as many values as the scalar sampler would.
        """
        scale = 1.0 / self.rate_rps
        chunk = self._gap_chunk(self.rate_rps * self.duration_s)
        pieces: List[np.ndarray] = []
        offset = 0.0
        while True:
            state = rng.bit_generator.state
            gaps = rng.exponential(scale, size=chunk)
            clock = np.cumsum(np.concatenate(((offset,), gaps)))[1:]
            crossed = np.nonzero(clock >= self.duration_s)[0]
            if crossed.size:
                keep = int(crossed[0])
                rng.bit_generator.state = state
                rng.exponential(scale, size=keep + 1)
                pieces.append(clock[:keep])
                break
            pieces.append(clock)
            offset = float(clock[-1])
        return np.concatenate(pieces).tolist() if pieces else []

    def _bursty_times(self, rng) -> List[float]:
        """Two-state MMPP: exponential dwell, state-dependent arrival rate.

        Every draw of the scalar sampler — dwell or gap — is one standard
        exponential times a scale, so we pull raw standard exponentials in
        numpy batches and let a small state machine walk the batch applying
        the per-state scales.  Overdraw at the end of the trace is rewound
        via state save/restore, leaving the stream bit-identical to the
        scalar reference.
        """
        base_scale = 1.0 / self.rate_rps
        # Parenthesized exactly as the scalar sampler's 1/(rate * factor):
        # (1/rate)/factor could differ in the last ulp.
        burst_scale = 1.0 / (self.rate_rps * self.burst_factor)
        frac_burst = self.burst_dwell_s / (self.burst_dwell_s + self.base_dwell_s)
        mean_rate = self.rate_rps * (1.0 + (self.burst_factor - 1.0) * frac_burst)
        switches = 1.0 / self.burst_dwell_s + 1.0 / self.base_dwell_s
        chunk = self._gap_chunk(self.duration_s * (mean_rate + switches))
        times: List[float] = []
        now = 0.0
        in_burst = False
        need_dwell = True  # the next raw value sets the current state's end
        state_ends = 0.0
        while True:
            state = rng.bit_generator.state
            raw = rng.standard_exponential(size=chunk)
            i = 0
            finished = False
            while i < chunk:
                if need_dwell:
                    dwell = self.burst_dwell_s if in_burst else self.base_dwell_s
                    state_ends = now + raw[i] * dwell
                    i += 1
                    need_dwell = False
                    continue
                if now >= self.duration_s:
                    finished = True
                    break
                gap = raw[i] * (burst_scale if in_burst else base_scale)
                i += 1
                if now + gap >= state_ends:
                    # Switch states first; no arrival happens past the boundary
                    # (the exponential's memorylessness makes the restart exact).
                    now = state_ends
                    in_burst = not in_burst
                    need_dwell = True
                    continue
                now += gap
                if now >= self.duration_s:
                    finished = True
                    break
                times.append(float(now))
            if finished:
                rng.bit_generator.state = state
                if i:
                    rng.standard_exponential(size=i)
                return times

    def _diurnal_times(self, rng) -> List[float]:
        """Thinning (Lewis & Shedler): dominate with the peak rate, accept
        each candidate with probability rate(t) / peak.

        This path stays scalar by design: the stream strictly alternates
        exponential and uniform draws (one pair per candidate), and numpy
        cannot interleave two distributions in a single batched call without
        changing the consumption order — which would break seed-stream
        compatibility.  Only the model assignment is batched (in
        :meth:`generate`).
        """
        peak = self.rate_rps * (1.0 + self.diurnal_amplitude)
        times: List[float] = []
        now = 0.0
        while True:
            now += float(rng.exponential(1.0 / peak))
            if now >= self.duration_s:
                return times
            instantaneous = self.rate_rps * (
                1.0
                + self.diurnal_amplitude
                * math.sin(
                    2.0 * math.pi * (now + self.phase_offset_s) / self.diurnal_period_s
                )
            )
            if float(rng.uniform()) * peak <= instantaneous:
                times.append(now)

    # -- scalar reference implementations ------------------------------
    # The original one-draw-per-arrival samplers.  The vectorized paths
    # above are required (by regression tests) to consume the identical RNG
    # stream and return bit-identical times; keep these in sync with any
    # distributional change.

    def _poisson_times_scalar(self, rng) -> List[float]:
        times: List[float] = []
        now = 0.0
        while True:
            now += float(rng.exponential(1.0 / self.rate_rps))
            if now >= self.duration_s:
                return times
            times.append(now)

    def _bursty_times_scalar(self, rng) -> List[float]:
        times: List[float] = []
        now = 0.0
        in_burst = False
        state_ends = float(rng.exponential(self.base_dwell_s))
        while now < self.duration_s:
            rate = self.rate_rps * (self.burst_factor if in_burst else 1.0)
            gap = float(rng.exponential(1.0 / rate))
            if now + gap >= state_ends:
                now = state_ends
                in_burst = not in_burst
                dwell = self.burst_dwell_s if in_burst else self.base_dwell_s
                state_ends = now + float(rng.exponential(dwell))
                continue
            now += gap
            if now >= self.duration_s:
                break
            times.append(now)
        return times
