"""Serving-run accounting: per-request records and the aggregate report.

Every arrival ends in exactly one of three terminal states — *completed*,
*rejected*, or *timed out* (its retry budget exhausted under a
:class:`~repro.serving.slo.RetryPolicy`) — so
``completed + rejected + timed_out == arrivals`` always holds (the runtime
asserts it; churn/timeout retries re-place work, they never drop or
double-count a request; without a retry policy ``timed_out`` is always 0
and the invariant reduces to the classic two-state form).  All latencies
are in **seconds** of simulated time; goodput is SLO-met completions per
second.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cluster.metrics import LatencySummary, summarize_latencies


@dataclass
class RequestRecord:
    """Lifecycle record of one arrival (mutated by the runtime as it serves)."""

    request_id: int
    model_name: str
    arrival_time: float
    slo_s: float = 0.0
    admitted: bool = False
    rejected_reason: Optional[str] = None
    finish_time: Optional[float] = None
    retries: int = 0
    timed_out: bool = False

    @property
    def completed(self) -> bool:
        return self.finish_time is not None

    @property
    def latency(self) -> float:
        """Arrival-to-completion latency in seconds (completed requests only)."""
        if self.finish_time is None:
            raise ValueError(f"request {self.request_id} did not complete")
        return self.finish_time - self.arrival_time

    @property
    def slo_met(self) -> bool:
        return self.completed and self.latency <= self.slo_s


@dataclass(frozen=True)
class MigrationRecord:
    """One adaptive re-placement performed mid-stream.

    ``time`` is when the migration was *decided* (the triggering churn
    event); the new placement takes effect ``switching_cost_s`` seconds
    later, once the moved modules have reloaded.
    """

    time: float
    reason: str
    switching_cost_s: float


@dataclass(frozen=True)
class ChurnRecord:
    """One churn/fault event as actually applied (or skipped) by the runtime.

    ``device`` is the fault's log label: a device name for device faults,
    ``a<->b`` for link faults.
    """

    time: float
    device: str
    kind: str        # "fail" / "recover" / "slow" / "slow-end" / "link-*"
    applied: bool
    detail: str = ""


@dataclass(frozen=True)
class BrownoutRecord:
    """One brownout-controller level change.

    ``pressure_s`` is the backlog pressure (queued service-seconds per live
    compute slot) that triggered the move; ``shed`` lists the model classes
    rejected at admission while this level holds (lowest SLO slack first).
    """

    time: float
    level: int
    pressure_s: float
    shed: Tuple[str, ...]


@dataclass(frozen=True)
class ScalingRecord:
    """One autoscaler decision: add or drop a replica of one module.

    ``time`` is when the action was *decided* (seconds of simulated time);
    an ``add`` takes effect ``cost_s`` seconds later, once the module's
    weights have loaded on the new host (the same switching-cost accounting
    as churn migrations — drops are free).  ``applied`` is False when the
    action was decided but aborted at apply time (the candidate device
    failed or ran out of memory during the load window).
    """

    time: float
    action: str      # "add" / "drop"
    module: str
    device: str
    cost_s: float
    applied: bool
    detail: str = ""


def merged_busy_seconds(intervals, horizon_s: float) -> float:
    """Total length in seconds of the union of ``(start, end)`` intervals,
    clipped to ``[0, horizon_s]``.

    Overlapping compute spans (a multi-slot device running two batches at
    once) must not double-charge active power — a device is *active* while
    at least one span runs, idle otherwise, so active + idle always equals
    the wall-clock horizon exactly.
    """
    clipped = sorted(
        (max(0.0, start), min(horizon_s, end))
        for start, end in intervals
        if min(horizon_s, end) > max(0.0, start)
    )
    busy = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in clipped:
        if current_start is None or start > current_end:
            if current_start is not None:
                busy += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_start is not None:
        busy += current_end - current_start
    return busy


@dataclass(frozen=True)
class DeviceEnergy:
    """Energy ledger of one device over a serving run.

    ``active_s`` is the union of the device's compute/head span intervals
    (overlapping batches on a multi-slot device count once); ``idle_s`` is
    the rest of the run's wall-clock horizon, so
    ``active_s + idle_s == horizon_s`` per device.  ``radio_j`` is the
    per-byte transfer energy charged to this device as sender or receiver
    (zero for co-located hops, like the placement-time energy model).
    """

    device: str
    active_s: float
    idle_s: float
    active_j: float
    idle_j: float
    radio_j: float

    @property
    def total_j(self) -> float:
        return self.active_j + self.idle_j + self.radio_j


@dataclass(frozen=True)
class EnergyReport:
    """Cluster-wide energy accounting for one serving run."""

    horizon_s: float
    devices: Tuple[DeviceEnergy, ...]

    @property
    def active_j(self) -> float:
        return sum(d.active_j for d in self.devices)

    @property
    def idle_j(self) -> float:
        return sum(d.idle_j for d in self.devices)

    @property
    def radio_j(self) -> float:
        return sum(d.radio_j for d in self.devices)

    @property
    def total_j(self) -> float:
        return self.active_j + self.idle_j + self.radio_j


@dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one serving run."""

    workload_kind: str
    duration_s: float
    seed: int
    arrivals: int
    admitted: int
    rejected: int
    completed: int
    slo_met: int
    retries: int
    timed_out: int
    latency: LatencySummary
    migrations: Tuple[MigrationRecord, ...] = ()
    churn: Tuple[ChurnRecord, ...] = ()
    scaling: Tuple[ScalingRecord, ...] = ()
    brownout: Tuple[BrownoutRecord, ...] = ()
    records: Tuple[RequestRecord, ...] = field(default=(), repr=False)
    energy: Optional[EnergyReport] = None

    @property
    def elapsed_s(self) -> float:
        """Wall-clock span of the run: the arrival window or the last
        completion, whichever is later."""
        return max(self.duration_s, self.latency.makespan)

    @property
    def goodput_rps(self) -> float:
        """SLO-met completions per second of elapsed simulated time."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.slo_met / self.elapsed_s

    @property
    def slo_attainment(self) -> float:
        """Fraction of *all* arrivals served within SLO (rejects count as
        misses — shedding load is not free)."""
        if self.arrivals == 0:
            return 1.0
        return self.slo_met / self.arrivals

    @property
    def joules_per_request(self) -> float:
        """Total cluster joules per completed request (0 when untracked or
        nothing completed)."""
        if self.energy is None or self.completed == 0:
            return 0.0
        return self.energy.total_j / self.completed

    @property
    def joules_per_goodput(self) -> float:
        """Energy cost of goodput: total joules per SLO-met completion —
        the battery-life counterpart of ``goodput_rps`` (0 when untracked
        or nothing met its SLO)."""
        if self.energy is None or self.slo_met == 0:
            return 0.0
        return self.energy.total_j / self.slo_met

    def metrics_tuple(self) -> tuple:
        """A hashable digest of every headline metric (determinism tests)."""
        return (
            self.arrivals,
            self.admitted,
            self.rejected,
            self.completed,
            self.slo_met,
            self.retries,
            round(self.latency.mean, 9),
            round(self.latency.p50, 9),
            round(self.latency.p95, 9),
            round(self.latency.p99, 9),
            round(self.latency.makespan, 9),
            self.timed_out,
        )

    def digest(self) -> str:
        """SHA-256 hex digest of everything a run reports.

        Covers :meth:`metrics_tuple`, every request record, the migration,
        churn, scaling and brownout logs, the energy ledger, and
        ``render(show_energy=True)``.  Request ids come from a
        process-global counter, so they are rebased to the smallest
        non-negative id (relative order and density still count); negative
        ids (never issued) are kept as they are.  Two runs with the same
        config, trace and fault schedule digest equal, whatever ran before
        them in the interpreter.
        """
        base = min((r.request_id for r in self.records if r.request_id >= 0), default=0)
        records = tuple(
            (
                r.request_id - base if r.request_id >= 0 else r.request_id,
                r.model_name, r.arrival_time, r.slo_s, r.admitted,
                r.rejected_reason, r.finish_time, r.retries, r.timed_out,
            )
            for r in self.records
        )
        payload = (
            self.metrics_tuple(), records, self.migrations, self.churn,
            self.scaling, self.brownout, self.energy, self.render(show_energy=True),
        )
        return hashlib.sha256(repr(payload).encode()).hexdigest()

    def render(self, show_energy: bool = False) -> str:
        """Human-readable report for the CLI (``show_energy`` appends the
        per-device energy ledger when accounting was tracked)."""
        lines = [
            f"Online serving report — workload={self.workload_kind} "
            f"duration={self.duration_s:.0f}s seed={self.seed}",
            f"  arrivals:        {self.arrivals}",
            f"  admitted:        {self.admitted}  (rejected {self.rejected})",
            f"  completed:       {self.completed}",
            f"  latency p50:     {self.latency.p50:.3f}s",
            f"  latency p95:     {self.latency.p95:.3f}s",
            f"  latency p99:     {self.latency.p99:.3f}s",
            f"  mean latency:    {self.latency.mean:.3f}s",
            f"  goodput:         {self.goodput_rps:.3f} req/s (SLO-met per second)",
            f"  SLO attainment:  {100.0 * self.slo_attainment:.1f}% "
            f"({self.slo_met}/{self.arrivals} within deadline)",
            f"  churn retries:   {self.retries}",
        ]
        if self.timed_out:
            lines.append(f"  timed out:       {self.timed_out} (retry budget exhausted)")
        if self.brownout:
            peak = max(record.level for record in self.brownout)
            lines.append(
                f"  brownout:        {len(self.brownout)} level changes (peak level {peak})"
            )
            for record in self.brownout:
                shed = ", ".join(record.shed) if record.shed else "none"
                lines.append(
                    f"    t={record.time:7.2f}s level={record.level} "
                    f"pressure={record.pressure_s:.2f}s shed: {shed}"
                )
        if self.churn:
            applied = sum(1 for record in self.churn if record.applied)
            lines.append(f"  churn events:    {applied} applied, {len(self.churn) - applied} skipped")
            for record in self.churn:
                mark = record.kind if record.applied else f"{record.kind} SKIPPED"
                suffix = f" ({record.detail})" if record.detail else ""
                lines.append(f"    t={record.time:7.2f}s {mark:16s} {record.device}{suffix}")
        if self.migrations:
            lines.append(f"  migrations:      {len(self.migrations)}")
            for migration in self.migrations:
                lines.append(
                    f"    t={migration.time:7.2f}s cost={migration.switching_cost_s:.2f}s "
                    f"{migration.reason}"
                )
        if self.scaling:
            applied = sum(1 for record in self.scaling if record.applied)
            lines.append(
                f"  autoscaling:     {applied} applied, {len(self.scaling) - applied} aborted"
            )
            for record in self.scaling:
                mark = record.action if record.applied else f"{record.action} ABORTED"
                suffix = f" ({record.detail})" if record.detail else ""
                lines.append(
                    f"    t={record.time:7.2f}s {mark:12s} {record.module} @ {record.device} "
                    f"cost={record.cost_s:.2f}s{suffix}"
                )
        if show_energy and self.energy is not None:
            e = self.energy
            lines.append(
                f"  energy:          {e.total_j:.1f} J over {e.horizon_s:.1f}s "
                f"(active {e.active_j:.1f} J, idle {e.idle_j:.1f} J, radio {e.radio_j:.2f} J)"
            )
            lines.append(
                f"  joules/request:  {self.joules_per_request:.1f} J per completion, "
                f"{self.joules_per_goodput:.1f} J per SLO-met"
            )
            for d in e.devices:
                lines.append(
                    f"    {d.device:>12} active {d.active_s:7.2f}s/{d.active_j:9.1f} J  "
                    f"idle {d.idle_s:7.2f}s/{d.idle_j:9.1f} J  "
                    f"radio {d.radio_j:7.3f} J  total {d.total_j:10.1f} J"
                )
        return "\n".join(lines)


def build_report_arrays(
    workload_kind: str,
    duration_s: float,
    seed: int,
    *,
    request_ids: np.ndarray,
    arrival_times: np.ndarray,
    slo_s: np.ndarray,
    admitted: np.ndarray,
    finish_times: np.ndarray,
    retries: np.ndarray,
    rejected: np.ndarray,
    migrations: Sequence[MigrationRecord],
    churn: Sequence[ChurnRecord],
    energy: Optional[EnergyReport] = None,
    scaling: Optional[Sequence[ScalingRecord]] = None,
    brownout: Optional[Sequence[BrownoutRecord]] = None,
    timed_out: Optional[np.ndarray] = None,
    records: Tuple[RequestRecord, ...] = (),
) -> ServingReport:
    """Assemble the report from per-request columns, enforcing conservation.

    The vectorized aggregation core of the serving engine:
    ``finish_times`` uses NaN for "never completed", ``rejected`` is the
    boolean rejection mask, ``timed_out`` is the retry-budget-exhausted
    mask (``None`` means no retry policy: all False), and every aggregate
    (counts, SLO attainment, latency percentiles, makespan) is computed
    with numpy array ops instead of per-record Python loops.  ``records``
    only rides along into the report (empty when the caller dropped them
    to save memory).
    """
    completed_mask = ~np.isnan(finish_times)
    if timed_out is None:
        timed_out = np.zeros(len(arrival_times), dtype=bool)
    unresolved_mask = ~completed_mask & ~rejected & ~timed_out
    if unresolved_mask.any():
        ids = [int(i) for i in request_ids[unresolved_mask][:5]]
        raise RuntimeError(
            f"{int(np.count_nonzero(unresolved_mask))} request(s) neither completed, "
            f"rejected, nor timed out (e.g. ids {ids}); the serving run lost work"
        )
    latencies = finish_times[completed_mask] - arrival_times[completed_mask]
    completed = int(np.count_nonzero(completed_mask))
    makespan = float(finish_times[completed_mask].max()) if completed else 0.0
    return ServingReport(
        workload_kind=workload_kind,
        duration_s=duration_s,
        seed=seed,
        arrivals=len(arrival_times),
        admitted=int(np.count_nonzero(admitted)),
        rejected=int(np.count_nonzero(rejected)),
        completed=completed,
        slo_met=int(np.count_nonzero(latencies <= slo_s[completed_mask])),
        retries=int(retries.sum()),
        timed_out=int(np.count_nonzero(timed_out)),
        latency=summarize_latencies(latencies, makespan=makespan),
        migrations=tuple(migrations),
        churn=tuple(churn),
        scaling=tuple(scaling or ()),
        brownout=tuple(brownout or ()),
        records=records,
        energy=energy,
    )
