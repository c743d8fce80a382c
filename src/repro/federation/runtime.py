"""Federation execution: independent per-cluster simulations, one merge.

:class:`FederationRuntime` turns a :class:`~repro.federation.topology.
FederationTopology` into a run:

1. generate each cluster's **local** arrival trace (same workload family,
   per-cluster seed derived from ``("federation-workload", name, seed)``,
   per-cluster diurnal ``phase_offset_s`` modelling its timezone);
2. ask :func:`~repro.federation.router.plan_spillover` for the
   deterministic routing plan (who forwards what, at what WAN price);
3. simulate every cluster **independently** on its routed trace — each is
   a complete single-cluster :class:`~repro.serving.runtime.ServingRuntime`
   run (own devices, placement, faults) — either in-process
   (``parallel=False``, the oracle) or fanned out over a
   :mod:`multiprocessing` pool;
4. :func:`~repro.federation.report.merge_reports` folds the per-cluster
   reports into a validated :class:`~repro.federation.report.
   FederationReport`.

Because routing is decided before simulation and every cluster report is
computed *inside* its own simulation (request ids rebased before they
leave the worker), the merge is a pure function of the cluster reports —
``run(parallel=True)`` and ``run(parallel=False)`` produce bit-identical
federation digests for the same seed.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.federation.report import ClusterReport, FederationReport, merge_reports
from repro.federation.router import (
    SPILLOVER_PAYLOAD_MB,
    SPILLOVER_WINDOW_S,
    ClusterRoute,
    plan_spillover,
)
from repro.federation.topology import FederationTopology
from repro.serving.faults import FaultPlan
from repro.serving.runtime import ServingRuntime
from repro.serving.slo import SLOPolicy
from repro.serving.workload import ArrivalTrace, WorkloadGenerator
from repro.utils.seeding import derive_seed

#: Default model mix every cluster serves.
FEDERATION_MODELS = ("clip-vit-b16", "encoder-vqa-small")


@dataclass(frozen=True)
class ClusterTask:
    """Everything one worker needs to simulate one cluster (picklable).

    Frozen and made of plain data + frozen dataclasses, so the same task
    object drives the in-process oracle and the ``multiprocessing`` pool
    (fork or spawn) identically.
    """

    name: str
    models: Tuple[str, ...]
    device_names: Optional[Tuple[str, ...]]
    route: ClusterRoute
    fault_plan: Optional[FaultPlan]
    slo: Optional[SLOPolicy]


def _simulate_cluster(task: ClusterTask) -> ClusterReport:
    """Run one cluster's serving simulation and summarize it.

    Module-level (not a closure) so :func:`multiprocessing.Pool.map` can
    pickle it.  The summary rebases request ids to the cluster's smallest
    id: the process-global request counter differs between sequential and
    pooled execution, and rebasing is what keeps the per-request digest —
    and therefore the merged federation digest — identical across both.
    """
    runtime = ServingRuntime(
        list(task.models),
        device_names=list(task.device_names) if task.device_names else None,
        slo=task.slo,
        keep_records=True,
    )
    report = runtime.run(task.route.trace, faults=task.fault_plan)
    records = report.records
    if len(records) != len(task.route.wan_extra_s):
        raise RuntimeError(
            f"cluster {task.name!r} produced {len(records)} records for "
            f"{len(task.route.wan_extra_s)} routed arrivals"
        )
    base = min((r.request_id for r in records), default=0)
    e2e_latencies = []
    slo_met = 0
    rows = []
    for index, record in enumerate(records):
        extra = task.route.wan_extra_s[index]
        e2e = None
        if record.completed:
            e2e = record.latency + extra
            e2e_latencies.append(e2e)
            if e2e <= record.slo_s:
                slo_met += 1
        rows.append(
            (
                record.request_id - base,
                record.model_name,
                record.arrival_time,
                record.finish_time,
                record.slo_s,
                record.rejected_reason,
                record.retries,
                record.timed_out,
                extra,
                e2e,
            )
        )
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    return ClusterReport(
        name=task.name,
        workload_kind=task.route.trace.kind,
        seed=task.route.trace.seed,
        duration_s=task.route.trace.duration_s,
        local_arrivals=task.route.local_arrivals,
        forwarded_in=task.route.forwarded_in,
        forwarded_out=task.route.forwarded_out,
        arrivals=report.arrivals,
        admitted=report.admitted,
        rejected=report.rejected,
        completed=report.completed,
        slo_met=slo_met,
        timed_out=report.timed_out,
        retries=report.retries,
        makespan_s=report.latency.makespan,
        e2e_latencies=tuple(e2e_latencies),
        record_digest=digest,
    )


class FederationRuntime:
    """Drives a federation of independently simulated edge clusters.

    Args:
        topology: The validated cluster/WAN graph.
        models: Model names every cluster serves.
        duration_s: Simulated duration in seconds (shared by all clusters).
        workload_kind: ``"poisson"``, ``"bursty"``, or ``"diurnal"``.
        diurnal_period_s / diurnal_amplitude: Diurnal shape (each
            cluster's :attr:`~repro.federation.topology.ClusterSpec.
            phase_offset_s` shifts the phase).
        slo: SLO policy applied identically in every cluster.
        spillover: ``False`` disables WAN forwarding — the
            isolated-clusters baseline.
        window_s / payload_mb: Router pricing knobs (see
            :mod:`repro.federation.router`).
    """

    def __init__(
        self,
        topology: FederationTopology,
        *,
        models: Tuple[str, ...] = FEDERATION_MODELS,
        duration_s: float = 120.0,
        workload_kind: str = "diurnal",
        diurnal_period_s: float = 120.0,
        diurnal_amplitude: float = 0.8,
        slo: Optional[SLOPolicy] = None,
        spillover: bool = True,
        window_s: float = SPILLOVER_WINDOW_S,
        payload_mb: float = SPILLOVER_PAYLOAD_MB,
    ) -> None:
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        if not models:
            raise ValueError("models must be non-empty")
        self.topology = topology
        self.models = tuple(models)
        self.duration_s = float(duration_s)
        self.workload_kind = workload_kind
        self.diurnal_period_s = float(diurnal_period_s)
        self.diurnal_amplitude = float(diurnal_amplitude)
        self.slo = slo
        self.spillover = bool(spillover)
        self.window_s = float(window_s)
        self.payload_mb = float(payload_mb)

    # ------------------------------------------------------------------
    def local_traces(self, seed: int = 0) -> Dict[str, ArrivalTrace]:
        """Each cluster's local arrival trace (before any routing).

        Seeds are derived per cluster name, so adding or renaming one
        cluster never perturbs another's stream.
        """
        traces: Dict[str, ArrivalTrace] = {}
        for name in self.topology.names():
            spec = self.topology.cluster(name)
            traces[name] = WorkloadGenerator(
                list(self.models),
                kind=self.workload_kind,
                rate_rps=spec.rate_rps,
                duration_s=self.duration_s,
                seed=derive_seed("federation-workload", name, seed),
                diurnal_period_s=self.diurnal_period_s,
                diurnal_amplitude=self.diurnal_amplitude,
                phase_offset_s=spec.phase_offset_s,
            ).generate()
        return traces

    def plan(
        self,
        seed: int = 0,
        fault_plans: Optional[Mapping[str, Optional[FaultPlan]]] = None,
    ) -> Dict[str, ClusterRoute]:
        """The deterministic routing plan for this seed (no simulation)."""
        return plan_spillover(
            self.topology,
            self.local_traces(seed),
            fault_plans,
            spillover=self.spillover,
            window_s=self.window_s,
            payload_mb=self.payload_mb,
        )

    def tasks(
        self,
        seed: int = 0,
        fault_plans: Optional[Mapping[str, Optional[FaultPlan]]] = None,
    ) -> Tuple[ClusterTask, ...]:
        """The per-cluster simulation tasks, in sorted-name order."""
        fault_plans = dict(fault_plans or {})
        routes = self.plan(seed, fault_plans)
        out = []
        for name in sorted(routes):
            spec = self.topology.cluster(name)
            out.append(
                ClusterTask(
                    name=name,
                    models=self.models,
                    device_names=spec.device_names,
                    route=routes[name],
                    fault_plan=fault_plans.get(name),
                    slo=self.slo,
                )
            )
        return tuple(out)

    def run(
        self,
        seed: int = 0,
        *,
        fault_plans: Optional[Mapping[str, Optional[FaultPlan]]] = None,
        parallel: bool = False,
    ) -> FederationReport:
        """Simulate the federation and return the merged, validated report.

        ``parallel=True`` fans the cluster simulations out over a process
        pool; the sequential mode is the oracle and both produce
        bit-identical reports for the same seed.
        """
        tasks = self.tasks(seed, fault_plans)
        if parallel and len(tasks) > 1:
            workers = min(len(tasks), os.cpu_count() or 1)
            with multiprocessing.Pool(processes=workers) as pool:
                reports = pool.map(_simulate_cluster, tasks)
        else:
            reports = [_simulate_cluster(task) for task in tasks]
        return merge_reports(reports, spillover=self.spillover)
