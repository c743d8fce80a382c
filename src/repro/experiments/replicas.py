"""Replica study: first-class replication across solvers and serving.

Two parts, both beyond the paper (which only replicates with leftover
memory, Sec. V-B's last paragraph):

1. **Solver study** — on a paper-scale multi-source instance, compare the
   analytic cheapest-replica objective of: the single-copy optimum, greedy
   + leftover replication, the replica-aware greedy, and the exact
   replica branch-and-bound (checked against brute-force enumeration).
2. **Serving study** — an overloaded bursty stream served with a
   single-copy deployment, leftover replication, and the serving-layer
   autoscaler (``ServingRuntime(autoscale=True)``): goodput, p50/p95, and
   makespan.

Run with ``python -m repro replicas``.  All latencies are **seconds** of
simulated time; goodput is SLO-met completions per second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.greedy import greedy_placement, replicate_with_leftover
from repro.core.placement.problem import PlacementProblem
from repro.core.placement.replicas import (
    replica_aware_greedy,
    replica_brute_force,
    replica_optimal_placement,
)
from repro.core.routing.latency import LatencyModel
from repro.experiments.reporting import ExperimentTable
from repro.profiles.devices import edge_device_names

#: Model mix shared by both studies: three tasks sharing the ViT-B/16 tower.
STUDY_MODELS = ("clip-vit-b16", "encoder-vqa-small", "image-classification-vitb16")


@dataclass(frozen=True)
class SolverStudyRow:
    """One placement strategy priced under cheapest-replica routing."""

    strategy: str
    objective_s: float
    total_copies: int


def run_solver_study(
    models: Sequence[str] = STUDY_MODELS,
    sources: Sequence[str] = ("jetson-a", "desktop", "laptop"),
    max_copies: int = 2,
) -> Tuple[List[SolverStudyRow], bool]:
    """Compare replication strategies on one multi-source instance.

    Returns the per-strategy rows and whether the exact branch-and-bound
    matched brute-force enumeration (placement and objective).
    """
    problem = PlacementProblem.from_models(list(models), edge_device_names())
    network = Network()
    model = LatencyModel(problem, network)
    requests = [
        InferenceRequest.for_model(name, source)
        for name in models
        for source in sources
    ]

    def copies(placement) -> int:
        return sum(len(hosts) for hosts in placement.as_dict().values())

    rows: List[SolverStudyRow] = []
    single = greedy_placement(problem)
    rows.append(
        SolverStudyRow("greedy single-copy", model.replica_objective(requests, single), copies(single))
    )
    leftover = replicate_with_leftover(problem, single, max_copies=max_copies)
    rows.append(
        SolverStudyRow("greedy + leftover replication", model.replica_objective(requests, leftover), copies(leftover))
    )
    aware, aware_objective = replica_aware_greedy(
        problem, requests, network, max_copies=max_copies, tensors=model.tensors
    )
    rows.append(SolverStudyRow("replica-aware greedy", aware_objective, copies(aware)))
    exact, exact_objective = replica_optimal_placement(
        problem, requests, network, max_copies=max_copies, tensors=model.tensors
    )
    rows.append(SolverStudyRow("replica branch-and-bound (exact)", exact_objective, copies(exact)))
    brute, brute_objective = replica_brute_force(
        problem, requests, network, max_copies=max_copies, tensors=model.tensors
    )
    matches = brute_objective == exact_objective and brute.as_dict() == exact.as_dict()
    return rows, matches


#: The serving configurations under study: (key, display label, runtime
#: kwargs).  ``scripts/run_benchmarks.py`` records the SAME study into
#: ``BENCH_replicas.json`` and ``tests/test_study_gates.py`` asserts its
#: gates, so there is exactly one definition to drift.
SERVING_CONFIGURATIONS = (
    ("single_copy", "single-copy", {"replicate": False}),
    ("leftover", "leftover replication", {"replicate": True}),
    ("autoscale", "autoscale (single-copy start)", {"replicate": False, "autoscale": True}),
)


@dataclass(frozen=True)
class ServingStudyRow:
    """One serving configuration under the overloaded bursty stream."""

    configuration: str
    goodput_rps: float
    p50_s: float
    p95_s: float
    makespan_s: float
    replica_actions: int


def run_serving_study(
    models: Sequence[str] = STUDY_MODELS,
    rate_rps: float = 2.5,
    duration_s: float = 40.0,
    seed: int = 7,
):
    """Overload comparison: single-copy vs leftover vs autoscaled serving.

    Admission is off (everything must be served), so the metrics measure
    raw serving capacity rather than shedding policy.  Returns
    ``[(configuration key, ServingReport), ...]`` in
    :data:`SERVING_CONFIGURATIONS` order.
    """
    from repro.serving import ServingRuntime, SLOPolicy, WorkloadGenerator

    trace = WorkloadGenerator(
        list(models), kind="bursty", rate_rps=rate_rps, duration_s=duration_s, seed=seed
    ).generate()
    return [
        (
            key,
            ServingRuntime(list(models), slo=SLOPolicy(admission=False), **kwargs).run(trace),
        )
        for key, _, kwargs in SERVING_CONFIGURATIONS
    ]


def serving_study_rows(reports) -> List[ServingStudyRow]:
    """Digest ``run_serving_study`` reports into display rows."""
    labels = {key: label for key, label, _ in SERVING_CONFIGURATIONS}
    return [
        ServingStudyRow(
            configuration=labels[key],
            goodput_rps=report.goodput_rps,
            p50_s=report.latency.p50,
            p95_s=report.latency.p95,
            makespan_s=report.latency.makespan,
            replica_actions=sum(1 for s in report.scaling if s.applied),
        )
        for key, report in reports
    ]


def render_replicas() -> str:
    """Render both studies (the ``python -m repro replicas`` artifact)."""
    solver_rows, matches = run_solver_study()
    solver = ExperimentTable(
        "Replica-aware placement (cheapest-replica objective, 9 requests from 3 sources)",
        ["strategy", "objective (s)", "module copies"],
    )
    for row in solver_rows:
        solver.add_row(row.strategy, row.objective_s, row.total_copies)
    solver.add_note(
        "exact branch-and-bound vs brute-force enumeration: "
        + ("MATCH (placement + objective)" if matches else "MISMATCH")
    )
    solver.add_note("max 2 copies per module; memory budget Eq. 4d enforced per device")

    serving_rows = serving_study_rows(run_serving_study())
    serving = ExperimentTable(
        "Serving under bursty overload (2.5 rps nominal, 40 s, admission off)",
        ["configuration", "goodput (req/s)", "p50 (s)", "p95 (s)", "makespan (s)", "scale actions"],
    )
    for row in serving_rows:
        serving.add_row(
            row.configuration, row.goodput_rps, row.p50_s, row.p95_s,
            row.makespan_s, row.replica_actions,
        )
    serving.add_note(
        "autoscale starts single-copy and grows replicas reactively; "
        "load time is charged as switching cost before a new copy serves"
    )
    return solver.render() + "\n\n" + serving.render()
