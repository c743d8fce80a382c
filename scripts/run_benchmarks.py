#!/usr/bin/env python
"""Run the placement perf benchmarks; emit ``BENCH_placement.json``,
``BENCH_energy.json``, ``BENCH_replicas.json``, ``BENCH_serving.json``,
``BENCH_validation.json``, ``BENCH_resilience.json``, and
``BENCH_federation.json``.

This is the repo's recorded perf trajectory: the instance-size sweep
(scalar vs. tensorized objective, brute force vs. branch-and-bound), a
serve-under-churn recovery run, the energy-placement sweep (energy
branch-and-bound vs. brute force under a latency budget, see
``docs/energy.md``), the replica sweep (replica branch-and-bound vs.
brute-force host-set enumeration, plus the serving autoscaler vs. static
replication under bursty overload, see ``docs/placement.md``), and the
serving-engine sweep (the flat event-loop engine at 100k-arrival scale,
plus a million-arrival replay, see ``docs/serving.md``), and the queue-aware
solver-vs-serving validation sweep (predicted vs serving-measured latency
on queue-aware and queue-blind placements, see ``docs/performance.md``),
and the fault-scenario resilience study (named fault scenarios served
with and without graceful degradation, with conservation and determinism
gates, see ``docs/serving.md``), and the WAN federation
study (three timezone-offset clusters with spillover routing vs isolated,
with cross-cluster conservation, parallel-vs-sequential merge
bit-identity, and spillover-wins gates, see ``docs/federation.md``).
The checked-in JSONs are regenerated with::

    python scripts/run_benchmarks.py

and CI runs the trimmed ``--smoke`` variant on every push (writing
``BENCH_smoke.json`` / ``BENCH_energy_smoke.json`` /
``BENCH_replicas_smoke.json`` / ``BENCH_serving_smoke.json`` /
``BENCH_validation_smoke.json`` / ``BENCH_resilience_smoke.json`` /
``BENCH_federation_smoke.json``),
uploading
the JSONs as artifacts so the trend is inspectable per commit.  See
``docs/performance.md`` for the schema and how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
# The scalar objective the "objective mismatch" gate compares against.
sys.path.insert(0, str(REPO_ROOT / "tests"))

FULL_SWEEP = [(3, 4), (4, 5), (6, 8), (8, 16), (10, 24), (10, 32)]
SMOKE_SWEEP = [(3, 4), (6, 8), (8, 16)]
ENERGY_FULL_SWEEP = [(3, 4), (4, 5), (6, 8), (8, 16), (10, 32)]
ENERGY_SMOKE_SWEEP = [(3, 4), (6, 8)]
#: (modules, devices, max_copies).  The replica search space is the subset
#: lattice (~(N + N^2/2)^M), exponentially larger than single-copy N^M, so
#: the exact envelope is deliberately smaller — see docs/placement.md.
REPLICA_FULL_SWEEP = [(3, 4, 2), (4, 5, 2), (4, 5, 3), (4, 6, 2), (5, 8, 2)]
REPLICA_SMOKE_SWEEP = [(3, 4, 2), (4, 5, 2)]
#: (label, kind, rate_rps, duration_s).  Each full point replays ~100k
#: arrivals through the serving engine (see docs/serving.md).
SERVING_FULL_SWEEP = [
    ("capacity", "poisson", 2.0, 50000.0),
    ("overload", "poisson", 20.0, 5000.0),
    ("deep-overload", "poisson", 40.0, 2500.0),
]
SERVING_SMOKE_SWEEP = [
    ("capacity", "poisson", 2.0, 500.0),
    ("overload", "poisson", 20.0, 500.0),
]
#: The million-arrival replay (records off).
SERVING_REPLAY_FULL = ("poisson", 2.0, 500000.0)
SERVING_REPLAY_SMOKE = ("poisson", 20.0, 1000.0)
SERVING_MODELS = ["clip-vit-b16", "encoder-vqa-small"]
#: Validation sweep points: sub-saturation rows gate predicted-vs-measured
#: tracking; the >= 1 rps row is the overload point where the queue-aware
#: placement must beat the queue-blind one (see docs/performance.md).
VALIDATION_FULL = dict(rates=(0.1, 0.3, 4.0), duration_s=40.0)
VALIDATION_SMOKE = dict(rates=(0.5, 4.0), duration_s=12.0)


def bench_objective(n_modules: int, n_devices: int, repeats: int) -> dict:
    """Scalar vs. tensorized objective timing on one synthetic instance."""
    from repro.core.placement.greedy import greedy_placement
    from repro.core.routing.latency import LatencyModel
    from repro.experiments.scaling import synthetic_instance
    from scalar_reference import objective_scalar

    instance = synthetic_instance(n_modules, n_devices, seed=1, n_requests=16)
    requests = list(instance.requests)
    placement = greedy_placement(instance.problem)
    model = LatencyModel(instance.problem, instance.network)

    build_start = time.perf_counter()
    tensor_value = model.objective(requests, placement)  # builds tensors
    tensor_build_s = time.perf_counter() - build_start
    scalar_value = objective_scalar(model, requests, placement)

    start = time.perf_counter()
    for _ in range(repeats):
        model.objective(requests, placement)
    tensor_s = (time.perf_counter() - start) / repeats
    start = time.perf_counter()
    for _ in range(repeats):
        objective_scalar(model, requests, placement)
    scalar_s = (time.perf_counter() - start) / repeats
    return {
        "modules": n_modules,
        "devices": n_devices,
        "requests": len(requests),
        "bit_identical": tensor_value == scalar_value,
        "tensor_build_s": round(tensor_build_s, 6),
        "scalar_objective_s": round(scalar_s, 6),
        "tensor_objective_s": round(tensor_s, 6),
        "speedup": round(scalar_s / tensor_s, 2),
    }


def bench_solver(n_modules: int, n_devices: int) -> dict:
    """Greedy / brute-force / branch-and-bound on one synthetic instance."""
    from repro.core.placement.bnb import BnBStats, branch_and_bound_placement
    from repro.core.placement.greedy import greedy_placement
    from repro.core.placement.optimal import MAX_ASSIGNMENTS, optimal_placement
    from repro.core.routing.latency import LatencyModel
    from repro.experiments.scaling import synthetic_instance

    instance = synthetic_instance(n_modules, n_devices, seed=1, n_requests=4)
    requests = list(instance.requests)
    model = LatencyModel(instance.problem, instance.network)

    start = time.perf_counter()
    greedy = greedy_placement(instance.problem)
    greedy_s = time.perf_counter() - start
    greedy_objective = model.objective(requests, greedy)

    stats = BnBStats()
    start = time.perf_counter()
    _, bnb_objective = branch_and_bound_placement(
        instance.problem, requests, instance.network, stats=stats
    )
    bnb_s = time.perf_counter() - start

    row = {
        "modules": n_modules,
        "devices": n_devices,
        "assignments": n_devices ** n_modules,
        "greedy_s": round(greedy_s, 6),
        "greedy_objective": greedy_objective,
        "bnb_s": round(bnb_s, 6),
        "bnb_objective": bnb_objective,
        "bnb_nodes": stats.nodes,
        "bnb_leaves": stats.leaves,
        "bnb_pruned": stats.pruned,
        "greedy_optimality_gap": round(greedy_objective / bnb_objective - 1.0, 6),
    }
    # Brute force only where the old enumeration would even start, and only
    # at sizes that finish in reasonable time for a benchmark harness.
    if n_devices ** n_modules <= min(MAX_ASSIGNMENTS, 300_000):
        start = time.perf_counter()
        _, brute_objective = optimal_placement(
            instance.problem, requests, instance.network, solver="brute"
        )
        row["brute_s"] = round(time.perf_counter() - start, 6)
        row["brute_matches_bnb"] = brute_objective == bnb_objective
    return row


def bench_energy_solver(n_modules: int, n_devices: int, budget_factor: float = 1.5) -> dict:
    """Energy branch-and-bound vs brute force under a 1.5x latency budget."""
    from repro.core.placement.bnb import BnBStats, energy_branch_and_bound
    from repro.core.placement.greedy import greedy_placement
    from repro.core.placement.optimal import MAX_ASSIGNMENTS, energy_optimal_placement
    from repro.core.routing.latency import LatencyModel
    from repro.experiments.scaling import synthetic_instance
    from repro.profiles.energy import energy_objective

    instance = synthetic_instance(n_modules, n_devices, seed=1, n_requests=4)
    requests = list(instance.requests)
    model = LatencyModel(instance.problem, instance.network)
    greedy = greedy_placement(instance.problem)
    greedy_latency = model.objective(requests, greedy)
    greedy_joules = energy_objective(requests, greedy, model)
    budget = budget_factor * greedy_latency

    stats = BnBStats()
    start = time.perf_counter()
    placement, joules = energy_branch_and_bound(
        instance.problem, requests, instance.network,
        latency_budget=budget, tensors=model.tensors, stats=stats,
    )
    bnb_s = time.perf_counter() - start

    row = {
        "modules": n_modules,
        "devices": n_devices,
        "assignments": n_devices ** n_modules,
        "budget_factor": budget_factor,
        "greedy_joules": greedy_joules,
        "greedy_latency_s": greedy_latency,
        "bnb_s": round(bnb_s, 6),
        "bnb_joules": joules,
        "bnb_latency_s": model.objective(requests, placement),
        "bnb_nodes": stats.nodes,
        "bnb_leaves": stats.leaves,
        "bnb_pruned": stats.pruned,
        "energy_saving": round(1.0 - joules / greedy_joules, 6),
    }
    if n_devices ** n_modules <= min(MAX_ASSIGNMENTS, 300_000):
        start = time.perf_counter()
        brute_placement, brute_joules = energy_optimal_placement(
            instance.problem, requests, instance.network,
            latency_budget=budget, solver="brute", tensors=model.tensors,
        )
        row["brute_s"] = round(time.perf_counter() - start, 6)
        row["brute_matches_bnb"] = (
            brute_joules == joules
            and brute_placement.as_dict() == placement.as_dict()
        )
    return row


def bench_replica_solver(n_modules: int, n_devices: int, max_copies: int) -> dict:
    """Replica-aware greedy / brute / branch-and-bound on one instance."""
    from repro.core.placement.greedy import greedy_placement
    from repro.core.placement.optimal import MAX_ASSIGNMENTS, host_subsets
    from repro.core.placement.replicas import (
        replica_aware_greedy,
        replica_branch_and_bound,
        replica_brute_force,
    )
    from repro.core.routing.latency import LatencyModel
    from repro.experiments.scaling import synthetic_instance

    instance = synthetic_instance(n_modules, n_devices, seed=1, n_requests=6)
    requests = list(instance.requests)
    model = LatencyModel(instance.problem, instance.network)
    single = greedy_placement(instance.problem)
    single_objective = model.replica_objective(requests, single)

    start = time.perf_counter()
    _, greedy_objective = replica_aware_greedy(
        instance.problem, requests, instance.network,
        max_copies=max_copies, tensors=model.tensors,
    )
    greedy_s = time.perf_counter() - start

    start = time.perf_counter()
    bnb_placement, bnb_objective = replica_branch_and_bound(
        instance.problem, requests, instance.network,
        max_copies=max_copies, tensors=model.tensors,
    )
    bnb_s = time.perf_counter() - start

    n_subsets = len(host_subsets([d.name for d in instance.problem.devices], max_copies))
    row = {
        "modules": n_modules,
        "devices": n_devices,
        "max_copies": max_copies,
        "host_set_assignments": n_subsets ** n_modules,
        "single_copy_objective": single_objective,
        "replica_greedy_s": round(greedy_s, 6),
        "replica_greedy_objective": greedy_objective,
        "bnb_s": round(bnb_s, 6),
        "bnb_objective": bnb_objective,
        "replication_gain": round(1.0 - bnb_objective / single_objective, 6),
        "greedy_optimality_gap": round(greedy_objective / bnb_objective - 1.0, 6),
    }
    if n_subsets ** n_modules <= min(MAX_ASSIGNMENTS, 300_000):
        start = time.perf_counter()
        brute_placement, brute_objective = replica_brute_force(
            instance.problem, requests, instance.network,
            max_copies=max_copies, tensors=model.tensors,
        )
        row["brute_s"] = round(time.perf_counter() - start, 6)
        row["brute_matches_bnb"] = (
            brute_objective == bnb_objective
            and brute_placement.as_dict() == bnb_placement.as_dict()
        )
    return row


def bench_replica_serving(duration_s: float, rate_rps: float = 2.5, seed: int = 7) -> dict:
    """Bursty overload: single-copy vs leftover replication vs autoscale.

    Runs the SAME study as ``python -m repro replicas``
    (:func:`repro.experiments.replicas.run_serving_study` — one definition,
    no drift) and records it with conservation flags.  Admission is off so
    the metrics measure raw serving capacity; the acceptance bar is the
    autoscaler beating the ``replicate=True`` baseline on goodput **or**
    p95 at this high-rate point.
    """
    from repro.experiments.replicas import run_serving_study

    start = time.perf_counter()
    reports = run_serving_study(rate_rps=rate_rps, duration_s=duration_s, seed=seed)
    wall_s = time.perf_counter() - start
    result = {
        "workload": "bursty",
        "rate_rps": rate_rps,
        "duration_s": duration_s,
        "seed": seed,
        "arrivals": reports[0][1].arrivals,
        "wall_s": round(wall_s, 4),
    }
    for key, report in reports:
        result[key] = {
            "goodput_rps": round(report.goodput_rps, 6),
            "p50_s": round(report.latency.p50, 4),
            "p95_s": round(report.latency.p95, 4),
            "makespan_s": round(report.latency.makespan, 4),
            "completed": report.completed,
            "conservation_ok": report.completed + report.rejected == report.arrivals,
            "scale_actions_applied": sum(1 for s in report.scaling if s.applied),
        }
    result["autoscale_beats_leftover"] = (
        result["autoscale"]["goodput_rps"] > result["leftover"]["goodput_rps"]
        or result["autoscale"]["p95_s"] < result["leftover"]["p95_s"]
    )
    return result


def bench_validation(smoke: bool) -> dict:
    """Queue-aware solver-vs-serving cross-validation (gated).

    Runs the SAME sweep as ``python -m repro validation``
    (:func:`repro.experiments.validation.run_validation` — one definition,
    no drift) and adds a queue-aware bnb-vs-brute cross-check on the
    deployment instance.  Gates recorded in the payload: gate (a)
    predicted mean/p95 inside the tolerance band on sub-saturation rows,
    gate (b) the queue-aware placement beating the queue-blind one on
    serving-measured p95 or goodput at the overload row.
    """
    from repro.cluster.network import Network
    from repro.cluster.topology import build_testbed
    from repro.core.engine import S2M3Engine
    from repro.core.placement.optimal import optimal_placement
    from repro.core.placement.tensors import CongestionModel
    from repro.experiments.validation import (
        STUDY_MODELS,
        _solver_requests,
        run_validation,
    )
    from repro.serving import WorkloadGenerator

    params = VALIDATION_SMOKE if smoke else VALIDATION_FULL
    start = time.perf_counter()
    study = run_validation(**params)
    payload = study.as_dict()
    payload["wall_s"] = round(time.perf_counter() - start, 4)

    # Queue-aware exactness on the very instance serving deploys: bnb and
    # brute must agree on placement and objective with the wait term on.
    problem = S2M3Engine(build_testbed(), list(STUDY_MODELS)).problem
    requests = _solver_requests(problem)
    trace = WorkloadGenerator(
        list(STUDY_MODELS), kind=study.kind, rate_rps=max(params["rates"]),
        duration_s=params["duration_s"], seed=study.seed,
    ).generate()
    congestion = CongestionModel.from_trace(trace)
    bnb_pl, bnb_obj = optimal_placement(
        problem, requests, network=Network(), solver="bnb", congestion=congestion
    )
    brute_pl, brute_obj = optimal_placement(
        problem, requests, network=Network(), solver="brute", congestion=congestion
    )
    payload["qa_bnb_matches_brute"] = (
        bnb_obj == brute_obj and bnb_pl.as_dict() == brute_pl.as_dict()
    )
    return payload


def bench_serving_churn(duration_s: float) -> dict:
    """Serve a Poisson trace through fail/recover churn; report recovery."""
    from repro.serving import FaultPlan, ServingRuntime, SLOPolicy, WorkloadGenerator, crash

    models = ["clip-vit-b16", "encoder-vqa-small"]
    trace = WorkloadGenerator(
        models, kind="poisson", rate_rps=0.4, duration_s=duration_s, seed=5
    ).generate()
    churn = FaultPlan.ordered(
        crash("desktop", at=duration_s / 6, until=duration_s / 2)
        + crash("laptop", at=2 * duration_s / 3)
    )
    runtime = ServingRuntime(models, slo=SLOPolicy(admission=False))
    start = time.perf_counter()
    report = runtime.run(trace, faults=churn)
    wall_s = time.perf_counter() - start
    return {
        "duration_s": duration_s,
        "wall_s": round(wall_s, 4),
        "arrivals": report.arrivals,
        "completed": report.completed,
        "rejected": report.rejected,
        "conservation_ok": report.completed + report.rejected == report.arrivals,
        "migrations": len(report.migrations),
        "churn_applied": sum(1 for c in report.churn if c.applied),
        "p50_s": round(report.latency.p50, 4),
        "p95_s": round(report.latency.p95, 4),
        "switching_cost_s": round(
            sum(m.switching_cost_s for m in report.migrations), 4
        ),
    }


def bench_serving_point(
    label: str, kind: str, rate_rps: float, duration_s: float, *, seed: int = 0,
    repeats: int = 2,
) -> dict:
    """Replay one trace through the serving engine, best-of-``repeats``.

    Report-level behaviour is pinned separately by the golden digests in
    ``tests/test_serving_golden.py``; this row records throughput.
    """
    from repro.serving import ServingRuntime, WorkloadGenerator

    best_wall = None
    report = None
    for _ in range(repeats):
        trace = WorkloadGenerator(
            SERVING_MODELS, kind=kind, rate_rps=rate_rps,
            duration_s=duration_s, seed=seed,
        ).generate()
        runtime = ServingRuntime(SERVING_MODELS)
        start = time.perf_counter()
        report = runtime.run(trace)
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return {
        "label": label,
        "workload": kind,
        "rate_rps": rate_rps,
        "duration_s": duration_s,
        "seed": seed,
        "arrivals": report.arrivals,
        "wall_s": round(best_wall, 4),
        "arrivals_per_s": round(report.arrivals / best_wall, 1),
        "conservation_ok": report.completed + report.rejected == report.arrivals,
        "completed": report.completed,
        "rejected": report.rejected,
        "p95_s": round(report.latency.p95, 4),
    }


def bench_serving_replay(kind: str, rate_rps: float, duration_s: float, *, seed: int = 0) -> dict:
    """The headline replay: flat engine, records off, arrivals at scale."""
    from repro.serving import ServingRuntime, WorkloadGenerator

    trace = WorkloadGenerator(
        SERVING_MODELS, kind=kind, rate_rps=rate_rps,
        duration_s=duration_s, seed=seed,
    ).generate()
    runtime = ServingRuntime(SERVING_MODELS, keep_records=False)
    start = time.perf_counter()
    report = runtime.run(trace)
    wall_s = time.perf_counter() - start
    return {
        "workload": kind,
        "rate_rps": rate_rps,
        "duration_s": duration_s,
        "seed": seed,
        "arrivals": report.arrivals,
        "wall_s": round(wall_s, 2),
        "arrivals_per_s": round(report.arrivals / wall_s, 1),
        "completed": report.completed,
        "rejected": report.rejected,
        "conservation_ok": report.completed + report.rejected == report.arrivals,
        "p95_s": round(report.latency.p95, 4),
    }


def bench_resilience(smoke: bool) -> dict:
    """Fault scenarios with and without graceful degradation (gated).

    Runs the SAME study as ``python -m repro resilience``
    (:func:`repro.experiments.resilience.run_resilience_study` — one
    definition, no drift).  Gates recorded in the payload: (a) widened
    conservation ``completed + rejected + timed_out == arrivals`` on every
    (scenario, configuration) cell, (b) the graceful configuration
    (timeouts + retry budget + brownout) beating the degradation-off
    baseline on goodput **or** p95 in the regional-outage and straggler
    rows, and (c) same seed ⇒ identical reports, compared by
    :meth:`~repro.serving.report.ServingReport.digest`.  The study itself is sub-second, so smoke and full runs share
    the exact same parameters — one record, no drifting smoke variant.
    """
    from repro.experiments.resilience import (
        STUDY_DURATION_S,
        STUDY_RATE_RPS,
        STUDY_SEED,
        run_resilience_study,
    )

    start = time.perf_counter()
    reports = run_resilience_study()
    result = {
        "workload": "bursty",
        "rate_rps": STUDY_RATE_RPS,
        "duration_s": STUDY_DURATION_S,
        "seed": STUDY_SEED,
        "arrivals": reports[0][2].arrivals,
        "scenarios": {},
    }
    for scenario, key, report in reports:
        cell = result["scenarios"].setdefault(scenario, {})
        cell[key] = {
            "goodput_rps": round(report.goodput_rps, 6),
            "p50_s": round(report.latency.p50, 4),
            "p95_s": round(report.latency.p95, 4),
            "completed": report.completed,
            "rejected": report.rejected,
            "timed_out": report.timed_out,
            "retries": sum(r.retries for r in report.records),
            "brownout_level_changes": len(report.brownout),
            "migrations": len(report.migrations),
            "conservation_ok": (
                report.completed + report.rejected + report.timed_out
                == report.arrivals
            ),
        }
    for scenario, cell in result["scenarios"].items():
        cell["graceful_beats_baseline"] = (
            cell["graceful"]["goodput_rps"] > cell["baseline"]["goodput_rps"]
            or cell["graceful"]["p95_s"] < cell["baseline"]["p95_s"]
        )

    # Gate (c): same seed, same study call ⇒ identical reports (the whole
    # pipeline is deterministic, not just seeded).
    rerun = run_resilience_study()
    result["deterministic"] = all(
        a[2].digest() == b[2].digest() for a, b in zip(reports, rerun)
    )
    result["wall_s"] = round(time.perf_counter() - start, 4)
    return result


def bench_federation(smoke: bool) -> dict:
    """WAN federation: spillover routing vs isolated clusters (gated).

    Runs the SAME study as ``python -m repro federation --study``
    (:func:`repro.experiments.federation.run_federation_study` — one
    definition, no drift) at full or smoke duration.  Gates recorded in
    the payload: (a) per-cluster and global cross-cluster conservation in
    every (scenario, mode) cell, (b) ``merge(parallel)`` bit-identical to
    ``merge(sequential)`` for the same seed, (c) spillover beating the
    isolated baseline on goodput **or** p95 under the regional outage AND
    under offset diurnal peaks, (d) same-seed rerun digest determinism.
    """
    from repro.experiments.federation import (
        STUDY_DURATION_S,
        STUDY_RATE_RPS,
        STUDY_SEED,
        run_federation_study,
        study_fault_plans,
        study_runtime,
    )

    duration_s = 40.0 if smoke else STUDY_DURATION_S
    start = time.perf_counter()
    reports = run_federation_study(duration_s, STUDY_SEED)
    result = {
        "workload": "diurnal",
        "rate_rps_per_cluster": STUDY_RATE_RPS,
        "duration_s": duration_s,
        "seed": STUDY_SEED,
        "clusters": len(reports[0][2].clusters),
        "local_arrivals": reports[0][2].local_arrivals,
        "scenarios": {},
    }
    for scenario, key, report in reports:
        per_cluster_ok = all(
            c.arrivals == c.local_arrivals - c.forwarded_out + c.forwarded_in
            and c.completed + c.rejected + c.timed_out == c.arrivals
            for c in report.clusters
        )
        ledger = sum(
            c.completed + c.rejected + c.timed_out + c.forwarded_out - c.forwarded_in
            for c in report.clusters
        )
        cell = result["scenarios"].setdefault(scenario, {})
        cell[key] = {
            "goodput_rps": round(report.goodput_rps, 6),
            "p50_s": round(report.latency.p50, 4),
            "p95_s": round(report.latency.p95, 4),
            "completed": report.completed,
            "forwarded": report.forwarded,
            "rejected": report.rejected,
            "timed_out": report.timed_out,
            "slo_attainment": round(report.slo_attainment, 6),
            "conservation_ok": per_cluster_ok and ledger == report.local_arrivals,
            "digest": report.digest(),
        }
    for scenario, cell in result["scenarios"].items():
        cell["spillover_beats_isolated"] = (
            cell["spillover"]["goodput_rps"] > cell["isolated"]["goodput_rps"]
            or cell["spillover"]["p95_s"] < cell["isolated"]["p95_s"]
        )

    # Gate (b): the multiprocess fan-out must merge bit-identically to the
    # sequential oracle — same seed, outage scenario (the hardest cell).
    runtime = study_runtime(spillover=True, duration_s=duration_s)
    plans = study_fault_plans("regional-outage", duration_s)
    sequential = runtime.run(STUDY_SEED, fault_plans=plans, parallel=False)
    parallel = runtime.run(STUDY_SEED, fault_plans=plans, parallel=True)
    result["parallel_matches_sequential"] = parallel.digest() == sequential.digest()

    # Gate (d): same-seed rerun of the whole study reproduces every digest.
    rerun = run_federation_study(duration_s, STUDY_SEED)
    result["deterministic"] = all(
        a[2].digest() == b[2].digest() for a, b in zip(reports, rerun)
    )
    result["wall_s"] = round(time.perf_counter() - start, 4)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="trimmed sweep for CI (seconds, not minutes)",
    )
    parser.add_argument(
        "--repeats", type=int, default=30,
        help="objective-timing repetitions per instance (default 30)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="where to write the JSON report (default: BENCH_placement.json "
        "for full runs, BENCH_smoke.json for --smoke so the checked-in "
        "full-sweep record is never clobbered by a trimmed run)",
    )
    parser.add_argument(
        "--energy-output", type=Path, default=None,
        help="where to write the energy-placement JSON (default: "
        "BENCH_energy.json for full runs, BENCH_energy_smoke.json for --smoke)",
    )
    parser.add_argument(
        "--replica-output", type=Path, default=None,
        help="where to write the replica-placement/serving JSON (default: "
        "BENCH_replicas.json for full runs, BENCH_replicas_smoke.json for --smoke)",
    )
    parser.add_argument(
        "--serving-output", type=Path, default=None,
        help="where to write the serving-engine JSON (default: "
        "BENCH_serving.json for full runs, BENCH_serving_smoke.json for --smoke)",
    )
    parser.add_argument(
        "--validation-output", type=Path, default=None,
        help="where to write the solver-vs-serving validation JSON (default: "
        "BENCH_validation.json for full runs, BENCH_validation_smoke.json "
        "for --smoke)",
    )
    parser.add_argument(
        "--resilience-output", type=Path, default=None,
        help="where to write the fault-scenario resilience JSON (default: "
        "BENCH_resilience.json for full runs, BENCH_resilience_smoke.json "
        "for --smoke)",
    )
    parser.add_argument(
        "--federation-output", type=Path, default=None,
        help="where to write the WAN federation JSON (default: "
        "BENCH_federation.json for full runs, BENCH_federation_smoke.json "
        "for --smoke)",
    )
    args = parser.parse_args()
    if args.output is None:
        args.output = REPO_ROOT / ("BENCH_smoke.json" if args.smoke else "BENCH_placement.json")
    if args.energy_output is None:
        args.energy_output = REPO_ROOT / (
            "BENCH_energy_smoke.json" if args.smoke else "BENCH_energy.json"
        )
    if args.replica_output is None:
        args.replica_output = REPO_ROOT / (
            "BENCH_replicas_smoke.json" if args.smoke else "BENCH_replicas.json"
        )
    if args.serving_output is None:
        args.serving_output = REPO_ROOT / (
            "BENCH_serving_smoke.json" if args.smoke else "BENCH_serving.json"
        )
    if args.validation_output is None:
        args.validation_output = REPO_ROOT / (
            "BENCH_validation_smoke.json" if args.smoke else "BENCH_validation.json"
        )
    if args.resilience_output is None:
        args.resilience_output = REPO_ROOT / (
            "BENCH_resilience_smoke.json" if args.smoke else "BENCH_resilience.json"
        )
    if args.federation_output is None:
        args.federation_output = REPO_ROOT / (
            "BENCH_federation_smoke.json" if args.smoke else "BENCH_federation.json"
        )

    import numpy

    sweep = SMOKE_SWEEP if args.smoke else FULL_SWEEP
    results = {
        "benchmark": "placement",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "objective_sweep": [],
        "solver_sweep": [],
    }

    for n_modules, n_devices in sweep:
        print(f"objective sweep {n_modules}x{n_devices} ...", flush=True)
        results["objective_sweep"].append(
            bench_objective(n_modules, n_devices, args.repeats)
        )
    for n_modules, n_devices in sweep:
        print(f"solver sweep {n_modules}x{n_devices} ...", flush=True)
        results["solver_sweep"].append(bench_solver(n_modules, n_devices))
    print("serving churn recovery ...", flush=True)
    results["serving_churn"] = bench_serving_churn(20.0 if args.smoke else 60.0)

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")

    energy_results = {
        "benchmark": "energy-placement",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "solver_sweep": [],
    }
    for n_modules, n_devices in (ENERGY_SMOKE_SWEEP if args.smoke else ENERGY_FULL_SWEEP):
        print(f"energy solver sweep {n_modules}x{n_devices} ...", flush=True)
        energy_results["solver_sweep"].append(bench_energy_solver(n_modules, n_devices))
    args.energy_output.write_text(json.dumps(energy_results, indent=2) + "\n")
    print(f"wrote {args.energy_output}")

    replica_results = {
        "benchmark": "replica-placement",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "solver_sweep": [],
    }
    for n_modules, n_devices, max_copies in (
        REPLICA_SMOKE_SWEEP if args.smoke else REPLICA_FULL_SWEEP
    ):
        print(f"replica solver sweep {n_modules}x{n_devices} mc={max_copies} ...", flush=True)
        replica_results["solver_sweep"].append(
            bench_replica_solver(n_modules, n_devices, max_copies)
        )
    print("replica serving (autoscale vs static replication) ...", flush=True)
    replica_results["serving"] = bench_replica_serving(20.0 if args.smoke else 40.0)
    args.replica_output.write_text(json.dumps(replica_results, indent=2) + "\n")
    print(f"wrote {args.replica_output}")

    serving_results = {
        "benchmark": "serving-engine",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "sweep": [],
    }
    for label, kind, rate_rps, duration_s in (
        SERVING_SMOKE_SWEEP if args.smoke else SERVING_FULL_SWEEP
    ):
        print(f"serving sweep {label} (rate={rate_rps}) ...", flush=True)
        serving_results["sweep"].append(
            bench_serving_point(label, kind, rate_rps, duration_s)
        )
    replay_point = SERVING_REPLAY_SMOKE if args.smoke else SERVING_REPLAY_FULL
    print(f"serving replay (rate={replay_point[1]}, "
          f"duration={replay_point[2]}) ...", flush=True)
    serving_results["replay"] = bench_serving_replay(*replay_point)
    args.serving_output.write_text(json.dumps(serving_results, indent=2) + "\n")
    print(f"wrote {args.serving_output}")

    print("solver-vs-serving validation sweep ...", flush=True)
    validation_results = {
        "benchmark": "solver-serving-validation",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    validation_results.update(bench_validation(args.smoke))
    args.validation_output.write_text(json.dumps(validation_results, indent=2) + "\n")
    print(f"wrote {args.validation_output}")

    print("fault-scenario resilience study ...", flush=True)
    resilience_results = {
        "benchmark": "fault-resilience",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    resilience_results.update(bench_resilience(args.smoke))
    args.resilience_output.write_text(json.dumps(resilience_results, indent=2) + "\n")
    print(f"wrote {args.resilience_output}")

    print("WAN federation study ...", flush=True)
    federation_results = {
        "benchmark": "wan-federation",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    federation_results.update(bench_federation(args.smoke))
    args.federation_output.write_text(json.dumps(federation_results, indent=2) + "\n")
    print(f"wrote {args.federation_output}")

    failures = []
    for row in results["objective_sweep"]:
        if not row["bit_identical"]:
            failures.append(f"objective mismatch at {row['modules']}x{row['devices']}")
    for row in results["solver_sweep"]:
        if row.get("brute_matches_bnb") is False:
            failures.append(f"solver mismatch at {row['modules']}x{row['devices']}")
        if row["bnb_objective"] > row["greedy_objective"] + 1e-12:
            failures.append(f"bnb worse than greedy at {row['modules']}x{row['devices']}")
    if not results["serving_churn"]["conservation_ok"]:
        failures.append("serving conservation violated")
    for row in energy_results["solver_sweep"]:
        if row.get("brute_matches_bnb") is False:
            failures.append(f"energy solver mismatch at {row['modules']}x{row['devices']}")
        if row["bnb_joules"] > row["greedy_joules"] + 1e-12:
            failures.append(f"energy bnb worse than greedy at {row['modules']}x{row['devices']}")
        if row["bnb_latency_s"] > row["budget_factor"] * row["greedy_latency_s"] + 1e-12:
            failures.append(f"energy bnb over budget at {row['modules']}x{row['devices']}")
    for row in replica_results["solver_sweep"]:
        where = f"{row['modules']}x{row['devices']} mc={row['max_copies']}"
        if row.get("brute_matches_bnb") is False:
            failures.append(f"replica solver mismatch at {where}")
        if row["bnb_objective"] > row["replica_greedy_objective"] + 1e-12:
            failures.append(f"replica bnb worse than replica greedy at {where}")
        if row["bnb_objective"] > row["single_copy_objective"] + 1e-12:
            failures.append(f"replica bnb worse than single-copy at {where}")
    serving = replica_results["serving"]
    for label in ("single_copy", "leftover", "autoscale"):
        if not serving[label]["conservation_ok"]:
            failures.append(f"replica serving conservation violated ({label})")
    if not serving["autoscale_beats_leftover"]:
        failures.append(
            "autoscale does not beat leftover replication on goodput or p95 "
            "at the benchmarked high-rate point"
        )
    for row in serving_results["sweep"]:
        if not row["conservation_ok"]:
            failures.append(
                f"serving engine conservation violated at {row['label']}"
            )
    if not serving_results["replay"]["conservation_ok"]:
        failures.append("serving replay conservation violated")
    validation_gates = validation_results["gates"]
    if not validation_gates["tolerance_ok"]:
        failures.append(
            "validation: predicted latency outside the tolerance band on a "
            "sub-saturation row (see BENCH_validation*.json rows)"
        )
    if not validation_gates["aware_beats_blind_at_overload"]:
        failures.append(
            "validation: queue-aware placement does not beat queue-blind on "
            "measured p95 or goodput at the overload row"
        )
    if not validation_results["qa_bnb_matches_brute"]:
        failures.append(
            "validation: queue-aware bnb does not match brute force on the "
            "deployment instance"
        )
    for scenario, cell in resilience_results["scenarios"].items():
        for key in ("baseline", "graceful"):
            if not cell[key]["conservation_ok"]:
                failures.append(
                    f"resilience: conservation violated ({scenario}/{key})"
                )
        if scenario in ("regional-outage", "flash-crowd-stragglers") and not cell[
            "graceful_beats_baseline"
        ]:
            failures.append(
                f"resilience: graceful degradation does not beat the "
                f"degradation-off baseline on goodput or p95 ({scenario})"
            )
    if not resilience_results["deterministic"]:
        failures.append(
            "resilience: same-seed rerun produced a different report"
        )
    for scenario, cell in federation_results["scenarios"].items():
        for key in ("isolated", "spillover"):
            if not cell[key]["conservation_ok"]:
                failures.append(
                    f"federation: cross-cluster conservation violated "
                    f"({scenario}/{key})"
                )
        if not cell["spillover_beats_isolated"]:
            failures.append(
                f"federation: WAN spillover does not beat isolated clusters "
                f"on goodput or p95 ({scenario})"
            )
    if not federation_results["parallel_matches_sequential"]:
        failures.append(
            "federation: parallel per-cluster simulation does not merge "
            "bit-identically to the sequential oracle"
        )
    if not federation_results["deterministic"]:
        failures.append(
            "federation: same-seed rerun produced a different merged digest"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
