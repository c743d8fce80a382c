#!/usr/bin/env python
"""Record the placement, energy, replica, serving, validation, resilience
and federation studies into the seven ``BENCH_*.json`` files at the
repository root.

Run it from anywhere, with no options::

    python scripts/run_benchmarks.py

It records numbers and gate verdicts; it checks nothing.  The gates
(bnb == brute, bnb no worse than greedy, conservation, the studies'
"beats" and determinism verdicts) are asserted by the test suite at the
same parameters: ``tests/test_study_gates.py`` and the brute-force pins
in ``tests/test_bnb_golden.py``.  See ``docs/performance.md`` for the
schema and how to read the numbers.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
# The scalar objective the objective sweep times against.
sys.path.insert(0, str(REPO_ROOT / "tests"))

SWEEP = [(3, 4), (4, 5), (6, 8), (8, 16), (10, 24), (10, 32)]
ENERGY_SWEEP = [(3, 4), (4, 5), (6, 8), (8, 16), (10, 32)]
#: (modules, devices, max_copies).  The replica search space is the subset
#: lattice (~(N + N^2/2)^M), exponentially larger than single-copy N^M, so
#: the exact envelope is deliberately smaller — see docs/placement.md.
REPLICA_SWEEP = [(3, 4, 2), (4, 5, 2), (4, 5, 3), (4, 6, 2), (5, 8, 2)]
#: (label, kind, rate_rps, duration_s).  Each point replays ~100k
#: arrivals through the serving engine (see docs/serving.md).
SERVING_SWEEP = [
    ("capacity", "poisson", 2.0, 50000.0),
    ("overload", "poisson", 20.0, 5000.0),
    ("deep-overload", "poisson", 40.0, 2500.0),
]
#: The million-arrival replay (records off).
SERVING_REPLAY = ("poisson", 2.0, 500000.0)
SERVING_MODELS = ["clip-vit-b16", "encoder-vqa-small"]
#: Objective-timing repetitions per instance.
REPEATS = 30


def bench_objective(n_modules: int, n_devices: int) -> dict:
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
    for _ in range(REPEATS):
        model.objective(requests, placement)
    tensor_s = (time.perf_counter() - start) / REPEATS
    start = time.perf_counter()
    for _ in range(REPEATS):
        objective_scalar(model, requests, placement)
    scalar_s = (time.perf_counter() - start) / REPEATS
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
    the metrics measure raw serving capacity.
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


def bench_validation() -> dict:
    """Queue-aware solver-vs-serving cross-validation.

    Runs the SAME sweep as ``python -m repro validation``
    (:func:`repro.experiments.validation.run_validation` — one definition,
    no drift) and adds a queue-aware bnb-vs-brute cross-check on the
    deployment instance.
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

    start = time.perf_counter()
    study = run_validation()
    payload = study.as_dict()
    payload["wall_s"] = round(time.perf_counter() - start, 4)

    # Queue-aware exactness on the very instance serving deploys: whether
    # bnb and brute agree on placement and objective with the wait term on.
    problem = S2M3Engine(build_testbed(), list(STUDY_MODELS)).problem
    requests = _solver_requests(problem)
    trace = WorkloadGenerator(
        list(STUDY_MODELS), kind=study.kind, rate_rps=max(row.rate_rps for row in study.rows),
        duration_s=study.duration_s, seed=study.seed,
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


def bench_resilience() -> dict:
    """Fault scenarios with and without graceful degradation.

    Runs the SAME study as ``python -m repro resilience``
    (:func:`repro.experiments.resilience.run_resilience_study` — one
    definition, no drift), twice, and records whether the two runs'
    :meth:`~repro.serving.report.ServingReport.digest` values agree.
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

    rerun = run_resilience_study()
    result["deterministic"] = all(
        a[2].digest() == b[2].digest() for a, b in zip(reports, rerun)
    )
    result["wall_s"] = round(time.perf_counter() - start, 4)
    return result


def bench_federation() -> dict:
    """WAN federation: spillover routing vs isolated clusters.

    Runs the SAME study as ``python -m repro federation --study``
    (:func:`repro.experiments.federation.run_federation_study` — one
    definition, no drift), plus the regional-outage spillover cell once
    more with the clusters simulated in parallel, and the whole study a
    second time, recording whether the digests agree.
    """
    from repro.experiments.federation import (
        STUDY_DURATION_S,
        STUDY_RATE_RPS,
        STUDY_SEED,
        run_federation_study,
        study_fault_plans,
        study_runtime,
    )

    start = time.perf_counter()
    reports = run_federation_study(STUDY_DURATION_S, STUDY_SEED)
    result = {
        "workload": "diurnal",
        "rate_rps_per_cluster": STUDY_RATE_RPS,
        "duration_s": STUDY_DURATION_S,
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

    runtime = study_runtime(spillover=True)
    plans = study_fault_plans("regional-outage")
    sequential = runtime.run(STUDY_SEED, fault_plans=plans, parallel=False)
    parallel = runtime.run(STUDY_SEED, fault_plans=plans, parallel=True)
    result["parallel_matches_sequential"] = parallel.digest() == sequential.digest()

    rerun = run_federation_study(STUDY_DURATION_S, STUDY_SEED)
    result["deterministic"] = all(
        a[2].digest() == b[2].digest() for a, b in zip(reports, rerun)
    )
    result["wall_s"] = round(time.perf_counter() - start, 4)
    return result


def write_record(name: str, benchmark: str, payload: dict) -> None:
    """Write ``payload`` under the shared header to ``REPO_ROOT / name``."""
    import numpy

    record = {
        "benchmark": benchmark,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        **payload,
    }
    path = REPO_ROOT / name
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}", flush=True)


def main() -> None:
    objective_sweep = []
    for n_modules, n_devices in SWEEP:
        print(f"objective sweep {n_modules}x{n_devices} ...", flush=True)
        objective_sweep.append(bench_objective(n_modules, n_devices))
    solver_sweep = []
    for n_modules, n_devices in SWEEP:
        print(f"solver sweep {n_modules}x{n_devices} ...", flush=True)
        solver_sweep.append(bench_solver(n_modules, n_devices))
    print("serving churn recovery ...", flush=True)
    write_record("BENCH_placement.json", "placement", {
        "objective_sweep": objective_sweep,
        "solver_sweep": solver_sweep,
        "serving_churn": bench_serving_churn(60.0),
    })

    energy_sweep = []
    for n_modules, n_devices in ENERGY_SWEEP:
        print(f"energy solver sweep {n_modules}x{n_devices} ...", flush=True)
        energy_sweep.append(bench_energy_solver(n_modules, n_devices))
    write_record("BENCH_energy.json", "energy-placement", {"solver_sweep": energy_sweep})

    replica_sweep = []
    for n_modules, n_devices, max_copies in REPLICA_SWEEP:
        print(f"replica solver sweep {n_modules}x{n_devices} mc={max_copies} ...", flush=True)
        replica_sweep.append(bench_replica_solver(n_modules, n_devices, max_copies))
    print("replica serving (autoscale vs static replication) ...", flush=True)
    write_record("BENCH_replicas.json", "replica-placement", {
        "solver_sweep": replica_sweep,
        "serving": bench_replica_serving(40.0),
    })

    serving_sweep = []
    for label, kind, rate_rps, duration_s in SERVING_SWEEP:
        print(f"serving sweep {label} (rate={rate_rps}) ...", flush=True)
        serving_sweep.append(bench_serving_point(label, kind, rate_rps, duration_s))
    print(f"serving replay (rate={SERVING_REPLAY[1]}, "
          f"duration={SERVING_REPLAY[2]}) ...", flush=True)
    write_record("BENCH_serving.json", "serving-engine", {
        "sweep": serving_sweep,
        "replay": bench_serving_replay(*SERVING_REPLAY),
    })

    print("solver-vs-serving validation sweep ...", flush=True)
    write_record("BENCH_validation.json", "solver-serving-validation", bench_validation())
    print("fault-scenario resilience study ...", flush=True)
    write_record("BENCH_resilience.json", "fault-resilience", bench_resilience())
    print("WAN federation study ...", flush=True)
    write_record("BENCH_federation.json", "wan-federation", bench_federation())


if __name__ == "__main__":
    main()
