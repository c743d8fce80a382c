"""Bench: the vectorized placement/latency engine at and beyond paper scale.

Three claims, asserted so regressions fail the bench run:

- the tensorized objective is bit-identical to the scalar path and >= 10x
  faster on a beyond-paper-scale sweep;
- branch-and-bound returns greedy-or-better objectives at sizes where the
  brute-force enumeration refuses outright, in under 5 s per instance;
- the serving runtime recovers from churn (forced migrations, conservation
  intact) with re-placement riding the shared cost tensors.
"""

import time

from repro.core.placement.bnb import BnBStats, branch_and_bound_placement
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.optimal import MAX_ASSIGNMENTS
from repro.core.routing.latency import LatencyModel
from repro.experiments.scaling import synthetic_instance
from repro.serving import FaultPlan, ServingRuntime, SLOPolicy, WorkloadGenerator, crash

from scalar_reference import objective_scalar

#: (modules, devices) sweep: first two are paper scale, the rest beyond it.
SWEEP = [(3, 4), (4, 5), (6, 8), (8, 16), (10, 32)]
OBJECTIVE_REPEATS = 30


def _objective_sweep():
    rows = []
    for n_modules, n_devices in SWEEP:
        instance = synthetic_instance(n_modules, n_devices, seed=1, n_requests=16)
        requests = list(instance.requests)
        placement = greedy_placement(instance.problem)
        model = LatencyModel(instance.problem, instance.network)
        value = model.objective(requests, placement)  # warm tensors
        assert value == objective_scalar(model, requests, placement)  # bit-identical
        start = time.perf_counter()
        for _ in range(OBJECTIVE_REPEATS):
            model.objective(requests, placement)
        tensor_s = (time.perf_counter() - start) / OBJECTIVE_REPEATS
        start = time.perf_counter()
        for _ in range(OBJECTIVE_REPEATS):
            objective_scalar(model, requests, placement)
        scalar_s = (time.perf_counter() - start) / OBJECTIVE_REPEATS
        rows.append((n_modules, n_devices, scalar_s, tensor_s, scalar_s / tensor_s))
    return rows


def test_tensor_objective_speedup(benchmark, once, capsys):
    rows = once(benchmark, _objective_sweep)
    with capsys.disabled():
        print()
        print("modules  devices  scalar(ms)  tensor(ms)  speedup")
        for n_modules, n_devices, scalar_s, tensor_s, speedup in rows:
            print(
                f"{n_modules:7d}  {n_devices:7d}  {1e3 * scalar_s:10.3f}  "
                f"{1e3 * tensor_s:10.3f}  {speedup:6.1f}x"
            )
    # The acceptance bar: >= 10x on the sweep (geometric mean, so one noisy
    # timing point does not flip the verdict).
    product = 1.0
    for row in rows:
        product *= row[4]
    geomean = product ** (1.0 / len(rows))
    assert geomean >= 10.0, f"tensor speedup geomean {geomean:.1f}x < 10x"


def _solver_sweep():
    rows = []
    for n_modules, n_devices in SWEEP:
        instance = synthetic_instance(n_modules, n_devices, seed=1, n_requests=4)
        requests = list(instance.requests)
        model = LatencyModel(instance.problem, instance.network)
        greedy = greedy_placement(instance.problem)
        greedy_objective = model.objective(requests, greedy)
        stats = BnBStats()
        start = time.perf_counter()
        placement, objective = branch_and_bound_placement(
            instance.problem, requests, instance.network, stats=stats
        )
        elapsed = time.perf_counter() - start
        enumerable = n_devices ** n_modules <= MAX_ASSIGNMENTS
        rows.append(
            (n_modules, n_devices, enumerable, elapsed, stats,
             greedy_objective, objective)
        )
        assert objective == model.objective(requests, placement)
    return rows


def test_branch_and_bound_beyond_paper_scale(benchmark, once, capsys):
    rows = once(benchmark, _solver_sweep)
    with capsys.disabled():
        print()
        print("modules  devices  brute-able  bnb(s)  nodes  greedy-obj  optimal-obj")
        for n_modules, n_devices, enumerable, elapsed, stats, greedy_obj, obj in rows:
            print(
                f"{n_modules:7d}  {n_devices:7d}  {str(enumerable):>10}  "
                f"{elapsed:6.2f}  {stats.nodes:5d}  {greedy_obj:10.4f}  {obj:11.4f}"
            )
    for n_modules, n_devices, enumerable, elapsed, stats, greedy_obj, obj in rows:
        assert obj <= greedy_obj + 1e-12
        assert elapsed < 5.0, f"{n_modules}x{n_devices} took {elapsed:.1f}s"
    # The sweep's top end is genuinely out of brute force's reach.
    assert not rows[-1][2]


MODELS = ["clip-vit-b16", "encoder-vqa-small"]


def _churn_run():
    trace = WorkloadGenerator(
        MODELS, kind="poisson", rate_rps=0.4, duration_s=60.0, seed=5
    ).generate()
    churn = FaultPlan.ordered(crash("desktop", at=10.0, until=30.0) + crash("laptop", at=40.0))
    runtime = ServingRuntime(MODELS, slo=SLOPolicy(admission=False))
    start = time.perf_counter()
    report = runtime.run(trace, faults=churn)
    return report, time.perf_counter() - start


def test_serving_churn_recovery(benchmark, once, capsys):
    report, wall_s = once(benchmark, _churn_run)
    with capsys.disabled():
        print()
        print(
            f"churn run: wall={wall_s:.2f}s arrivals={report.arrivals} "
            f"completed={report.completed} rejected={report.rejected} "
            f"migrations={len(report.migrations)} p95={report.latency.p95:.2f}s"
        )
    # Conservation survives churn; the failures forced at least one
    # migration (the desktop hosts modules in this deployment).
    assert report.completed + report.rejected == report.arrivals
    assert len(report.migrations) >= 1
    assert report.completed > 0
