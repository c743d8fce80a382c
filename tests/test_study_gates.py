"""The gates of the seven ``BENCH_*.json`` study records, at the records'
own parameters.

``scripts/run_benchmarks.py`` records these studies and checks nothing;
every verdict it records is asserted here, with the condition and
tolerance it records.  Two gates live elsewhere:

- bnb == brute on the solver sweeps: ``SWEEP_PINS`` in
  ``tests/test_bnb_golden.py``;
- the objective sweep's bit identity: ``test_placement_tensors.py``
  (``BENCH_OBJECTIVE_SHAPES``).

Conservation is enforced where the reports are built: ``build_report_arrays``
and the federation merge raise on a lost request, so a study cannot return
a lossy report.  The tests below restate each record's own conservation
condition on what the study returns.
"""

import json
from pathlib import Path

import pytest
from test_bnb_golden import SWEEP_PINS
from test_placement_tensors import BENCH_OBJECTIVE_SHAPES

from repro.cluster.network import Network
from repro.cluster.topology import build_testbed
from repro.core.engine import S2M3Engine
from repro.core.placement.bnb import branch_and_bound_placement, energy_branch_and_bound
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.optimal import optimal_placement
from repro.core.placement.replicas import replica_aware_greedy, replica_branch_and_bound
from repro.core.placement.tensors import CongestionModel
from repro.core.routing.latency import LatencyModel
from repro.experiments import federation, resilience, validation
from repro.experiments.replicas import run_serving_study
from repro.experiments.scaling import synthetic_instance
from repro.profiles.energy import energy_objective
from repro.serving import FaultPlan, ServingRuntime, SLOPolicy, WorkloadGenerator, crash

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``synthetic_instance(modules, devices, seed=1, n_requests=4)``.
SOLVER_SWEEP = [(3, 4), (4, 5), (6, 8), (8, 16), (10, 24), (10, 32)]
ENERGY_SWEEP = [(3, 4), (4, 5), (6, 8), (8, 16), (10, 32)]
#: ``(modules, devices, max_copies)`` with ``n_requests=6``.
REPLICA_SWEEP = [(3, 4, 2), (4, 5, 2), (4, 5, 3), (4, 6, 2), (5, 8, 2)]
ENERGY_BUDGET_FACTOR = 1.5
CHURN_DURATION_S = 60.0
#: ``(rate_rps, duration_s, seed)`` of the replica serving study.
REPLICA_SERVING = (2.5, 40.0, 7)
SERVING_MODELS = ["clip-vit-b16", "encoder-vqa-small"]
#: ``(label, kind, rate_rps, duration_s)``: about 100k arrivals each.
SERVING_SWEEP = [
    ("capacity", "poisson", 2.0, 50000.0),
    ("overload", "poisson", 20.0, 5000.0),
    ("deep-overload", "poisson", 40.0, 2500.0),
]
#: The million-arrival replay, records off.
SERVING_REPLAY = ("poisson", 2.0, 500000.0)
SERVING_POINTS = SERVING_SWEEP + [("replay",) + SERVING_REPLAY]
#: Scenarios whose graceful configuration must beat the baseline.
RESILIENCE_GATED = ("regional-outage", "flash-crowd-stragglers")


def record(name):
    return json.loads((REPO_ROOT / name).read_text())


def beats(report, other):
    """Strictly better goodput or p95, at the records' rounding (goodput
    to 1e-6 rps, p95 to 1e-4 s)."""
    return (
        round(report.goodput_rps, 6) > round(other.goodput_rps, 6)
        or round(report.latency.p95, 4) < round(other.latency.p95, 4)
    )


def test_gates_run_at_the_recorded_parameters():
    """Each record's rows are exactly the rows gated here, and its brute
    rows exactly the pinned ones."""
    placement = record("BENCH_placement.json")
    assert [(r["modules"], r["devices"]) for r in placement["objective_sweep"]] == (
        BENCH_OBJECTIVE_SHAPES
    )
    assert [(r["modules"], r["devices"]) for r in placement["solver_sweep"]] == SOLVER_SWEEP
    assert placement["serving_churn"]["duration_s"] == CHURN_DURATION_S
    energy = record("BENCH_energy.json")
    assert [(r["modules"], r["devices"]) for r in energy["solver_sweep"]] == ENERGY_SWEEP
    assert {r["budget_factor"] for r in energy["solver_sweep"]} == {ENERGY_BUDGET_FACTOR}
    replicas = record("BENCH_replicas.json")
    assert [
        (r["modules"], r["devices"], r["max_copies"]) for r in replicas["solver_sweep"]
    ] == REPLICA_SWEEP
    serving = replicas["serving"]
    assert (serving["rate_rps"], serving["duration_s"], serving["seed"]) == REPLICA_SERVING
    brute_rows = {
        ("latency", r["modules"], r["devices"], 1)
        for r in placement["solver_sweep"] if "brute_matches_bnb" in r
    } | {
        ("energy", r["modules"], r["devices"], 1)
        for r in energy["solver_sweep"] if "brute_matches_bnb" in r
    } | {
        ("replica", r["modules"], r["devices"], r["max_copies"])
        for r in replicas["solver_sweep"] if "brute_matches_bnb" in r
    }
    assert brute_rows == set(SWEEP_PINS)

    engine = record("BENCH_serving.json")
    assert [
        (r["label"], r["workload"], r["rate_rps"], r["duration_s"]) for r in engine["sweep"]
    ] == SERVING_SWEEP
    replay = engine["replay"]
    assert (replay["workload"], replay["rate_rps"], replay["duration_s"]) == SERVING_REPLAY

    study = record("BENCH_validation.json")
    assert study["workload"]["duration_s"] == 40.0
    assert study["workload"]["seed"] == 7
    assert [row["rate_rps"] for row in study["rows"]] == list(validation.DEFAULT_RATES)
    faults = record("BENCH_resilience.json")
    assert (faults["rate_rps"], faults["duration_s"], faults["seed"]) == (
        resilience.STUDY_RATE_RPS, resilience.STUDY_DURATION_S, resilience.STUDY_SEED
    )
    wan = record("BENCH_federation.json")
    assert (wan["duration_s"], wan["seed"]) == (
        federation.STUDY_DURATION_S, federation.STUDY_SEED
    )


# ----------------------------------------------------------------------
# BENCH_placement.json, BENCH_energy.json, BENCH_replicas.json: solvers
# ----------------------------------------------------------------------
# 10 x 24 takes about a second.
@pytest.mark.parametrize(
    "shape",
    [pytest.param(s, marks=pytest.mark.slow) if s == (10, 24) else s for s in SOLVER_SWEEP],
    ids=lambda s: f"{s[0]}x{s[1]}",
)
def test_bnb_no_worse_than_greedy(shape):
    inst = synthetic_instance(*shape, seed=1, n_requests=4)
    requests = list(inst.requests)
    model = LatencyModel(inst.problem, inst.network)
    greedy = model.objective(requests, greedy_placement(inst.problem))
    _, objective = branch_and_bound_placement(inst.problem, requests, inst.network)
    assert objective <= greedy + 1e-12


# 10 x 32: ``tests/test_energy.py``, ``test_solves_ten_by_thirtytwo_under_five_seconds``.
@pytest.mark.parametrize("shape", ENERGY_SWEEP[:-1], ids=lambda s: f"{s[0]}x{s[1]}")
def test_energy_bnb_no_worse_than_greedy_within_budget(shape):
    inst = synthetic_instance(*shape, seed=1, n_requests=4)
    requests = list(inst.requests)
    model = LatencyModel(inst.problem, inst.network)
    greedy = greedy_placement(inst.problem)
    greedy_latency = model.objective(requests, greedy)
    placement, joules = energy_branch_and_bound(
        inst.problem, requests, inst.network,
        latency_budget=ENERGY_BUDGET_FACTOR * greedy_latency, tensors=model.tensors,
    )
    assert joules <= energy_objective(requests, greedy, model) + 1e-12
    assert model.objective(requests, placement) <= (
        ENERGY_BUDGET_FACTOR * greedy_latency + 1e-12
    )


# 5 x 8: ``tests/test_placement_wait.py``, ``test_base_envelope_5x8_mc2_holds``.
@pytest.mark.parametrize(
    "shape", REPLICA_SWEEP[:-1], ids=lambda s: f"{s[0]}x{s[1]}-mc{s[2]}"
)
def test_replica_bnb_no_worse_than_either_greedy(shape):
    n_modules, n_devices, max_copies = shape
    inst = synthetic_instance(n_modules, n_devices, seed=1, n_requests=6)
    requests = list(inst.requests)
    model = LatencyModel(inst.problem, inst.network)
    single_copy = model.replica_objective(requests, greedy_placement(inst.problem))
    _, greedy = replica_aware_greedy(
        inst.problem, requests, inst.network, max_copies=max_copies, tensors=model.tensors
    )
    _, objective = replica_branch_and_bound(
        inst.problem, requests, inst.network, max_copies=max_copies, tensors=model.tensors
    )
    assert objective <= greedy + 1e-12
    assert objective <= single_copy + 1e-12


# ----------------------------------------------------------------------
# Serving: churn recovery, the replica serving study, the engine sweep
# ----------------------------------------------------------------------
def test_churn_recovery_conserves():
    trace = WorkloadGenerator(
        SERVING_MODELS, kind="poisson", rate_rps=0.4, duration_s=CHURN_DURATION_S, seed=5
    ).generate()
    churn = FaultPlan.ordered(
        crash("desktop", at=CHURN_DURATION_S / 6, until=CHURN_DURATION_S / 2)
        + crash("laptop", at=2 * CHURN_DURATION_S / 3)
    )
    report = ServingRuntime(SERVING_MODELS, slo=SLOPolicy(admission=False)).run(
        trace, faults=churn
    )
    assert report.arrivals > 0
    assert report.completed + report.rejected == report.arrivals


@pytest.fixture(scope="module")
def replica_serving():
    rate_rps, duration_s, seed = REPLICA_SERVING
    return dict(run_serving_study(rate_rps=rate_rps, duration_s=duration_s, seed=seed))


def test_replica_serving_conserves(replica_serving):
    assert sorted(replica_serving) == ["autoscale", "leftover", "single_copy"]
    for report in replica_serving.values():
        assert report.completed + report.rejected == report.arrivals


def test_autoscale_beats_leftover_replication(replica_serving):
    assert beats(replica_serving["autoscale"], replica_serving["leftover"])


def serve_point(kind, rate_rps, duration_s, keep_records=True):
    trace = WorkloadGenerator(
        SERVING_MODELS, kind=kind, rate_rps=rate_rps, duration_s=duration_s, seed=0
    ).generate()
    report = ServingRuntime(SERVING_MODELS, keep_records=keep_records).run(trace)
    assert report.arrivals == len(trace) > 0
    assert report.completed + report.rejected == report.arrivals


@pytest.mark.parametrize("point", SERVING_POINTS, ids=lambda p: p[0])
def test_serving_engine_conserves_at_1k_arrivals(point):
    """Each engine sweep point and the replay, cut to about 1k arrivals."""
    label, kind, rate_rps, _ = point
    serve_point(kind, rate_rps, 1000.0 / rate_rps, keep_records=label != "replay")


@pytest.mark.slow
@pytest.mark.parametrize("point", SERVING_POINTS, ids=lambda p: p[0])
def test_serving_engine_conserves_at_full_size(point):
    label, kind, rate_rps, duration_s = point
    serve_point(kind, rate_rps, duration_s, keep_records=label != "replay")


# ----------------------------------------------------------------------
# BENCH_validation.json
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def validation_study():
    return validation.run_validation()


def test_validation_tracks_predictions_below_saturation(validation_study):
    assert validation_study.tolerance_ok


def test_validation_aware_beats_blind_at_overload(validation_study):
    assert validation_study.aware_beats_blind_at_overload


def test_validation_queue_aware_bnb_matches_brute(validation_study):
    """On the instance serving deploys, with the waits of the overload
    row's trace priced in."""
    models = list(validation.STUDY_MODELS)
    problem = S2M3Engine(build_testbed(), models).problem
    requests = validation._solver_requests(problem)
    trace = WorkloadGenerator(
        models, kind=validation_study.kind,
        rate_rps=max(row.rate_rps for row in validation_study.rows),
        duration_s=validation_study.duration_s, seed=validation_study.seed,
    ).generate()
    congestion = CongestionModel.from_trace(trace)
    bnb_placement, bnb_objective = optimal_placement(
        problem, requests, network=Network(), solver="bnb", congestion=congestion
    )
    brute_placement, brute_objective = optimal_placement(
        problem, requests, network=Network(), solver="brute", congestion=congestion
    )
    assert bnb_objective == brute_objective
    assert bnb_placement.as_dict() == brute_placement.as_dict()


# ----------------------------------------------------------------------
# BENCH_resilience.json
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def resilience_study():
    return resilience.run_resilience_study()


def test_resilience_conserves(resilience_study):
    for _, _, report in resilience_study:
        assert report.completed + report.rejected + report.timed_out == report.arrivals


@pytest.mark.parametrize("scenario", RESILIENCE_GATED)
def test_graceful_beats_baseline(resilience_study, scenario):
    cell = {key: report for name, key, report in resilience_study if name == scenario}
    assert beats(cell["graceful"], cell["baseline"])


def test_resilience_rerun_is_identical(resilience_study):
    rerun = resilience.run_resilience_study()
    assert [r.digest() for _, _, r in rerun] == [r.digest() for _, _, r in resilience_study]


# ----------------------------------------------------------------------
# BENCH_federation.json
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def federation_study():
    return federation.run_federation_study()


def test_federation_conserves(federation_study):
    for _, _, report in federation_study:
        for c in report.clusters:
            assert c.arrivals == c.local_arrivals - c.forwarded_out + c.forwarded_in
            assert c.completed + c.rejected + c.timed_out == c.arrivals
        ledger = sum(
            c.completed + c.rejected + c.timed_out + c.forwarded_out - c.forwarded_in
            for c in report.clusters
        )
        assert ledger == report.local_arrivals


@pytest.mark.parametrize("scenario", federation.FEDERATION_SCENARIOS)
def test_spillover_beats_isolated(federation_study, scenario):
    cell = {key: report for name, key, report in federation_study if name == scenario}
    assert beats(cell["spillover"], cell["isolated"])


def test_parallel_merge_matches_sequential():
    """The regional-outage spillover cell, clusters simulated in worker
    processes against in order."""
    runtime = federation.study_runtime(spillover=True)
    plans = federation.study_fault_plans("regional-outage")
    sequential = runtime.run(federation.STUDY_SEED, fault_plans=plans, parallel=False)
    parallel = runtime.run(federation.STUDY_SEED, fault_plans=plans, parallel=True)
    assert parallel.digest() == sequential.digest()


def test_federation_rerun_is_identical(federation_study):
    rerun = federation.run_federation_study()
    assert [r.digest() for _, _, r in rerun] == [r.digest() for _, _, r in federation_study]
