"""Energy subsystem: corrected accounting, tensors, solvers, serving ledger.

Two regression classes lock in the historical mischarges (radio energy on
co-located input hops; missing embedding hops); the tensor and solver
classes assert **bit identity** (``==`` on floats, like the latency layer);
the serving class proves the active/idle ledger integrates the wall clock
exactly.
"""

import time

import numpy as np
import pytest

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.bnb import energy_branch_and_bound
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.optimal import energy_optimal_placement
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.placement.tensors import EnergyTensors
from repro.core.placement.variants import random_placement
from repro.core.routing.latency import LatencyModel
from repro.experiments.scaling import synthetic_instance
from repro.profiles.devices import edge_device_names
from repro.profiles.energy import (
    energy_aware_placement,
    energy_objective,
    hop_radio_joules,
    request_energy_joules,
    resolve_energy_profile,
)
from repro.utils.errors import ConfigurationError, PlacementError

from conftest import assert_matches_golden, seeded_noisy_problem


def noisy_problem(models, devices, seed, sigma=0.06):
    return seeded_noisy_problem("energy-prop", models, seed, sigma=sigma, devices=devices)


def manual_request_energy(request, placement, model):
    """Independent reference: the documented accumulation, spelled out."""
    routing = model.route(request, placement)
    head_host = routing.host_of(request.model.head)
    total = 0.0
    for name in request.model.module_names:
        module = model.module(name)
        host = routing.host_of(name)
        compute = resolve_energy_profile(host).compute_joules(
            model.compute_seconds(request, name, host)
        )
        if module.is_encoder:
            payload = request.model.payload_bytes(module.modality or "image")
            path = compute + hop_radio_joules(request.source, host, payload)
            path = path + hop_radio_joules(host, head_host, module.output_bytes)
            total = total + path
        else:
            total = total + compute
    return total


class TestAccountingRegressions:
    """Failing-before/passing-after locks on the two historical mischarges."""

    def _setup(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        model = LatencyModel(problem, Network())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        return problem, model, request

    def test_colocated_request_charges_zero_radio(self):
        # Everything hosted on the source device: no transfer ever happens
        # (Network.transfer_seconds returns 0 for src == dst), so the only
        # joules are compute joules.  The pre-fix model charged
        # sender+receiver radio energy for the phantom input hops.
        _, model, request = self._setup()
        placement = Placement(
            {name: ("jetson-a",) for name in request.model.module_names}
        )
        profile = resolve_energy_profile("jetson-a")
        expected = 0.0
        for name in request.model.module_names:
            compute = profile.compute_joules(
                model.compute_seconds(request, name, "jetson-a")
            )
            expected = expected + (compute + 0.0 + 0.0 if model.module(name).is_encoder else compute)
        assert request_energy_joules(request, placement, model) == expected

    def test_embedding_hop_is_charged(self):
        # Encoders on the desktop, head on the laptop: the embeddings cross
        # a device boundary, exactly like the latency model's out_comm term.
        # The pre-fix model never charged this hop.
        _, model, request = self._setup()
        hosts = {name: ("desktop",) for name in request.model.encoders}
        hosts[request.model.head] = ("laptop",)
        placement = Placement(hosts)
        total = request_energy_joules(request, placement, model)
        assert total == manual_request_energy(request, placement, model)
        # The embedding radio term is strictly present:
        embed = sum(
            hop_radio_joules("desktop", "laptop", model.module(name).output_bytes)
            for name in request.model.encoders
        )
        assert embed > 0
        compute_and_input = sum(
            resolve_energy_profile("desktop").compute_joules(
                model.compute_seconds(request, name, "desktop")
            )
            + hop_radio_joules("jetson-a", "desktop", request.model.payload_bytes(
                model.module(name).modality or "image"))
            for name in request.model.encoders
        ) + resolve_energy_profile("laptop").compute_joules(
            model.compute_seconds(request, request.model.head, "laptop")
        )
        assert total == pytest.approx(compute_and_input + embed)

    def test_hop_radio_zero_for_same_device(self):
        assert hop_radio_joules("desktop", "desktop", 10**9) == 0.0
        assert hop_radio_joules("desktop", "laptop", 150_000) > 0

    def test_resolve_profile_deterministic_for_synthetic_devices(self):
        first = resolve_energy_profile("dev-07")
        second = resolve_energy_profile("dev-07")
        assert first is second
        assert 0 < first.idle_watts < first.active_watts
        # Calibrated names resolve to the calibrated table.
        assert resolve_energy_profile("desktop").active_watts == 95.0

    def test_resolve_profile_rejects_unknown_non_synthetic_names(self):
        from repro.utils.errors import ConfigurationError

        # Only the synthetic scaling fleet gets derived profiles; a typo'd
        # real device name must keep raising, not price against a
        # fabricated profile.
        with pytest.raises(ConfigurationError):
            resolve_energy_profile("Jetson-A")
        with pytest.raises(ConfigurationError):
            hop_radio_joules("desktop", "abacus", 1000)


class TestEnergyTensorBitIdentity:
    def test_objective_matches_scalar_on_randomized_instances(self):
        network = Network()
        for models in (["clip-vit-b16"], ["imagebind"], ["clip-vit-b16", "encoder-vqa-small"]):
            for seed in range(2):
                problem = noisy_problem(models, edge_device_names(), seed)
                model = LatencyModel(problem, network)
                energy = EnergyTensors(model.tensors)
                requests = [
                    InferenceRequest.for_model(name, source)
                    for name in models
                    for source in ("jetson-a", "desktop")
                ]
                for placement in (
                    greedy_placement(problem),
                    random_placement(problem, seed=seed),
                ):
                    assert energy.objective(requests, placement) == energy_objective(
                        requests, placement, model
                    )
                    for request in requests:
                        scalar = request_energy_joules(request, placement, model)
                        assert energy.request_energy(request, placement) == scalar
                        assert scalar == manual_request_energy(request, placement, model)

    def test_synthetic_instance_bit_identity(self):
        instance = synthetic_instance(6, 8, seed=3, n_requests=6)
        model = LatencyModel(instance.problem, instance.network)
        energy = EnergyTensors(model.tensors)
        requests = list(instance.requests)
        placement = greedy_placement(instance.problem)
        assert energy.objective(requests, placement) == energy_objective(
            requests, placement, model
        )


class TestEnergyBnBExactness:
    def test_matches_brute_on_randomized_paper_scale(self):
        network = Network()
        for models in (["clip-vit-b16"], ["imagebind"], ["clip-vit-b16", "encoder-vqa-small"]):
            for seed in range(2):
                for factor in (1.0, 1.5):
                    problem = noisy_problem(models, edge_device_names(), seed)
                    requests = [
                        InferenceRequest.for_model(name, "jetson-a") for name in models
                    ]
                    model = LatencyModel(problem, network)
                    budget = factor * model.objective(requests, greedy_placement(problem))
                    brute_p, brute_j = energy_optimal_placement(
                        problem, requests, network, latency_budget=budget, solver="brute"
                    )
                    bnb_p, bnb_j = energy_optimal_placement(
                        problem, requests, network, latency_budget=budget, solver="bnb"
                    )
                    assert bnb_j == brute_j, (models, seed, factor)
                    assert bnb_p.as_dict() == brute_p.as_dict(), (models, seed, factor)

    def test_matches_brute_on_synthetic_multi_source(self):
        instance = synthetic_instance(5, 6, seed=2, n_requests=6)
        requests = list(instance.requests)
        model = LatencyModel(instance.problem, instance.network)
        for factor in (1.0, 1.3, 2.0):
            budget = factor * model.objective(requests, greedy_placement(instance.problem))
            brute_p, brute_j = energy_optimal_placement(
                instance.problem, requests, instance.network,
                latency_budget=budget, solver="brute",
            )
            bnb_p, bnb_j = energy_optimal_placement(
                instance.problem, requests, instance.network,
                latency_budget=budget, solver="bnb",
            )
            assert bnb_j == brute_j
            assert bnb_p.as_dict() == brute_p.as_dict()

    def test_unconstrained_budget_matches_brute(self):
        problem = noisy_problem(["clip-vit-b16"], edge_device_names(), 4)
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        network = Network()
        brute_p, brute_j = energy_optimal_placement(
            problem, [request], network, solver="brute"
        )
        bnb_p, bnb_j = energy_optimal_placement(problem, [request], network, solver="bnb")
        assert bnb_j == brute_j
        assert bnb_p.as_dict() == brute_p.as_dict()

    @pytest.mark.parametrize("source", edge_device_names())
    @pytest.mark.parametrize("factor", [None, 1.0, 1.5])
    def test_exact_joule_ties_resolve_like_brute(self, source, factor):
        # A classification request uses no CLIP text encoder or similarity
        # head, so wherever those two modules go the joules tie bit for bit:
        # both solvers must keep brute force's lexicographically first
        # placement among the tied ones.
        problem = PlacementProblem.from_models(
            ["clip-vit-b16", "image-classification-vitb16"], edge_device_names()
        )
        requests = [InferenceRequest.for_model("image-classification-vitb16", source)]
        network = Network()
        model = LatencyModel(problem, network)
        budget = None
        if factor is not None:
            budget = factor * model.objective(requests, greedy_placement(problem))
        brute_p, brute_j = energy_optimal_placement(
            problem, requests, network, latency_budget=budget, solver="brute"
        )
        bnb_p, bnb_j = energy_optimal_placement(
            problem, requests, network, latency_budget=budget, solver="bnb"
        )
        assert bnb_j == brute_j
        assert bnb_p.as_dict() == brute_p.as_dict()
        moved = dict(brute_p.as_dict())
        for unused in ("clip-trf-38m", "cosine-similarity"):
            moved[unused] = ("laptop",) if moved[unused] != ("laptop",) else ("desktop",)
        assert energy_objective(requests, Placement(moved), model) == brute_j

    def test_memory_infeasible_raises_under_both_solvers(self):
        # A module that fits on no device is a configuration error, not an
        # over-budget result: both solvers raise the same way (the latency
        # solvers' contract), instead of bnb raising while brute returned
        # (None, inf).
        problem = PlacementProblem.from_models(
            ["llava-v1.5-7b"], ["jetson-a", "jetson-b"]
        )
        request = InferenceRequest.for_model("llava-v1.5-7b", "jetson-a")
        for solver in ("bnb", "brute"):
            with pytest.raises(PlacementError):
                energy_optimal_placement(problem, [request], solver=solver)

    def test_nan_budget_is_rejected_not_unconstrained(self):
        # A NaN budget compares false against every latency, so without a
        # guard it silently meant "no budget".  +inf stays the valid one.
        instance = synthetic_instance(4, 5, seed=3)
        args = (instance.problem, list(instance.requests), instance.network)
        for solver in ("bnb", "brute"):
            with pytest.raises(ValueError, match="latency_budget"):
                energy_optimal_placement(*args, latency_budget=float("nan"), solver=solver)
            _, joules = energy_optimal_placement(*args, latency_budget=float("inf"), solver=solver)
            assert joules == energy_optimal_placement(*args, solver=solver)[1]
        with pytest.raises(ValueError, match="latency_budget"):
            energy_branch_and_bound(*args, latency_budget=float("nan"))
        with pytest.raises(ConfigurationError, match="latency_budget_factor"):
            energy_aware_placement(*args, latency_budget_factor=float("nan"))

    #: Budgets that were misread: ``True`` ran as 1.0 s, ``float()`` took
    #: strings, and ``math.isnan`` raised a bare ``TypeError`` on them.
    BAD_BUDGETS = [True, False, "1", "1.5", b"1", float("-inf"), [1.0]]

    @pytest.mark.parametrize("budget", BAD_BUDGETS, ids=repr)
    @pytest.mark.parametrize("solver", ["bnb", "brute"])
    def test_malformed_budget_is_refused(self, budget, solver):
        instance = synthetic_instance(3, 4, seed=0)
        args = (instance.problem, list(instance.requests), instance.network)
        with pytest.raises(ValueError, match="latency_budget"):
            energy_optimal_placement(*args, latency_budget=budget, solver=solver)

    @pytest.mark.parametrize("budget", BAD_BUDGETS + [None], ids=repr)
    def test_malformed_budget_is_refused_by_the_search(self, budget):
        instance = synthetic_instance(3, 4, seed=0)
        args = (instance.problem, list(instance.requests), instance.network)
        with pytest.raises(ValueError, match="latency_budget"):
            energy_branch_and_bound(*args, latency_budget=budget)

    @pytest.mark.parametrize("factor", [True, "1.5", None, 0, -1.0, float("-inf")], ids=repr)
    def test_malformed_budget_factor_is_refused(self, factor):
        instance = synthetic_instance(3, 4, seed=0)
        args = (instance.problem, list(instance.requests), instance.network)
        with pytest.raises(ConfigurationError, match="latency_budget_factor"):
            energy_aware_placement(*args, latency_budget_factor=factor)

    def test_numeric_budgets_keep_their_meaning(self):
        instance = synthetic_instance(3, 4, seed=0)
        args = (instance.problem, list(instance.requests), instance.network)
        free = energy_optimal_placement(*args)
        assert energy_optimal_placement(*args, latency_budget=float("inf")) == free
        assert energy_branch_and_bound(*args) == free
        assert energy_optimal_placement(*args, latency_budget=np.float64("inf")) == free
        assert energy_optimal_placement(*args, latency_budget=-1) == (None, float("inf"))
        assert energy_aware_placement(*args, latency_budget_factor=float("inf")) == free[0]

    def test_infeasible_budget_returns_none(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        network = Network()
        for solver in ("bnb", "brute"):
            placement, joules = energy_optimal_placement(
                problem, [request], network, latency_budget=0.0, solver=solver
            )
            assert placement is None
            assert joules == float("inf")

    def test_solves_ten_by_thirtytwo_under_five_seconds(self):
        # The acceptance scale: far beyond brute force's 2M-assignment cap.
        # Also the largest row of BENCH_energy.json, whose gates it asserts.
        instance = synthetic_instance(10, 32, seed=1, n_requests=4)
        requests = list(instance.requests)
        model = LatencyModel(instance.problem, instance.network)
        greedy = greedy_placement(instance.problem)
        budget = 1.5 * model.objective(requests, greedy)
        start = time.perf_counter()
        placement, joules = energy_branch_and_bound(
            instance.problem, requests, instance.network,
            latency_budget=budget, tensors=model.tensors,
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"energy bnb took {elapsed:.1f}s at 10x32"
        assert model.objective(requests, placement) <= budget
        assert joules <= energy_objective(requests, greedy, model) + 1e-12
        energy = EnergyTensors(model.tensors)
        assert joules == energy.objective(requests, placement)

    def test_requires_requests_and_valid_solver(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        with pytest.raises(PlacementError):
            energy_optimal_placement(problem, [])
        with pytest.raises(ValueError):
            energy_optimal_placement(problem, [request], solver="magic")
        with pytest.raises(ValueError, match="solver must be one of"):
            energy_aware_placement(problem, [request], solver="auto")

    def test_energy_aware_placement_never_worse_than_greedy(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        network = Network()
        model = LatencyModel(problem, network)
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        greedy = greedy_placement(problem)
        for solver in ("bnb", "brute"):
            efficient = energy_aware_placement(problem, [request], network, solver=solver)
            assert energy_objective([request], efficient, model) <= energy_objective(
                [request], greedy, model
            )
            assert model.objective([request], efficient) <= 1.5 * model.objective(
                [request], greedy
            )


class TestRouterReservationDecay:
    def _router(self):
        from repro.cluster.topology import build_testbed
        from repro.core.engine import S2M3Engine
        from repro.core.routing.queue_aware import QueueAwareRouter

        cluster = build_testbed(edge_device_names(), requester="jetson-a")
        engine = S2M3Engine(cluster, ["clip-vit-b16"], replicate=True)
        engine.deploy()
        router = QueueAwareRouter(cluster, engine.latency_model(), engine.placement)
        return cluster, engine, router

    def test_simultaneous_burst_reservations_undecayed(self):
        cluster, engine, router = self._router()
        decisions = [router(engine.request("clip-vit-b16")) for _ in range(4)]
        # At t=0 nothing has decayed: reservations equal the routed service
        # seconds, so the burst still spreads across replicas.
        assert sum(
            router.reserved_seconds(name) for name in cluster.device_names
        ) > 0
        hosts = {d.host_of("clip-trf-38m") for d in decisions}
        assert len(hosts) > 1

    def test_reservations_drain_with_simulated_time(self):
        cluster, engine, router = self._router()
        for _ in range(6):
            router(engine.request("clip-vit-b16"))
        reserved_at_zero = {
            name: router.reserved_seconds(name) for name in cluster.device_names
        }
        assert sum(reserved_at_zero.values()) > 0
        # Advance the simulated clock far past every routed service time.
        cluster.sim.push(1e6, lambda: None)
        cluster.sim.run()
        for name in cluster.device_names:
            assert router.reserved_seconds(name) == 0.0

    def test_concurrent_reservations_drain_at_slot_capacity(self):
        # The ledger is a leaky bucket: a device absorbs reserved work at
        # its slot capacity per simulated second, NOT one second per
        # reservation — six concurrent reservations must not drain six
        # times faster than the device runs.
        cluster, engine, router = self._router()
        for _ in range(6):
            router(engine.request("clip-vit-b16"))
        before = {
            name: router.reserved_seconds(name) for name in cluster.device_names
        }
        loaded = max(before, key=lambda name: before[name])
        assert before[loaded] > 0
        step = before[loaded] / 2
        cluster.sim.push(step, lambda: None)
        cluster.sim.run()
        capacity = cluster.device(loaded).slots.capacity
        expected = max(0.0, before[loaded] - capacity * step)
        assert router.reserved_seconds(loaded) == pytest.approx(expected)

    def test_long_spaced_sequence_does_not_saturate(self):
        # Requests spaced far apart in time route like a fresh router every
        # time: the estimate must not pile up stale reservations until it
        # degenerates.  Route one request, drain the clock, and the next
        # decision must match the first's (identical live state).
        cluster, engine, router = self._router()
        first = router(engine.request("clip-vit-b16"))
        baseline = dict(first.hosts)
        for _ in range(50):
            cluster.sim.push(1e4, lambda: None)
            cluster.sim.run()
            decision = router(engine.request("clip-vit-b16"))
            assert dict(decision.hosts) == baseline


class TestServingEnergyConservation:
    def _setup(self, track_energy=True, duration=12.0):
        from repro.serving import ServingRuntime, SLOPolicy, WorkloadGenerator

        models = ["clip-vit-b16", "encoder-vqa-small"]
        trace = WorkloadGenerator(
            models, kind="poisson", rate_rps=0.5, duration_s=duration, seed=3
        ).generate()
        runtime = ServingRuntime(
            models, slo=SLOPolicy(admission=False), track_energy=track_energy
        )
        return runtime, trace

    def _run(self, track_energy=True, duration=12.0, faults=None):
        runtime, trace = self._setup(track_energy, duration)
        report = runtime.run(trace, faults=faults)
        return runtime, report

    def test_active_plus_idle_equals_wall_clock_integral(self):
        # Drives the engine directly so the loop clock (the run's horizon)
        # and the busy-interval ledger stay readable after the run; the
        # exact ledger floats are pinned by the run's golden digest.
        from repro.serving.engine import FlatServingEngine
        from repro.serving.report import merged_busy_seconds

        runtime, trace = self._setup()
        engine = FlatServingEngine(runtime)
        report = engine.run(trace)
        assert_matches_golden(report, "energy-ledger")
        assert report.energy is not None
        horizon = engine._loop.now
        assert report.energy.horizon_s == horizon
        assert horizon >= report.latency.makespan
        for entry in report.energy.devices:
            busy = merged_busy_seconds(engine._busy_intervals.get(entry.device, ()), horizon)
            assert entry.active_s == busy
            assert entry.active_s + entry.idle_s == pytest.approx(horizon, rel=1e-12)
            profile = resolve_energy_profile(entry.device)
            assert entry.active_j == profile.active_watts * entry.active_s
            assert entry.idle_j == profile.idle_watts * entry.idle_s
            assert entry.radio_j >= 0.0
            assert entry.total_j == entry.active_j + entry.idle_j + entry.radio_j

    def test_totals_and_per_request_metrics(self):
        _, report = self._run()
        e = report.energy
        assert e.total_j == pytest.approx(e.active_j + e.idle_j + e.radio_j)
        assert e.active_j > 0 and e.idle_j > 0 and e.radio_j > 0
        assert report.joules_per_request == pytest.approx(e.total_j / report.completed)
        assert report.joules_per_goodput == pytest.approx(e.total_j / report.slo_met)
        rendered = report.render(show_energy=True)
        assert "joules/request" in rendered
        assert "energy:" in rendered
        assert "energy:" not in report.render()

    def test_energy_tracking_is_deterministic(self):
        _, first = self._run()
        _, second = self._run()
        assert first.energy is not None and second.energy is not None
        assert first.energy == second.energy

    def test_untracked_run_has_no_energy(self):
        _, report = self._run(track_energy=False)
        assert report.energy is None
        assert report.joules_per_request == 0.0
        assert report.joules_per_goodput == 0.0
        assert "energy:" not in report.render(show_energy=True)

    def test_conservation_under_churn(self):
        from repro.serving import FaultPlan, crash

        runtime, report = self._run(
            duration=16.0, faults=FaultPlan.ordered(crash("desktop", at=4.0, until=10.0))
        )
        assert report.completed + report.rejected == report.arrivals
        assert report.energy is not None
        horizon = report.energy.horizon_s
        for entry in report.energy.devices:
            assert entry.active_s + entry.idle_s == pytest.approx(horizon, rel=1e-12)


class TestEnergyFrontierExperiment:
    def test_frontier_is_monotone(self):
        from repro.experiments.energy import run_energy_frontier

        points = run_energy_frontier(["clip-vit-b16"])
        assert len(points) >= 4
        energies = [p.energy_j for p in points]
        # More latency slack can only reduce (or keep) the optimal joules.
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        for point in points:
            assert point.latency_s <= point.latency_budget_s + 1e-12

    def test_render_energy_mentions_frontier(self):
        from repro.experiments.energy import render_energy

        text = render_energy()
        assert "frontier" in text
        assert "1.00x" in text
