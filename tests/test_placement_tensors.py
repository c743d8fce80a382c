"""Cost tensors and branch-and-bound: exactness.

The contract of the whole vectorized layer is *bit identity* with the
scalar reference paths — same floats, same argmin, same tie-breaks — so
these tests compare with ``==`` on floats, not ``pytest.approx``.
"""

import pytest

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.bnb import branch_and_bound_placement
from repro.core.placement.greedy import greedy_placement, replicate_with_leftover
from repro.core.placement.optimal import (
    MAX_ASSIGNMENTS,
    energy_optimal_placement,
    enumerate_placements,
    optimal_placement,
)
from repro.core.placement.problem import PlacementProblem
from repro.core.placement.replicas import replica_optimal_placement
from repro.core.placement.tensors import CostTensors
from repro.core.placement.variants import random_placement
from repro.core.routing.latency import LatencyModel
from repro.experiments.scaling import synthetic_instance
from repro.profiles.communication import PAN_ROUTER
from repro.profiles.devices import edge_device_names
from repro.profiles.devices import testbed_device_names as _testbed_device_names
from repro.utils.errors import ConfigurationError, PlacementError, RoutingError

from conftest import seeded_noisy_problem
from scalar_reference import (
    compute_seconds_scalar,
    objective_scalar,
    route_scalar,
    total_latency_scalar,
)

#: Randomized paper-scale instances: (models, devices, noise seed).
MODEL_SETS = [
    ["clip-vit-b16"],
    ["imagebind"],
    ["llava-v1.5-7b"],
    ["clip-rn50x64"],
    ["clip-vit-b16", "encoder-vqa-small"],
    ["flint-v0.5-1b"],
]


def noisy_problem(models, devices, seed, sigma=0.06):
    return seeded_noisy_problem("tensor-prop", models, seed, sigma=sigma, devices=devices)


def paper_scale_instances():
    for models in MODEL_SETS:
        for devices in (edge_device_names(), _testbed_device_names()):
            for seed in range(2):
                yield models, devices, seed


#: The objective sweep of ``scripts/run_benchmarks.py`` (smoke shapes):
#: ``synthetic_instance(n, d, seed=1, n_requests=16)`` with a greedy placement.
BENCH_OBJECTIVE_SHAPES = [(3, 4), (6, 8), (8, 16)]


def bit_identity_cases():
    """``(model, requests, placements)``: the paper-scale instances, then
    the benchmark script's synthetic ones."""
    network = Network()
    for models, devices, seed in paper_scale_instances():
        problem = noisy_problem(models, devices, seed)
        requests = [
            InferenceRequest.for_model(name, source)
            for name in models
            for source in ("jetson-a", "desktop")
        ]
        yield LatencyModel(problem, network), requests, (
            greedy_placement(problem),
            replicate_with_leftover(problem, greedy_placement(problem)),
            random_placement(problem, seed=seed),
        )
    for n_modules, n_devices in BENCH_OBJECTIVE_SHAPES:
        instance = synthetic_instance(n_modules, n_devices, seed=1, n_requests=16)
        model = LatencyModel(instance.problem, instance.network)
        yield model, list(instance.requests), (greedy_placement(instance.problem),)


class TestTensorBitIdentity:
    def test_objective_route_and_latency_match_scalar(self):
        for model, requests, placements in bit_identity_cases():
            for placement in placements:
                assert model.objective(requests, placement) == objective_scalar(
                    model, requests, placement
                )
                for request in requests:
                    assert model.total_latency(request, placement) == (
                        total_latency_scalar(model, request, placement)
                    )
                    assert (
                        model.route(request, placement).hosts
                        == route_scalar(model, request, placement).hosts
                    )

    def test_compute_seconds_matches_scalar(self):
        network = Network()
        problem = noisy_problem(["clip-vit-b16", "imagebind"], edge_device_names(), 1)
        model = LatencyModel(problem, network)
        requests = [
            InferenceRequest.for_model("clip-vit-b16", "jetson-a"),
            InferenceRequest.for_model("imagebind", "desktop"),
        ]
        for request in requests:
            for module in request.model.module_names:
                for device in problem.devices:
                    assert model.compute_seconds(request, module, device.name) == (
                        compute_seconds_scalar(model, request, module, device.name)
                    )

    def test_nonparallel_mode_matches_scalar(self):
        network = Network()
        problem = noisy_problem(["clip-vit-b16", "imagebind"], edge_device_names(), 3)
        model = LatencyModel(problem, network, parallel=False)
        requests = [
            InferenceRequest.for_model("clip-vit-b16", "jetson-a"),
            InferenceRequest.for_model("imagebind", "jetson-a"),
        ]
        placement = greedy_placement(problem)
        assert model.objective(requests, placement) == objective_scalar(
            model, requests, placement
        )

    def test_total_latency_equals_breakdown_total(self):
        network = Network()
        problem = noisy_problem(["clip-vit-b16"], edge_device_names(), 0)
        model = LatencyModel(problem, network)
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        placement = greedy_placement(problem)
        assert model.total_latency(request, placement) == (
            model.breakdown(request, placement).total
        )

    def test_compute_seconds_matches_manual_formula(self):
        problem = noisy_problem(["clip-vit-b16"], edge_device_names(), 1)
        model = LatencyModel(problem, Network())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        module = next(m for m in problem.modules if m.name == "clip-trf-38m")
        device = problem.device("laptop")
        expected = device.compute_seconds(
            module, work_scale=request.model.scale_for(module.name)
        ) * problem.compute_noise.get((module.name, device.name), 1.0)
        assert model.compute_seconds(request, "clip-trf-38m", "laptop") == expected

    def test_compute_seconds_rejects_unknown_names(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        model = LatencyModel(problem, Network())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        with pytest.raises(RoutingError, match="not part of this problem"):
            model.compute_seconds(request, "no-such-module", "laptop")
        with pytest.raises(ConfigurationError, match="unknown device"):
            model.compute_seconds(request, "clip-trf-38m", "mainframe")

    def test_comm_tensors_match_transfer_seconds(self):
        # in_comm/out_comm price whole route arrays with transfer_time; each
        # entry must be the double Network.transfer_seconds returns, from
        # device and non-device sources alike, on a degraded link too.
        instances = [(PlacementProblem.from_models(["clip-vit-b16"], _testbed_device_names()),
                      Network())]
        synthetic = synthetic_instance(4, 6, seed=3)
        instances.append((synthetic.problem, synthetic.network))
        degraded = Network()
        degraded.degrade_link("jetson-a", PAN_ROUTER, 0.3)
        instances.append((instances[0][0], degraded))
        for problem, network in instances:
            tensors = CostTensors(problem, network)
            names = tensors.device_names
            sources = sorted(network.reachable_from(names[0]))
            for source in sources:
                for payload in (0, 1_000, 150_528, 10**9):
                    assert tensors.in_comm(source, payload).tolist() == [
                        network.transfer_seconds(source, name, payload) for name in names
                    ]
            for m, module in enumerate(problem.modules):
                assert tensors.out_comm(m).tolist() == [
                    [network.transfer_seconds(a, b, module.output_bytes) for b in names]
                    for a in names
                ]
        with pytest.raises(ValueError, match="non-negative"):
            tensors.in_comm(names[0], -1)

    def test_tensors_rebuild_when_topology_changes(self):
        from repro.profiles.communication import LinkProfile

        network = Network()
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        model = LatencyModel(problem, network)
        first = model.tensors
        assert first is model.tensors  # cached while nothing changes
        network.add_link(LinkProfile("laptop", "desktop", 1e9, 0.0001))
        second = model.tensors
        assert second is not first
        placement = greedy_placement(problem)
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        assert model.total_latency(request, placement) == (
            total_latency_scalar(model, request, placement)
        )


class TestBranchAndBoundExactness:
    def test_matches_brute_force_on_randomized_paper_scale(self):
        network = Network()
        for models, devices, seed in paper_scale_instances():
            problem = noisy_problem(models, devices, seed)
            requests = [InferenceRequest.for_model(name, "jetson-a") for name in models]
            brute_placement, brute_objective = optimal_placement(
                problem, requests, network, solver="brute"
            )
            bnb_placement, bnb_objective = optimal_placement(
                problem, requests, network, solver="bnb"
            )
            assert bnb_objective == brute_objective, (models, devices, seed)
            assert bnb_placement.as_dict() == brute_placement.as_dict(), (
                models, devices, seed,
            )

    def test_matches_brute_force_multi_source_nonparallel(self):
        instance = synthetic_instance(5, 6, seed=2, n_requests=6)
        requests = list(instance.requests)
        for parallel in (True, False):
            brute_placement, brute_objective = optimal_placement(
                instance.problem, requests, instance.network,
                parallel=parallel, solver="brute",
            )
            bnb_placement, bnb_objective = optimal_placement(
                instance.problem, requests, instance.network,
                parallel=parallel, solver="bnb",
            )
            assert bnb_objective == brute_objective
            assert bnb_placement.as_dict() == brute_placement.as_dict()

    def test_solves_beyond_brute_force_cap(self):
        # 10 modules x 5 devices = 9.7M assignments: enumeration refuses,
        # branch-and-bound solves and never loses to greedy.
        instance = synthetic_instance(10, 5, seed=0)
        assert 5 ** 10 > MAX_ASSIGNMENTS
        with pytest.raises(PlacementError, match="branch_and_bound"):
            list(enumerate_placements(instance.problem))
        placement, objective = branch_and_bound_placement(
            instance.problem, list(instance.requests), instance.network
        )
        model = LatencyModel(instance.problem, instance.network)
        greedy_objective = model.objective(
            list(instance.requests), greedy_placement(instance.problem)
        )
        assert objective <= greedy_objective
        assert objective == model.objective(list(instance.requests), placement)

    def test_infeasible_instance_raises(self):
        problem = PlacementProblem.from_models(
            ["llava-v1.5-7b"], ["jetson-a", "jetson-b"]
        )
        request = InferenceRequest.for_model("llava-v1.5-7b", "jetson-a")
        with pytest.raises(PlacementError):
            branch_and_bound_placement(problem, [request])

    def test_requires_requests(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        with pytest.raises(PlacementError):
            branch_and_bound_placement(problem, [])

    def test_rejects_unknown_solver(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        with pytest.raises(ValueError):
            optimal_placement(problem, [request], solver="magic")

    def test_rejects_mismatched_shared_tensors(self):
        # A prebuilt tensor cache must match the call's problem, network,
        # and parallel flag — a silent override would change results.
        network = Network()
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        parallel_tensors = CostTensors(problem, network, parallel=True)
        for solver in ("bnb", "brute"):
            with pytest.raises(PlacementError, match="parallel"):
                optimal_placement(
                    problem, [request], network,
                    parallel=False, solver=solver, tensors=parallel_tensors,
                )
            with pytest.raises(PlacementError, match="network"):
                optimal_placement(
                    problem, [request], Network(),
                    solver=solver, tensors=parallel_tensors,
                )
        other = PlacementProblem.from_models(["imagebind"], edge_device_names())
        with pytest.raises(PlacementError, match="problem"):
            optimal_placement(
                other,
                [InferenceRequest.for_model("imagebind", "jetson-a")],
                network, tensors=parallel_tensors,
            )

    def test_rejects_stale_shared_tensors(self):
        from repro.profiles.communication import LinkProfile

        network = Network()
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        stale = CostTensors(problem, network, parallel=True)
        network.add_link(LinkProfile("laptop", "desktop", 1e9, 0.0001))
        with pytest.raises(PlacementError, match="stale"):
            optimal_placement(problem, [request], network, tensors=stale)

    def test_matching_shared_tensors_accepted(self):
        network = Network()
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        model = LatencyModel(problem, network)
        shared_placement, shared_objective = optimal_placement(
            problem, [request], network, tensors=model.tensors
        )
        fresh_placement, fresh_objective = optimal_placement(problem, [request], network)
        assert shared_objective == fresh_objective
        assert shared_placement.as_dict() == fresh_placement.as_dict()


#: The three exact solvers, each as ``solve(problem, requests, network, solver)``.
#: The energy budget (seconds) binds on the slowed network, so link prices
#: steer its search too.
EXACT_SOLVERS = {
    "latency": lambda p, r, n, s: optimal_placement(p, r, n, solver=s),
    "energy": lambda p, r, n, s: energy_optimal_placement(
        p, r, n, latency_budget=5.0, solver=s
    ),
    "replica": lambda p, r, n, s: replica_optimal_placement(
        p, r, n, max_copies=2, solver=s
    ),
}


@pytest.mark.parametrize("kind", sorted(EXACT_SOLVERS))
def test_solvers_agree_on_degraded_network(kind):
    solve = EXACT_SOLVERS[kind]
    problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
    requests = [InferenceRequest.for_model("clip-vit-b16", s) for s in ("jetson-a", "laptop")]
    _, nominal = solve(problem, requests, Network(), "bnb")
    with pytest.raises(ValueError, match="solver must be one of"):
        solve(problem, requests, Network(), "auto")  # the retired alias of "bnb"
    network = Network()
    network.degrade_link("jetson-a", "pan-router", 0.05)
    results = {s: solve(problem, requests, network, s) for s in ("bnb", "brute")}
    placements = {s: placement.as_dict() for s, (placement, _) in results.items()}
    objectives = {s: objective for s, (_, objective) in results.items()}
    assert placements["bnb"] == placements["brute"]
    assert objectives["bnb"] == objectives["brute"]
    assert objectives["brute"] != nominal  # the slowdown reached the search


@pytest.mark.parametrize("kind", sorted(EXACT_SOLVERS))
def test_search_freed_when_the_solver_returns(kind, monkeypatch):
    # The per-search rows must die with the call, not wait for the cyclic
    # collector: solvers run back to back keep every instance's tensors.
    import gc
    import weakref

    from repro.core.placement import bnb, replicas

    searches = []
    for cls in (bnb._Search, bnb._EnergySearch, replicas._ReplicaSearch):
        def init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            searches.append(weakref.ref(self))
        monkeypatch.setattr(cls, "__init__", init)
    instance = synthetic_instance(4, 5, seed=2)
    gc.disable()
    try:
        EXACT_SOLVERS[kind](instance.problem, list(instance.requests), instance.network, "bnb")
        alive = [ref for ref in searches if ref() is not None]
    finally:
        gc.enable()
    assert searches and not alive


class TestMissingThroughputParity:
    def _instance_with_gap(self):
        # A device whose throughput table lacks the text-encoder kind: the
        # scalar path raises ConfigurationError when pricing it; the tensor
        # path must do the same instead of returning inf.
        from repro.core.catalog import get_model
        from repro.core.modules import ModuleKind
        from repro.profiles.devices import DeviceProfile
        from repro.utils.units import GB, MB

        spec = get_model("clip-vit-b16")
        gapped = DeviceProfile(
            name="gapped",
            description="no text-encoder throughput entry",
            memory_bytes=int(8 * GB),
            throughput={
                (ModuleKind.VISION_ENCODER, "*"): 20.0,
                (ModuleKind.DISTANCE, "*"): 1000.0,
                (ModuleKind.CLASSIFIER, "*"): 1000.0,
            },
            load_throughput_bps=100.0 * MB,
        )
        base = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        problem = PlacementProblem(
            modules=base.modules,
            devices=base.devices + (gapped,),
            models=base.models,
        )
        from repro.core.placement.problem import Placement

        placement = Placement(
            {
                "clip-vit-b16-vision": ("desktop",),
                "clip-trf-38m": ("gapped",),
                "cosine-similarity": ("laptop",),
            }
        )
        request = InferenceRequest(model=spec, source="jetson-a")
        return problem, placement, request

    def test_tensor_objective_raises_like_scalar(self):
        problem, placement, request = self._instance_with_gap()
        # The testbed network has no "gapped" node, so give it a link.
        from repro.profiles.communication import LinkProfile

        network = Network()
        network.add_link(LinkProfile("gapped", "pan-router", 1e9, 0.001))
        model = LatencyModel(problem, network)
        with pytest.raises(ConfigurationError, match="throughput"):
            objective_scalar(model, [request], placement)
        with pytest.raises(ConfigurationError, match="throughput"):
            model.objective([request], placement)
        with pytest.raises(ConfigurationError, match="throughput"):
            model.route(request, placement)
        with pytest.raises(ConfigurationError, match="throughput"):
            model.compute_seconds(request, "clip-trf-38m", "gapped")


class TestEnumerationRewrite:
    def test_order_matches_itertools_product_reference(self):
        import itertools

        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        modules = list(problem.modules)
        device_names = [d.name for d in problem.devices]
        reference = []
        capacities = {d.name: d.memory_bytes for d in problem.devices}
        for combo in itertools.product(device_names, repeat=len(modules)):
            residual = dict(capacities)
            feasible = True
            for module, host in zip(modules, combo):
                residual[host] -= module.memory_bytes
                if residual[host] < 0:
                    feasible = False
                    break
            if feasible:
                reference.append(
                    {m.name: (h,) for m, h in zip(modules, combo)}
                )
        # The walk yields brute force's tie-key order: sorted (module, hosts).
        reference.sort(key=lambda hosts: tuple(sorted(hosts.items())))
        ours = [p.as_dict() for p in enumerate_placements(problem, max_copies=1)]
        assert ours == reference

    def test_residual_vector_restored_between_yields(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        first = [p.as_dict() for p in enumerate_placements(problem)]
        second = [p.as_dict() for p in enumerate_placements(problem)]
        assert first == second


class TestCaching:
    def test_problem_compute_seconds_cached(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        module = problem.modules[0]
        device = problem.devices[0]
        first = problem.compute_seconds(module, device)
        assert problem.compute_seconds(module, device) == first
        assert (module.name, device.name) in problem._compute_seconds_cache

    def test_controller_reuses_model_for_equal_pool(self):
        from repro.core.placement.adaptive import AdaptivePlacementController

        network = Network()
        controller = AdaptivePlacementController(network)
        problem_a = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        problem_b = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        model_a = controller.latency_model_for(problem_a)
        model_b = controller.latency_model_for(problem_b)
        assert model_a is model_b  # equal pools share tensors
        smaller = PlacementProblem.from_models(
            ["clip-vit-b16"], ["desktop", "laptop", "jetson-a"]
        )
        assert controller.latency_model_for(smaller) is not model_a

    def test_controller_rebuilds_when_pool_content_differs(self):
        from repro.core.placement.adaptive import AdaptivePlacementController

        network = Network()
        controller = AdaptivePlacementController(network)
        problem_a = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        model_a = controller.latency_model_for(problem_a)
        noisy = noisy_problem(["clip-vit-b16"], edge_device_names(), 9)
        model_b = controller.latency_model_for(noisy)
        assert model_b is not model_a  # same names, different noise -> rebuild
