"""Replica-set placement: pricing bit-identity, brute==bnb, greedy, guards.

The replica layer's contract mirrors the single-copy stack: the tensorized
cheapest-replica pricing must match the scalar reference **bit-for-bit**
(``==`` on floats, same argmin hosts), and the branch-and-bound must return
brute-force enumeration's exact placement, objective, and tie-break.
"""

import pytest

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.greedy import greedy_placement, replicate_with_leftover
from repro.core.placement.optimal import enumerate_placements, host_subsets, optimal_placement
from repro.core.placement.problem import PlacementProblem
from repro.core.placement.replicas import (
    replica_aware_greedy,
    replica_branch_and_bound,
    replica_brute_force,
    replica_optimal_placement,
)
from repro.core.routing.latency import LatencyModel
from repro.experiments.scaling import synthetic_instance
from repro.profiles.devices import edge_device_names
from repro.utils.errors import PlacementError

from conftest import seeded_noisy_problem

MODEL_SETS = [
    ["clip-vit-b16"],
    ["encoder-vqa-small"],
    ["clip-vit-b16", "encoder-vqa-small"],
]
SOURCES = ("jetson-a", "desktop")


def noisy_problem(models, seed, sigma=0.06):
    return seeded_noisy_problem(
        "replica-prop", models, seed, sigma=sigma, devices_in_key=False
    )


def requests_for(models):
    return [
        InferenceRequest.for_model(name, source)
        for name in models
        for source in SOURCES
    ]


def _symmetric_two_device_instance():
    """Two identical devices behind a slow link; the payload dominates.

    The canonical shape where replication pays off analytically: any
    single-copy placement leaves one source paying the input transfer,
    while a copy per twin makes every hop local.
    """
    from repro.core.models import ModelSpec
    from repro.core.modules import FAMILY_ANALYTIC, FAMILY_TRANSFORMER, ModuleKind, ModuleSpec
    from repro.core.tasks import Task
    from repro.profiles.communication import LinkProfile
    from repro.profiles.devices import DeviceProfile
    from repro.utils.units import GB

    encoder = ModuleSpec(
        name="twin-encoder",
        kind=ModuleKind.VISION_ENCODER,
        params=50_000_000,
        work=10.0,
        family=FAMILY_TRANSFORMER,
        output_bytes=2 * 1024,
    )
    head = ModuleSpec(
        name="twin-head",
        kind=ModuleKind.CLASSIFIER,
        params=0,
        work=0.05,
        family=FAMILY_ANALYTIC,
    )
    model = ModelSpec(
        name="twin-model",
        display_name="Twin",
        task=Task.IMAGE_CLASSIFICATION,
        encoders=(encoder.name,),
        head=head.name,
        input_bytes={"image": 5_000_000},  # 5 MB over a ~10 Mbps link
    )
    throughput = {
        (ModuleKind.VISION_ENCODER, "*"): 50.0,
        (ModuleKind.CLASSIFIER, "*"): 1000.0,
    }
    devices = tuple(
        DeviceProfile(
            name=name,
            description="symmetric twin",
            memory_bytes=int(2 * GB),
            throughput=dict(throughput),
            load_throughput_bps=100e6,
            parallel_slots=2,
        )
        for name in ("twin-a", "twin-b")
    )
    network = Network(
        links=[
            LinkProfile("twin-a", "twin-router", bandwidth_bps=10e6, latency_s=0.002),
            LinkProfile("twin-b", "twin-router", bandwidth_bps=10e6, latency_s=0.002),
        ]
    )
    problem = PlacementProblem(modules=(encoder, head), devices=devices, models=(model,))
    return problem, network, model


class TestReplicaPricingBitIdentity:
    def test_replica_route_and_objective_match_scalar(self):
        network = Network()
        for models in MODEL_SETS:
            for seed in range(2):
                problem = noisy_problem(models, seed)
                model = LatencyModel(problem, network)
                requests = requests_for(models)
                single = greedy_placement(problem)
                for placement in (
                    single,
                    replicate_with_leftover(problem, single),
                    replicate_with_leftover(problem, single, max_copies=3),
                ):
                    assert model.replica_objective(requests, placement) == (
                        model.replica_objective_scalar(requests, placement)
                    )
                    for request in requests:
                        assert model.replica_total_latency(request, placement) == (
                            model.replica_total_latency_scalar(request, placement)
                        )
                        assert (
                            model.replica_route(request, placement).hosts
                            == model.replica_route_scalar(request, placement).hosts
                        )

    def test_replica_routing_never_worse_than_eq7(self):
        # Eq. 7's hosts are one combination of the replica search space, so
        # the joint minimum can only be cheaper (or equal).
        network = Network()
        problem = noisy_problem(["clip-vit-b16", "encoder-vqa-small"], 1)
        model = LatencyModel(problem, network)
        placement = replicate_with_leftover(problem, greedy_placement(problem))
        for request in requests_for(["clip-vit-b16", "encoder-vqa-small"]):
            assert model.replica_total_latency(request, placement) <= (
                model.total_latency(request, placement)
            )

    def test_single_copy_replica_pricing_equals_eq7(self):
        # With one host per module there is exactly one combination.
        network = Network()
        problem = noisy_problem(["clip-vit-b16"], 0)
        model = LatencyModel(problem, network)
        placement = greedy_placement(problem)
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        assert model.replica_total_latency(request, placement) == (
            model.total_latency(request, placement)
        )


class TestReplicaSolvers:
    def test_bnb_matches_brute_property(self):
        # Placement + objective + tie-break, == on floats, over noisy
        # paper-scale instances and synthetic topologies.
        network = Network()
        for models in MODEL_SETS:
            for seed in range(2):
                problem = noisy_problem(models, seed)
                requests = requests_for(models)
                for max_copies in (1, 2):
                    brute_p, brute_o = replica_brute_force(
                        problem, requests, network, max_copies=max_copies
                    )
                    bnb_p, bnb_o = replica_branch_and_bound(
                        problem, requests, network, max_copies=max_copies
                    )
                    assert bnb_o == brute_o
                    assert bnb_p.as_dict() == brute_p.as_dict()

    def test_bnb_matches_brute_on_synthetic_instances(self):
        for seed in range(3):
            instance = synthetic_instance(3, 4, seed=seed, n_requests=6)
            requests = list(instance.requests)
            for max_copies in (2, 3):
                brute_p, brute_o = replica_brute_force(
                    instance.problem, requests, instance.network, max_copies=max_copies
                )
                bnb_p, bnb_o = replica_branch_and_bound(
                    instance.problem, requests, instance.network, max_copies=max_copies
                )
                assert bnb_o == brute_o
                assert bnb_p.as_dict() == brute_p.as_dict()

    def test_max_copies_one_equals_single_copy_optimum_value(self):
        # Host sets of size 1 are the single-copy space priced identically
        # (one combination per request), so the optimal objective agrees.
        network = Network()
        problem = noisy_problem(["clip-vit-b16"], 2)
        requests = requests_for(["clip-vit-b16"])
        single_p, single_o = optimal_placement(problem, requests, network)
        replica_p, replica_o = replica_optimal_placement(
            problem, requests, network, max_copies=1
        )
        assert replica_o == single_o
        assert replica_p.as_dict() == single_p.as_dict()

    def test_replication_helps_multi_source_workloads(self):
        # Replication strictly beats the single-copy OPTIMUM exactly when
        # request classes disagree on the best hosts: two equally fast
        # devices, requests sourced at each, input transfer the dominant
        # cost -> each source wants a local copy of the whole pipeline.
        problem, network, model = _symmetric_two_device_instance()
        requests = [
            InferenceRequest(model=model, source="twin-a"),
            InferenceRequest(model=model, source="twin-b"),
        ]
        _, single_o = optimal_placement(problem, requests, network)
        replica_p, replica_o = replica_optimal_placement(
            problem, requests, network, max_copies=2
        )
        assert replica_o < single_o
        # Both twins host the (shared) pipeline, so each source is local.
        assert all(hosts == ("twin-a", "twin-b") for hosts in replica_p.as_dict().values())

    def test_solver_choices_agree(self):
        network = Network()
        problem = noisy_problem(["clip-vit-b16"], 3)
        requests = requests_for(["clip-vit-b16"])
        results = {
            solver: replica_optimal_placement(
                problem, requests, network, max_copies=2, solver=solver
            )
            for solver in ("bnb", "brute")
        }
        objectives = {solver: result[1] for solver, result in results.items()}
        assert len(set(objectives.values())) == 1
        placements = {solver: result[0].as_dict() for solver, result in results.items()}
        assert placements["bnb"] == placements["brute"]

    def test_validation(self):
        network = Network()
        problem = noisy_problem(["clip-vit-b16"], 0)
        requests = requests_for(["clip-vit-b16"])
        with pytest.raises(ValueError, match="solver"):
            replica_optimal_placement(problem, requests, network, solver="magic")
        with pytest.raises(ValueError, match="max_copies"):
            replica_optimal_placement(problem, requests, network, max_copies=0)
        with pytest.raises(PlacementError, match="request"):
            replica_optimal_placement(problem, [], network)
        with pytest.raises(ValueError, match="max_copies"):
            host_subsets(["a", "b"], 0)

    def test_enumeration_cap(self):
        instance = synthetic_instance(8, 12, seed=0, n_requests=2)
        with pytest.raises(PlacementError, match="replica_branch_and_bound"):
            list(enumerate_placements(instance.problem, max_copies=3))

    def test_enumeration_is_memory_feasible_and_tie_key_ordered(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        modules = {m.name: m for m in problem.modules}
        previous = None
        count = 0
        for placement in enumerate_placements(problem, max_copies=2):
            count += 1
            for device in problem.devices:
                assert placement.used_bytes(device.name, modules) <= device.memory_bytes
            key = tuple(sorted(placement.as_dict().items()))
            if previous is not None:
                assert key > previous
            previous = key
            if count >= 500:
                break
        assert count > 1


class TestReplicaAwareGreedy:
    def test_improves_on_single_copy_and_respects_limits(self):
        network = Network()
        problem = PlacementProblem.from_models(
            ["clip-vit-b16", "encoder-vqa-small"], edge_device_names()
        )
        model = LatencyModel(problem, network)
        requests = [
            InferenceRequest.for_model(name, source)
            for name in ("clip-vit-b16", "encoder-vqa-small")
            for source in ("jetson-a", "desktop", "laptop")
        ]
        single = greedy_placement(problem)
        placement, objective = replica_aware_greedy(
            problem, requests, network, max_copies=2, tensors=model.tensors
        )
        assert objective <= model.replica_objective(requests, single)
        assert objective == model.replica_objective(requests, placement)
        modules = {m.name: m for m in problem.modules}
        for device in problem.devices:
            assert placement.used_bytes(device.name, modules) <= device.memory_bytes
        for hosts in placement.as_dict().values():
            assert 1 <= len(hosts) <= 2
            assert tuple(sorted(hosts)) == hosts  # canonical order

    def test_never_worse_than_exact_bound(self):
        network = Network()
        problem = noisy_problem(["clip-vit-b16"], 4)
        requests = requests_for(["clip-vit-b16"])
        _, exact_o = replica_branch_and_bound(problem, requests, network, max_copies=2)
        _, greedy_o = replica_aware_greedy(problem, requests, network, max_copies=2)
        assert greedy_o >= exact_o

    def test_validation(self):
        network = Network()
        problem = noisy_problem(["clip-vit-b16"], 0)
        with pytest.raises(ValueError, match="max_copies"):
            replica_aware_greedy(problem, requests_for(["clip-vit-b16"]), network, max_copies=0)
        with pytest.raises(PlacementError, match="request"):
            replica_aware_greedy(problem, [], network)


class TestMaxCopiesBoundary:
    """``max_copies`` is a positive ``int`` at every replica entry point.

    ``True`` once passed as 1, ``1.5``/``2.0`` failed deep inside with a
    bare ``TypeError``, and the greedy silently treated ``1.5`` as 2.
    """

    BAD = (True, False, 1.5, 2.0, 0, -1, "2", None)

    @pytest.fixture
    def case(self):
        instance = synthetic_instance(3, 4, seed=1)
        return instance.problem, list(instance.requests), instance.network

    def check_rejects(self, solve):
        for bad in self.BAD:
            with pytest.raises(ValueError, match="max_copies"):
                solve(bad)

    def test_branch_and_bound(self, case):
        self.check_rejects(lambda bad: replica_branch_and_bound(*case, max_copies=bad))

    def test_brute_force(self, case):
        self.check_rejects(lambda bad: replica_brute_force(*case, max_copies=bad))

    def test_optimal_placement(self, case):
        for solver in ("bnb", "brute"):
            self.check_rejects(
                lambda bad: replica_optimal_placement(*case, max_copies=bad, solver=solver)
            )

    def test_aware_greedy(self, case):
        self.check_rejects(lambda bad: replica_aware_greedy(*case, max_copies=bad))

    def test_positive_ints_still_accepted(self, case):
        _, one = replica_branch_and_bound(*case, max_copies=1)
        _, two = replica_branch_and_bound(*case, max_copies=2)
        assert two <= one
