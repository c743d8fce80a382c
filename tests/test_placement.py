"""Placement: the problem, greedy Algorithm 1, optimal, variants, validation."""

import pytest

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.catalog import get_module
from repro.core.placement.greedy import (
    descending_memory_order,
    greedy_placement,
    replicate_with_leftover,
)
from repro.core.placement.optimal import enumerate_placements, optimal_placement
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.placement.validation import check_placement, is_feasible, per_device_params
from repro.core.placement.variants import (
    ascending_memory_placement,
    no_accumulation_placement,
    random_placement,
)
from repro.core.routing.latency import LatencyModel
from repro.profiles.devices import edge_device_names
from repro.utils.errors import ConfigurationError, PlacementError


def problem_for(models, devices=None):
    return PlacementProblem.from_models(models, devices or edge_device_names())


class TestPlacementProblem:
    def test_from_models_dedupes_shared_modules(self):
        problem = problem_for(["clip-vit-b16", "encoder-vqa-small"])
        names = [m.name for m in problem.modules]
        assert names.count("clip-vit-b16-vision") == 1

    def test_planning_scale_is_max_over_models(self):
        # clip-trf-38m: retrieval scales x100, encoder-VQA x2 -> planning 100.
        problem = problem_for(["clip-vit-b16", "encoder-vqa-small"])
        module = get_module("clip-trf-38m")
        assert problem.planning_scale(module) == 100.0

    def test_unknown_device_lookup_raises(self):
        problem = problem_for(["clip-vit-b16"])
        with pytest.raises(ConfigurationError):
            problem.device("mainframe")

    def test_empty_modules_rejected(self):
        with pytest.raises(ConfigurationError):
            PlacementProblem(modules=(), devices=(), models=())

    def test_compute_noise_applies(self):
        noisy = PlacementProblem.from_models(
            ["clip-vit-b16"], edge_device_names(),
            compute_noise={("clip-vit-b16-vision", "laptop"): 2.0},
        )
        clean = problem_for(["clip-vit-b16"])
        module = get_module("clip-vit-b16-vision")
        device = clean.device("laptop")
        assert noisy.compute_seconds(module, device) == pytest.approx(
            2.0 * clean.compute_seconds(module, device)
        )


class TestGreedyPlacement:
    def test_visits_descending_memory(self):
        problem = problem_for(["clip-vit-b16"])
        order = descending_memory_order(problem)
        sizes = [m.memory_bytes for m in order]
        assert sizes == sorted(sizes, reverse=True)

    def test_produces_feasible_placement(self):
        problem = problem_for(["clip-vit-b16", "alignment-vitb16"])
        placement = greedy_placement(problem)
        check_placement(problem, placement)

    def test_reproduces_paper_table10_placement(self):
        # Vision on desktop, text on laptop (paper Sec. VI-B deployment).
        problem = problem_for(["clip-vit-b16"])
        placement = greedy_placement(problem)
        assert placement.primary_host("clip-vit-b16-vision") == "desktop"
        assert placement.primary_host("clip-trf-38m") == "laptop"

    def test_spreads_heavy_encoders_across_devices(self):
        problem = problem_for(["clip-vit-b16"])
        placement = greedy_placement(problem)
        vision_host = placement.primary_host("clip-vit-b16-vision")
        text_host = placement.primary_host("clip-trf-38m")
        assert vision_host != text_host  # parallelism preserved

    def test_respects_memory_limits(self):
        # The Jetsons (400 MB) cannot host the 7B LLM.
        problem = problem_for(["llava-v1.5-7b"])
        placement = greedy_placement(problem)
        assert placement.primary_host("vicuna-7b") not in ("jetson-a", "jetson-b")

    def test_unplaceable_module_raises(self):
        problem = problem_for(["llava-v1.5-7b"], devices=["jetson-a", "jetson-b"])
        with pytest.raises(PlacementError, match="compression"):
            greedy_placement(problem)

    def test_deterministic(self):
        problem = problem_for(["clip-vit-b16", "imagebind"])
        assert greedy_placement(problem).as_dict() == greedy_placement(problem).as_dict()


class TestReplication:
    def test_replicas_land_on_distinct_devices(self):
        problem = problem_for(["clip-vit-b16"])
        placement = replicate_with_leftover(problem, greedy_placement(problem), max_copies=2)
        for name, hosts in placement.as_dict().items():
            assert len(set(hosts)) == len(hosts)

    def test_replication_respects_memory(self):
        problem = problem_for(["clip-vit-b16"])
        placement = replicate_with_leftover(problem, greedy_placement(problem), max_copies=3)
        modules = {m.name: m for m in problem.modules}
        for device in problem.devices:
            used = placement.used_bytes(device.name, modules)
            assert used <= device.memory_bytes

    def test_max_copies_bound(self):
        problem = problem_for(["clip-vit-b16"])
        placement = replicate_with_leftover(problem, greedy_placement(problem), max_copies=2)
        assert all(len(hosts) <= 2 for hosts in placement.as_dict().values())

    def test_invalid_max_copies(self):
        problem = problem_for(["clip-vit-b16"])
        with pytest.raises(ValueError):
            replicate_with_leftover(problem, greedy_placement(problem), max_copies=0)

    def test_zero_leftover_memory_blocks_weighted_replicas(self):
        """When every device's memory is exactly consumed by the primary
        pass, no module with actual weights can replicate (only zero-byte
        analytic heads still fit, by definition of the memory constraint)."""
        import dataclasses

        base = problem_for(["clip-vit-b16"])
        placement = greedy_placement(base)
        modules = {m.name: m for m in base.modules}
        shrunk = tuple(
            dataclasses.replace(
                device,
                memory_bytes=max(1, placement.used_bytes(device.name, modules)),
            )
            for device in base.devices
        )
        tight = dataclasses.replace(base, devices=shrunk)
        replicated = replicate_with_leftover(tight, placement)
        for name, hosts in replicated.as_dict().items():
            if modules[name].memory_bytes > 0:
                assert hosts == placement.hosts(name)
        # And memory stays respected on the shrunken devices.
        for device in tight.devices:
            assert replicated.used_bytes(device.name, modules) <= device.memory_bytes

    def test_single_device_cannot_replicate(self):
        """With one device there is no distinct host for a second copy —
        replicas must land on distinct devices, so nothing changes."""
        problem = problem_for(["clip-vit-b16"], devices=["desktop"])
        placement = greedy_placement(problem)
        replicated = replicate_with_leftover(problem, placement, max_copies=3)
        assert replicated.as_dict() == placement.as_dict()
        assert all(hosts == ("desktop",) for hosts in replicated.as_dict().values())

    def test_replica_of_already_fastest_host_goes_to_next_fastest(self):
        """The primary pass already holds the fastest host (ties aside), so
        the replica lands on the *next* fastest device with room — never a
        duplicate of the existing host."""
        problem = problem_for(["clip-vit-b16"])
        placement = greedy_placement(problem)
        replicated = replicate_with_leftover(problem, placement, max_copies=2)
        for name, hosts in replicated.as_dict().items():
            if len(hosts) < 2:
                continue
            primary, extra = hosts[0], hosts[1]
            assert extra != primary
            module = next(m for m in problem.modules if m.name == name)
            # The replica is the best-compute device among the non-hosts.
            others = [
                d for d in problem.devices
                if d.name != primary
                and module.memory_bytes <= d.memory_bytes
            ]
            expected = min(
                others,
                key=lambda d: (problem.compute_seconds(module, d), d.name),
            )
            assert extra == expected.name


class TestOptimalPlacement:
    def test_enumeration_is_memory_feasible(self):
        problem = problem_for(["clip-vit-b16"])
        modules = {m.name: m for m in problem.modules}
        keys = []
        for placement in enumerate_placements(problem):
            assert all(len(hosts) == 1 for hosts in placement.as_dict().values())
            for device in problem.devices:
                assert placement.used_bytes(device.name, modules) <= device.memory_bytes
            keys.append(tuple(sorted(placement.as_dict().items())))
        assert len(keys) > 1
        assert keys == sorted(set(keys))

    def test_optimal_never_worse_than_greedy(self):
        network = Network()
        for model in ["clip-vit-b16", "clip-rn50x64", "imagebind", "flint-v0.5-1b"]:
            problem = problem_for([model])
            request = InferenceRequest.for_model(model, "jetson-a")
            greedy = greedy_placement(problem)
            greedy_objective = LatencyModel(problem, network).objective([request], greedy)
            _, optimal_objective = optimal_placement(problem, [request], network)
            assert optimal_objective <= greedy_objective + 1e-9, model

    def test_greedy_matches_optimal_without_noise(self):
        # No measurement noise -> Algorithm 1 finds the optimum here.
        network = Network()
        problem = problem_for(["clip-vit-b16"])
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        greedy_objective = LatencyModel(problem, network).objective(
            [request], greedy_placement(problem)
        )
        _, optimal_objective = optimal_placement(problem, [request], network)
        assert greedy_objective == pytest.approx(optimal_objective, rel=1e-6)

    def test_requires_requests(self):
        problem = problem_for(["clip-vit-b16"])
        with pytest.raises(PlacementError):
            optimal_placement(problem, [])


class TestVariants:
    def test_ascending_order_is_feasible(self):
        problem = problem_for(["clip-vit-b16"])
        check_placement(problem, ascending_memory_placement(problem))

    def test_no_accumulation_piles_onto_fastest_device(self):
        problem = problem_for(["clip-vit-b16"])
        placement = no_accumulation_placement(problem)
        # Without Eq.5 accumulation both encoders chase their own fastest
        # device regardless of load.
        check_placement(problem, placement)

    def test_random_placement_feasible_and_seed_stable(self):
        problem = problem_for(["clip-vit-b16"])
        a = random_placement(problem, seed=7)
        b = random_placement(problem, seed=7)
        assert a.as_dict() == b.as_dict()
        assert is_feasible(problem, a)


class TestValidation:
    def test_missing_module_rejected(self):
        problem = problem_for(["clip-vit-b16"])
        with pytest.raises(PlacementError, match="unplaced"):
            check_placement(problem, Placement({"clip-vit-b16-vision": ("laptop",)}))

    def test_unknown_device_rejected(self):
        problem = problem_for(["clip-vit-b16"])
        placement = Placement(
            {
                "clip-vit-b16-vision": ("mainframe",),
                "clip-trf-38m": ("laptop",),
                "cosine-similarity": ("laptop",),
            }
        )
        with pytest.raises(PlacementError, match="unknown device"):
            check_placement(problem, placement)

    def test_over_capacity_rejected(self):
        problem = problem_for(["llava-v1.5-7b"])
        placement = Placement(
            {
                "clip-vit-l14-336-vision": ("jetson-a",),  # 608 MB > 400 MB
                "vicuna-7b": ("desktop",),
            }
        )
        with pytest.raises(PlacementError, match="capacity"):
            check_placement(problem, placement)

    def test_duplicate_hosts_rejected(self):
        problem = problem_for(["clip-vit-b16"])
        placement = Placement(
            {
                "clip-vit-b16-vision": ("laptop", "laptop"),
                "clip-trf-38m": ("desktop",),
                "cosine-similarity": ("desktop",),
            }
        )
        with pytest.raises(PlacementError, match="duplicate"):
            check_placement(problem, placement)

    def test_per_device_params(self):
        problem = problem_for(["clip-vit-b16"])
        placement = greedy_placement(problem)
        totals = per_device_params(problem, placement)
        assert sum(totals.values()) == sum(m.params for m in problem.modules)
