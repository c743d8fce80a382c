"""The analytic latency model (Eq. 1-3) and routing rule (Eq. 7)."""

import pytest

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.routing.latency import LatencyModel
from repro.profiles.devices import edge_device_names
from repro.utils.errors import RoutingError


@pytest.fixture
def retrieval_setup():
    problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
    placement = greedy_placement(problem)
    model = LatencyModel(problem, Network())
    request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
    return problem, placement, model, request


class TestRouting:
    def test_routes_every_required_module(self, retrieval_setup):
        _, placement, model, request = retrieval_setup
        decision = model.route(request, placement)
        assert set(decision.hosts) == set(request.model.module_names)

    def test_routes_to_fastest_host(self, retrieval_setup):
        problem, _, model, request = retrieval_setup
        # Replicate the text encoder on desktop AND laptop; Eq. 7 must pick
        # the laptop (faster text throughput).
        placement = Placement(
            {
                "clip-vit-b16-vision": ("desktop",),
                "clip-trf-38m": ("desktop", "laptop"),
                "cosine-similarity": ("laptop",),
            }
        )
        decision = model.route(request, placement)
        assert decision.host_of("clip-trf-38m") == "laptop"

    def test_unplaced_module_raises(self, retrieval_setup):
        _, _, model, request = retrieval_setup
        with pytest.raises(Exception):
            model.route(request, Placement({}))

    def test_unrouted_lookup_raises(self, retrieval_setup):
        _, placement, model, request = retrieval_setup
        decision = model.route(request, placement)
        with pytest.raises(RoutingError):
            decision.host_of("nonexistent-module")


class TestLatencyBreakdown:
    def test_parallel_takes_max_over_encoders(self, retrieval_setup):
        _, placement, model, request = retrieval_setup
        breakdown = model.breakdown(request, placement)
        totals = [p.total for p in breakdown.encoder_paths]
        assert breakdown.encoder_latency == max(totals)

    def test_sequential_takes_sum(self, retrieval_setup):
        problem, placement, _, request = retrieval_setup
        sequential = LatencyModel(problem, Network(), parallel=False)
        breakdown = sequential.breakdown(request, placement)
        totals = [p.total for p in breakdown.encoder_paths]
        assert breakdown.encoder_latency == pytest.approx(sum(totals))

    def test_total_is_encoder_plus_head(self, retrieval_setup):
        _, placement, model, request = retrieval_setup
        breakdown = model.breakdown(request, placement)
        assert breakdown.total == pytest.approx(
            breakdown.encoder_latency + breakdown.head_compute
        )

    def test_bottleneck_is_text_for_retrieval(self, retrieval_setup):
        # Zero-shot retrieval's prompt-set encoding dominates (footnote 2).
        _, placement, model, request = retrieval_setup
        breakdown = model.breakdown(request, placement)
        slowest = max(breakdown.encoder_paths, key=lambda path: path.total)
        assert slowest.module_name == "clip-trf-38m"

    def test_local_encoder_has_zero_input_comm(self):
        # Vision encoder on the requester itself: no input transfer.
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        placement = Placement(
            {
                "clip-vit-b16-vision": ("jetson-a",),
                "clip-trf-38m": ("laptop",),
                "cosine-similarity": ("jetson-a",),
            }
        )
        model = LatencyModel(problem, Network())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        breakdown = model.breakdown(request, placement)
        vision_path = next(
            p for p in breakdown.encoder_paths if p.module_name == "clip-vit-b16-vision"
        )
        assert vision_path.input_comm == 0.0

    def test_same_device_encoders_serialize(self):
        # Both encoders forced onto the one-slot laptop: the analytic model
        # must charge a queue wait (agreeing with the DES executor).
        problem = PlacementProblem.from_models(["clip-vit-b16"], edge_device_names())
        placement = Placement(
            {
                "clip-vit-b16-vision": ("laptop",),
                "clip-trf-38m": ("laptop",),
                "cosine-similarity": ("laptop",),
            }
        )
        model = LatencyModel(problem, Network())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        breakdown = model.breakdown(request, placement)
        waits = [p.queue_wait for p in breakdown.encoder_paths]
        assert max(waits) > 0

    def test_two_slot_device_does_not_serialize_two_encoders(self):
        problem = PlacementProblem.from_models(["clip-vit-b16"], ["server", "jetson-a"])
        placement = Placement(
            {
                "clip-vit-b16-vision": ("server",),
                "clip-trf-38m": ("server",),
                "cosine-similarity": ("server",),
            }
        )
        model = LatencyModel(problem, Network())
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        breakdown = model.breakdown(request, placement)
        assert all(p.queue_wait == 0 for p in breakdown.encoder_paths)

    def test_work_scale_uses_request_model_not_planning_scale(self):
        # The shared text encoder costs less for a VQA question than for the
        # retrieval prompt set.
        problem = PlacementProblem.from_models(
            ["clip-vit-b16", "encoder-vqa-small"], edge_device_names()
        )
        model = LatencyModel(problem, Network())
        retrieval = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        vqa = InferenceRequest.for_model("encoder-vqa-small", "jetson-a")
        slow = model.compute_seconds(retrieval, "clip-trf-38m", "laptop")
        fast = model.compute_seconds(vqa, "clip-trf-38m", "laptop")
        assert fast < slow / 10

    def test_objective_sums_over_requests(self, retrieval_setup):
        _, placement, model, request = retrieval_setup
        single = model.objective([request], placement)
        double = model.objective([request, request], placement)
        assert double == pytest.approx(2 * single)
