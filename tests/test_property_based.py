"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.catalog import MODEL_CATALOG
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.problem import PlacementProblem
from repro.core.placement.validation import check_placement
from repro.core.routing.latency import LatencyModel
from repro.core.sharing import build_sharing_plan
from repro.core.splitter import split_model
from repro.datasets.latent import LatentConceptSpace
from repro.profiles.devices import edge_device_names, testbed_device_names as _all_devices
from repro.sim import FlatEventLoop, SlotPool
from repro.utils.seeding import derive_seed

from conftest import latent_from_tokens

MODEL_NAMES = sorted(MODEL_CATALOG)
#: Models whose largest module fits the edge devices (vicuna-13b needs the
#: desktop; everything here is safely placeable on the 4-device PAN).
EDGE_PLACEABLE = [
    name for name in MODEL_NAMES
    if max(module.memory_bytes for module in split_model(name).modules) <= 14 * 1024**3
]

model_lists = st.lists(st.sampled_from(MODEL_NAMES), min_size=1, max_size=6)
edge_model_lists = st.lists(st.sampled_from(EDGE_PLACEABLE), min_size=1, max_size=4)


class TestSharingInvariants:
    @given(models=model_lists)
    @settings(max_examples=40, deadline=None)
    def test_shared_never_exceeds_unshared(self, models):
        plan = build_sharing_plan(models)
        assert plan.shared_params <= plan.unshared_params

    @given(models=model_lists)
    @settings(max_examples=40, deadline=None)
    def test_shared_params_order_invariant(self, models):
        forward = build_sharing_plan(models).shared_params
        backward = build_sharing_plan(list(reversed(models))).shared_params
        assert forward == backward

    @given(models=model_lists)
    @settings(max_examples=40, deadline=None)
    def test_steps_partition_the_distinct_set(self, models):
        plan = build_sharing_plan(models)
        new_names = [m.name for step in plan.steps for m in step.new_modules]
        assert sorted(new_names) == sorted(m.name for m in plan.distinct_modules)

    @given(models=model_lists)
    @settings(max_examples=40, deadline=None)
    def test_cumulative_ledger_monotone(self, models):
        plan = build_sharing_plan(models)
        shared = [step.cumulative_shared_params for step in plan.steps]
        unshared = [step.cumulative_unshared_params for step in plan.steps]
        assert shared == sorted(shared)
        assert unshared == sorted(unshared)


class TestPlacementInvariants:
    @given(models=edge_model_lists, noise_seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_greedy_always_feasible_under_noise(self, models, noise_seed):
        base = PlacementProblem.from_models(models, edge_device_names())
        rng = np.random.default_rng(derive_seed("prop", noise_seed))
        noise = {
            (m.name, d.name): float(rng.lognormal(0, 0.3))
            for m in base.modules
            for d in base.devices
        }
        problem = PlacementProblem.from_models(models, edge_device_names(), compute_noise=noise)
        placement = greedy_placement(problem)
        check_placement(problem, placement)

    @given(models=edge_model_lists)
    @settings(max_examples=20, deadline=None)
    def test_every_module_single_host(self, models):
        problem = PlacementProblem.from_models(models, edge_device_names())
        placement = greedy_placement(problem)
        assert all(len(hosts) == 1 for hosts in placement.as_dict().values())


class TestLatencyInvariants:
    @given(model_name=st.sampled_from(EDGE_PLACEABLE))
    @settings(max_examples=20, deadline=None)
    def test_parallel_never_slower_than_sequential(self, model_name):
        problem = PlacementProblem.from_models([model_name], edge_device_names())
        placement = greedy_placement(problem)
        request = InferenceRequest.for_model(model_name, "jetson-a")
        network = Network()
        parallel = LatencyModel(problem, network, parallel=True)
        sequential = LatencyModel(problem, network, parallel=False)
        assert parallel.total_latency(request, placement) <= (
            sequential.total_latency(request, placement) + 1e-9
        )

    @given(model_name=st.sampled_from(EDGE_PLACEABLE))
    @settings(max_examples=20, deadline=None)
    def test_latency_components_nonnegative(self, model_name):
        problem = PlacementProblem.from_models([model_name], edge_device_names())
        placement = greedy_placement(problem)
        request = InferenceRequest.for_model(model_name, "jetson-a")
        breakdown = LatencyModel(problem, Network()).breakdown(request, placement)
        for path in breakdown.encoder_paths:
            assert path.input_comm >= 0
            assert path.compute > 0
            assert path.output_comm >= 0
            assert path.queue_wait >= 0
        assert breakdown.head_compute >= 0


class TestNetworkInvariants:
    @given(
        payload=st.integers(min_value=0, max_value=10**8),
        src=st.sampled_from(_all_devices()),
        dst=st.sampled_from(_all_devices()),
    )
    @settings(max_examples=50, deadline=None)
    def test_transfer_nonnegative_and_monotone(self, payload, src, dst):
        network = Network()
        t1 = network.transfer_seconds(src, dst, payload)
        t2 = network.transfer_seconds(src, dst, payload + 1000)
        assert t1 >= 0
        assert t2 >= t1

    @given(
        src=st.sampled_from(_all_devices()),
        dst=st.sampled_from(_all_devices()),
    )
    @settings(max_examples=30, deadline=None)
    def test_transfer_symmetric(self, src, dst):
        network = Network()
        assert network.transfer_seconds(src, dst, 1000) == (
            network.transfer_seconds(dst, src, 1000)
        )


def _fifo_reference(durations, capacity):
    """Finish times of FIFO jobs on ``capacity`` slots, all queued at 0:
    each job in turn takes the slot that frees first."""
    free = [0.0] * capacity
    finish = []
    for duration in durations:
        start = min(free)
        free[free.index(start)] = start + duration
        finish.append(start + duration)
    return finish


class TestSlotPoolInvariants:
    @given(
        durations=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=10),
        capacity=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_fifo_finish_times(self, durations, capacity):
        """k slots plus n FIFO jobs finish exactly when FIFO says, and the
        join over all of them waits for the slowest."""
        loop = FlatEventLoop()
        pool = SlotPool(loop, capacity=capacity)
        finished = [None] * len(durations)
        joined = []
        pending = [len(durations)]

        def granted(i):
            loop.push(durations[i], done, i)

        def done(i):
            pool.release()
            finished[i] = loop.now
            loop.push(0.0, path_ended)

        def path_ended():
            pending[0] -= 1
            if not pending[0]:
                joined.append(loop.now)

        for i in range(len(durations)):
            pool.acquire(granted, i)
        loop.run()
        assert finished == _fifo_reference(durations, capacity)
        assert joined == [max(finished)]
        # Makespan bounds: at least the critical path, at most the serial sum.
        assert max(durations) <= joined[0] <= sum(durations) + 1e-9
        assert (pool.in_use, pool.queue_length) == (0, 0)


class TestLatentInvariants:
    @given(
        num_classes=st.integers(2, 64),
        seed=st.integers(0, 50),
        class_index=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_text_roundtrip_cosine(self, num_classes, seed, class_index):
        space = LatentConceptSpace(num_classes=num_classes, seed=seed)
        index = class_index % num_classes
        latent = space.class_latents[index]
        decoded = latent_from_tokens(space.tokens_from_latent(latent))
        cos = decoded @ latent / (np.linalg.norm(decoded) * np.linalg.norm(latent))
        assert cos > 0.9
