"""Cluster emulation: devices, network, topology, requests."""

import pytest

from repro.cluster.device import Device
from repro.cluster.network import Network
from repro.cluster.requests import (
    InferenceRequest,
    poisson_workload,
    sequential_workload,
    simultaneous_workload,
)
from repro.cluster.topology import build_testbed
from repro.core.catalog import get_module
from repro.profiles.compute import DEFAULT_COMPUTE_MODEL
from repro.profiles.devices import edge_device_names, get_device_profile
from repro.sim import FlatEventLoop
from repro.utils.errors import CapacityError, ConfigurationError


def make_device(name="laptop"):
    return Device(FlatEventLoop(), get_device_profile(name), DEFAULT_COMPUTE_MODEL)


class TestDeviceMemory:
    def test_load_accounts_memory(self):
        device = make_device()
        module = get_module("clip-vit-b16-vision")
        device.load(module)
        assert device.used_bytes == module.memory_bytes
        assert device.hosts("clip-vit-b16-vision")

    def test_load_is_idempotent(self):
        device = make_device()
        module = get_module("clip-vit-b16-vision")
        first = device.load(module)
        second = device.load(module)
        assert first > 0
        assert second == 0.0  # reuse costs nothing (the sharing saving)
        assert device.used_bytes == module.memory_bytes

    def test_overload_raises(self):
        device = make_device("jetson-a")  # 400 MB budget
        with pytest.raises(CapacityError):
            device.load(get_module("vicuna-7b"))  # 14 GB

    def test_unload_frees_memory(self):
        device = make_device()
        module = get_module("clip-trf-38m")
        device.load(module)
        device.unload(module.name)
        assert device.used_bytes == 0
        assert not device.hosts(module.name)

    def test_can_load_respects_free_bytes(self):
        device = make_device("jetson-a")
        assert device.can_load(get_module("clip-vit-b16-vision"))  # 172 MB
        assert not device.can_load(get_module("clip-vit-l14-vision"))  # 608 MB


class TestDeviceExecution:
    def test_execute_requires_module_loaded(self):
        device = make_device()
        module = get_module("clip-vit-b16-vision")
        done = []
        with pytest.raises(CapacityError):
            device.execute(module, done.append)
        assert len(device.sim) == 0
        assert device.sim.run() == 0.0
        assert done == []

    def test_execute_takes_service_time(self):
        device = make_device()
        module = get_module("clip-vit-b16-vision")
        device.load(module)
        done = []
        device.execute(module, lambda service: done.append((device.sim.now, service)))
        device.sim.run()
        assert done == [(pytest.approx(device.compute_seconds(module)),
                         device.compute_seconds(module))]
        assert device.slots.in_use == 0

    def test_execute_queues_on_a_busy_slot(self):
        device = make_device("laptop")  # one compute slot
        module = get_module("clip-vit-b16-vision")
        device.load(module)
        service = device.compute_seconds(module)
        done = []
        for tag in "ab":
            device.execute(module, lambda _service, tag=tag: done.append((tag, device.sim.now)))
        assert (device.slots.in_use, device.slots.queue_length) == (1, 1)
        device.sim.run()
        assert done == [("a", service), ("b", service + service)]

    def test_compute_seconds_matches_profile(self):
        device = make_device()
        module = get_module("clip-vit-b16-vision")
        expected = module.work / device.profile.throughput_for(module)
        assert device.compute_seconds(module) == pytest.approx(expected)


class TestNetwork:
    def test_same_node_transfer_is_free(self):
        assert Network().transfer_seconds("laptop", "laptop", 10**9) == 0.0

    def test_transfer_scales_with_payload(self):
        net = Network()
        small = net.transfer_seconds("jetson-a", "laptop", 1_000)
        large = net.transfer_seconds("jetson-a", "laptop", 1_000_000)
        assert large > small

    def test_man_uplink_is_the_bottleneck(self):
        net = Network()
        pan = net.transfer_seconds("jetson-a", "desktop", 150_000)
        man = net.transfer_seconds("jetson-a", "server", 150_000)
        assert man > 10 * pan  # cloud upload dominates (Table VI cloud rows)

    def test_unknown_endpoint_raises(self):
        with pytest.raises(ConfigurationError):
            Network().transfer_seconds("jetson-a", "mars-rover", 10)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Network().transfer_seconds("jetson-a", "laptop", -1)

    def test_path_goes_through_router(self):
        assert "pan-router" in Network().path("jetson-a", "desktop")


class TestTopology:
    def test_default_testbed_devices(self):
        cluster = build_testbed()
        assert set(cluster.device_names) == set(edge_device_names())
        assert cluster.requester == "jetson-a"

    def test_requester_always_included(self):
        cluster = build_testbed(["desktop", "laptop"], requester="jetson-a")
        assert "jetson-a" in cluster.device_names

    def test_hosts_of(self):
        cluster = build_testbed()
        module = get_module("clip-trf-38m")
        cluster.device("laptop").load(module)
        assert [d.name for d in cluster.hosts_of("clip-trf-38m")] == ["laptop"]

    def test_unknown_device_raises(self):
        with pytest.raises(ConfigurationError):
            build_testbed().device("mainframe")

    def test_max_params(self):
        cluster = build_testbed()
        cluster.device("laptop").load(get_module("clip-trf-38m"))
        cluster.device("desktop").load(get_module("clip-vit-b16-vision"))
        assert cluster.max_device_params() == get_module("clip-vit-b16-vision").params


class TestWorkloads:
    def test_simultaneous_all_at_zero(self):
        requests = simultaneous_workload(["clip-vit-b16", "imagebind"], "jetson-a")
        assert all(r.arrival_time == 0.0 for r in requests)

    def test_sequential_spacing(self):
        requests = sequential_workload(["clip-vit-b16"] * 3, "jetson-a", spacing_s=2.0)
        assert [r.arrival_time for r in requests] == [0.0, 2.0, 4.0]

    def test_sequential_negative_spacing_rejected(self):
        with pytest.raises(ValueError):
            sequential_workload(["clip-vit-b16"], "jetson-a", spacing_s=-1)

    def test_poisson_is_sorted_and_deterministic(self):
        a = poisson_workload(["clip-vit-b16"], "jetson-a", rate_per_s=1.0, count=10, seed=3)
        b = poisson_workload(["clip-vit-b16"], "jetson-a", rate_per_s=1.0, count=10, seed=3)
        times_a = [r.arrival_time for r in a]
        assert times_a == sorted(times_a)
        assert times_a == [r.arrival_time for r in b]

    def test_poisson_validates_args(self):
        with pytest.raises(ValueError):
            poisson_workload(["clip-vit-b16"], "jetson-a", rate_per_s=0, count=1)
        with pytest.raises(ValueError):
            poisson_workload(["clip-vit-b16"], "jetson-a", rate_per_s=1, count=-1)

    @pytest.mark.parametrize("arrival_time", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_arrival_time_rejected(self, arrival_time):
        # NaN used to serve with latency NaN, inf to finish at inf.
        with pytest.raises(ValueError, match="arrival_time"):
            InferenceRequest.for_model("clip-vit-b16", "jetson-a", arrival_time)

    @pytest.mark.parametrize("spacing_s", [float("nan"), float("inf")])
    def test_sequential_non_finite_spacing_rejected(self, spacing_s):
        # NaN used to emit NaN arrivals.
        with pytest.raises(ValueError, match="spacing_s"):
            sequential_workload(["clip-vit-b16"] * 2, "jetson-a", spacing_s=spacing_s)

    @pytest.mark.parametrize("rate_per_s", [float("nan"), float("inf")])
    def test_poisson_non_finite_rate_rejected(self, rate_per_s):
        # NaN used to emit NaN arrivals, inf to put every arrival at 0.0.
        with pytest.raises(ValueError, match="rate_per_s"):
            poisson_workload(["clip-vit-b16"], "jetson-a", rate_per_s=rate_per_s, count=3)

    def test_request_ids_unique(self):
        requests = simultaneous_workload(["clip-vit-b16"] * 5, "jetson-a")
        ids = [r.request_id for r in requests]
        assert len(set(ids)) == 5

    def test_for_model_resolves_names(self):
        request = InferenceRequest.for_model("clip-vit-b16", "jetson-a")
        assert request.model.name == "clip-vit-b16"
