"""Hardware profiles and the compute model, pinned to the paper's anchors."""

import pytest

from repro.core.catalog import get_model, get_module
from repro.core.splitter import split_model
from repro.profiles.calibration import (
    BATCH_ANCHORS,
    LOAD_TIME_ANCHORS,
    MODEL_LOCAL_ANCHORS,
    MODULE_TIME_ANCHORS,
)
from repro.profiles.communication import LinkProfile
from repro.profiles.compute import DEFAULT_COMPUTE_MODEL, ComputeModel
from repro.profiles.devices import (
    edge_device_names,
    get_device_profile,
    testbed_device_names as _testbed_device_names,
)
from repro.utils.errors import ConfigurationError


class TestDeviceProfiles:
    def test_all_testbed_devices_exist(self):
        for name in _testbed_device_names():
            assert get_device_profile(name).name == name

    def test_unknown_device_raises(self):
        with pytest.raises(ConfigurationError):
            get_device_profile("cray-1")

    def test_edge_devices_are_subset_of_testbed(self):
        assert set(edge_device_names()) <= set(_testbed_device_names())

    def test_jetsons_identical(self):
        a = get_device_profile("jetson-a")
        b = get_device_profile("jetson-b")
        assert dict(a.throughput) == dict(b.throughput)
        assert a.memory_bytes == b.memory_bytes

    def test_server_has_parallel_slots(self):
        assert get_device_profile("server").parallel_slots >= 2
        assert get_device_profile("laptop").parallel_slots == 1

    def test_jetson_memory_excludes_midsize_monoliths(self):
        # The source of the paper's "–" cells: RN50x16 fits nowhere on a Jetson.
        jetson = get_device_profile("jetson-a")
        def monolith_bytes(name):
            return sum(module.memory_bytes for module in split_model(name).modules)

        assert monolith_bytes("clip-rn50x16") > jetson.memory_bytes
        assert monolith_bytes("clip-vit-b16") <= jetson.memory_bytes

    def test_throughput_lookup_with_family_fallback(self):
        laptop = get_device_profile("laptop")
        vit = get_module("clip-vit-b16-vision")
        cnn = get_module("clip-rn50-vision")
        assert laptop.throughput_for(vit) != laptop.throughput_for(cnn)

    def test_compute_seconds_scales_with_work(self):
        laptop = get_device_profile("laptop")
        module = get_module("clip-trf-38m")
        assert laptop.compute_seconds(module, work_scale=100) == pytest.approx(
            100 * laptop.compute_seconds(module, work_scale=1)
        )


class TestCalibrationAnchors:
    """The profiles must land within tolerance of every paper anchor."""

    @pytest.mark.parametrize("anchor", MODULE_TIME_ANCHORS, ids=lambda a: a.description[:50])
    def test_module_time_anchor(self, anchor):
        device = get_device_profile(anchor.device)
        module = get_module(anchor.module)
        model = get_model(anchor.model)
        measured = DEFAULT_COMPUTE_MODEL.seconds(module, device, model=model)
        assert measured == pytest.approx(anchor.seconds, rel=anchor.rel_tol)

    @pytest.mark.parametrize("anchor", MODEL_LOCAL_ANCHORS, ids=lambda a: a.description[:50])
    def test_model_local_anchor(self, anchor):
        device = get_device_profile(anchor.device)
        model = get_model(anchor.model)
        split = split_model(model)
        measured = sum(
            DEFAULT_COMPUTE_MODEL.seconds(module, device, model=model)
            for module in split.modules
        )
        assert measured == pytest.approx(anchor.seconds, rel=anchor.rel_tol)

    @pytest.mark.parametrize("anchor", LOAD_TIME_ANCHORS, ids=lambda a: a.description[:50])
    def test_load_time_anchor(self, anchor):
        device = get_device_profile(anchor.device)
        model = get_model(anchor.model)
        split = split_model(model)
        measured = sum(
            DEFAULT_COMPUTE_MODEL.load_seconds(module, device) for module in split.modules
        )
        assert measured == pytest.approx(anchor.seconds, rel=anchor.rel_tol)


class TestBatchScaling:
    def test_batch_anchors_within_tolerance(self):
        # Footnote 4: LLaVA-Next-7B on an L40S at batch 1/10/20.
        model = get_model("llava-next-7b")
        module = get_module(model.head)
        device = get_device_profile("l40s")
        for batch, seconds in BATCH_ANCHORS:
            measured = DEFAULT_COMPUTE_MODEL.seconds(module, device, model=model, batch_size=batch)
            assert measured == pytest.approx(seconds, rel=0.15), f"batch {batch}"

    def test_batching_is_sublinear(self):
        model = get_model("llava-next-7b")
        module = get_module(model.head)
        device = get_device_profile("server")
        single = DEFAULT_COMPUTE_MODEL.seconds(module, device, model=model, batch_size=1)
        batched = DEFAULT_COMPUTE_MODEL.seconds(module, device, model=model, batch_size=10)
        assert batched < 10 * single

    def test_batch_size_validated(self):
        model = get_model("llava-next-7b")
        module = get_module(model.head)
        device = get_device_profile("server")
        with pytest.raises(ValueError):
            DEFAULT_COMPUTE_MODEL.seconds(module, device, model=model, batch_size=0)

    def test_fits_check(self):
        cm = ComputeModel()
        assert cm.fits(get_module("clip-trf-38m"), get_device_profile("jetson-a"))
        assert not cm.fits(get_module("vicuna-7b"), get_device_profile("jetson-a"))


class TestRelativeOrderings:
    """Shape facts from the paper that must hold regardless of exact values."""

    def test_text_prompt_set_dominates_on_jetson(self):
        # Footnote 2: text is the Jetson's bottleneck for retrieval.
        jetson = get_device_profile("jetson-a")
        model = get_model("clip-vit-b16")
        text = DEFAULT_COMPUTE_MODEL.seconds(get_module("clip-trf-38m"), jetson, model=model)
        vision = DEFAULT_COMPUTE_MODEL.seconds(
            get_module("clip-vit-b16-vision"), jetson, model=model
        )
        assert text > 10 * vision

    def test_server_gpu_fastest_for_every_kind(self):
        server = get_device_profile("server")
        for module_name in ["clip-vit-b16-vision", "clip-trf-38m", "vicuna-7b"]:
            module = get_module(module_name)
            for device_name in edge_device_names():
                device = get_device_profile(device_name)
                assert server.compute_seconds(module) < device.compute_seconds(module)

    def test_desktop_wins_vision_laptop_wins_text(self):
        # This ordering produces the paper's observed placement (Table X).
        desktop = get_device_profile("desktop")
        laptop = get_device_profile("laptop")
        vision = get_module("clip-vit-b16-vision")
        text = get_module("clip-trf-38m")
        assert desktop.compute_seconds(vision) < laptop.compute_seconds(vision)
        assert laptop.compute_seconds(text) < desktop.compute_seconds(text)


class TestLinkProfileBoundaries:
    def test_nan_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError, match="bandwidth_bps"):
            LinkProfile("a", "b", float("nan"), 0.001)

    def test_infinite_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError, match="bandwidth_bps"):
            LinkProfile("a", "b", float("inf"), 0.001)

    def test_non_positive_bandwidth_rejected(self):
        for bandwidth in (0.0, -1e6):
            with pytest.raises(ConfigurationError, match="bandwidth_bps"):
                LinkProfile("a", "b", bandwidth, 0.001)

    def test_nan_latency_rejected(self):
        with pytest.raises(ConfigurationError, match="latency_s"):
            LinkProfile("a", "b", 1e6, float("nan"))

    def test_infinite_latency_rejected(self):
        with pytest.raises(ConfigurationError, match="latency_s"):
            LinkProfile("a", "b", 1e6, float("inf"))

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError, match="latency_s"):
            LinkProfile("a", "b", 1e6, -0.001)

    def test_self_link_rejected(self):
        with pytest.raises(ConfigurationError, match="endpoints"):
            LinkProfile("a", "a", 1e6, 0.001)

    def test_zero_latency_accepted(self):
        assert LinkProfile("a", "b", 1e6, 0.0).latency_s == 0.0
