"""Engine-level compression fallback (Sec. V-B wired into deployment)."""

import pytest

from repro.cluster.topology import build_testbed
from repro.core.engine import S2M3Engine
from repro.utils.errors import PlacementError

POOL = ["laptop", "jetson-b", "jetson-a"]  # 14 GB laptop, no desktop/server
MODEL = "llava-v1.5-13b"  # vicuna-13b is 26 GB fp16 — fits nowhere here


def cluster():
    return build_testbed(POOL, requester="jetson-a")


class TestCompressionFallback:
    def test_without_fallback_placement_fails_with_guidance(self):
        engine = S2M3Engine(cluster(), [MODEL])
        with pytest.raises(PlacementError, match="compression"):
            engine.deploy()

    def test_fallback_places_quantized_variant(self):
        engine = S2M3Engine(cluster(), [MODEL], allow_compression=True)
        report = engine.deploy()
        assert "vicuna-13b-int8" in report.placement.as_dict()
        assert "vicuna-13b" not in report.placement.as_dict()

    def test_fallback_serves_requests(self):
        engine = S2M3Engine(cluster(), [MODEL], allow_compression=True)
        engine.deploy()
        result = engine.serve([engine.request(MODEL)])
        assert result.outcomes[0].latency > 0

    def test_fallback_request_uses_rewritten_spec(self):
        engine = S2M3Engine(cluster(), [MODEL], allow_compression=True)
        engine.deploy()
        request = engine.request(MODEL)
        assert request.model.head == "vicuna-13b-int8"

    def test_fallback_untouched_when_everything_fits(self):
        full = build_testbed(requester="jetson-a")
        engine = S2M3Engine(full, ["clip-vit-b16"], allow_compression=True)
        report = engine.deploy()
        assert set(report.placement.as_dict()) == {
            "clip-vit-b16-vision",
            "clip-trf-38m",
            "cosine-similarity",
        }

    def test_compressed_memory_fits_host(self):
        engine = S2M3Engine(cluster(), [MODEL], allow_compression=True)
        report = engine.deploy()
        host = report.placement.hosts("vicuna-13b-int8")[0]
        device = engine.cluster.device(host)
        assert device.used_bytes <= device.profile.memory_bytes
