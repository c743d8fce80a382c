"""Latency summaries and comparisons."""

import pytest

from repro.cluster.metrics import compare, summarize, summarize_latencies
from repro.cluster.topology import build_testbed
from repro.core.engine import S2M3Engine
from repro.profiles.devices import edge_device_names


class TestSummaries:
    def test_basic_stats(self):
        summary = summarize_latencies([1.0, 2.0, 3.0, 4.0], makespan=4.0)
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.p50 == pytest.approx(2.5)
        assert summary.maximum == 4.0
        assert summary.throughput_rps == pytest.approx(1.0)

    def test_percentile_ordering(self):
        summary = summarize_latencies(list(range(1, 101)))
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum

    def test_empty(self):
        summary = summarize_latencies([])
        assert summary.count == 0
        assert summary.mean == 0.0
        assert summary.throughput_rps == 0.0

    def test_zero_makespan_throughput(self):
        assert summarize_latencies([1.0], makespan=0.0).throughput_rps == 0.0

    def test_summarize_execution_result(self):
        cluster = build_testbed(edge_device_names(), requester="jetson-a")
        engine = S2M3Engine(cluster, ["clip-vit-b16"])
        engine.deploy()
        result = engine.serve([engine.request("clip-vit-b16") for _ in range(3)])
        summary = summarize(result)
        assert summary.count == 3
        assert summary.makespan == pytest.approx(result.makespan)

    def test_compare_direction(self):
        base = summarize_latencies([2.0, 2.0])
        slower = summarize_latencies([4.0, 4.0])
        assert "slower" in compare(base, slower)
        assert "faster" in compare(slower, base)

    def test_compare_empty_baseline(self):
        assert "no completed" in compare(summarize_latencies([]), summarize_latencies([1.0]))
