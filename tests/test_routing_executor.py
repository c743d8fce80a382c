"""Discrete-event execution: parallelism, queueing, pipelining."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.requests import InferenceRequest
from repro.cluster.topology import build_testbed
from repro.core.engine import S2M3Engine
from repro.core.placement.problem import Placement
from repro.core.routing.executor import execute_requests
from repro.sim.trace import CATEGORY_COMPUTE, CATEGORY_HEAD, CATEGORY_TRANSMISSION
from repro.profiles.devices import edge_device_names
from repro.utils.errors import CapacityError, ConfigurationError, RoutingError

from conftest import parallel_compute_spans


def deployed_engine(models, parallel=True, share=True):
    cluster = build_testbed(edge_device_names(), requester="jetson-a")
    engine = S2M3Engine(cluster, models, parallel=parallel, share=share)
    engine.deploy()
    return engine


class TestSingleRequest:
    def test_simulated_matches_analytic_on_idle_cluster(self):
        engine = deployed_engine(["clip-vit-b16"])
        request = engine.request("clip-vit-b16")
        analytic = engine.estimate(request).total
        simulated = engine.serve([request]).outcomes[0].latency
        assert simulated == pytest.approx(analytic, rel=0.02)

    def test_encoders_overlap_in_time(self):
        engine = deployed_engine(["clip-vit-b16"])
        engine.serve([engine.request("clip-vit-b16")])
        assert len(parallel_compute_spans(engine.cluster.trace)) >= 1

    def test_sequential_mode_is_slower(self):
        parallel = deployed_engine(["clip-vit-b16"])
        p_latency = parallel.serve([parallel.request("clip-vit-b16")]).outcomes[0].latency
        sequential = deployed_engine(["clip-vit-b16"], parallel=False)
        s_latency = sequential.serve([sequential.request("clip-vit-b16")]).outcomes[0].latency
        assert s_latency > p_latency

    def test_head_runs_after_all_encoders(self):
        engine = deployed_engine(["clip-vit-b16"])
        engine.serve([engine.request("clip-vit-b16")])
        trace = engine.cluster.trace
        head_start = min(s.start for s in trace.by_category(CATEGORY_HEAD))
        encoder_end = max(s.end for s in trace.by_category(CATEGORY_COMPUTE))
        assert head_start >= encoder_end - 1e-9

    def test_transmissions_recorded(self):
        engine = deployed_engine(["clip-vit-b16"])
        engine.serve([engine.request("clip-vit-b16")])
        assert engine.cluster.trace.by_category(CATEGORY_TRANSMISSION)

    def test_single_encoder_task_has_no_parallelism(self):
        engine = deployed_engine(["image-classification-vitb16"])
        engine.serve([engine.request("image-classification-vitb16")])
        assert parallel_compute_spans(engine.cluster.trace) == []


class TestConcurrency:
    def test_shared_module_queueing_raises_latency(self):
        engine = deployed_engine(["clip-vit-b16"])
        burst = [engine.request("clip-vit-b16") for _ in range(3)]
        result = engine.serve(burst)
        latencies = sorted(result.latencies)
        assert latencies[-1] > latencies[0]  # later requests queue

    def test_pipelining_beats_full_serialization(self):
        engine = deployed_engine(["clip-vit-b16"])
        single = engine.serve([engine.request("clip-vit-b16")]).makespan

        engine2 = deployed_engine(["clip-vit-b16"])
        burst = [engine2.request("clip-vit-b16") for _ in range(3)]
        makespan = engine2.serve(burst).makespan
        # Pipelined: far better than 3x a single request end-to-end.
        assert makespan < 3 * single

    def test_arrival_times_respected(self):
        engine = deployed_engine(["clip-vit-b16"])
        late = engine.request("clip-vit-b16", arrival_time=100.0)
        result = engine.serve([late])
        assert result.outcomes[0].start_time >= 100.0

    def test_outcomes_sorted_by_request_id(self):
        engine = deployed_engine(["clip-vit-b16"])
        requests = [engine.request("clip-vit-b16") for _ in range(3)]
        result = engine.serve(requests)
        ids = [o.request.request_id for o in result.outcomes]
        assert ids == sorted(ids)

    def test_service_noise_scales_latency(self):
        engine = deployed_engine(["clip-vit-b16"])
        noisy = engine.serve(
            [engine.request("clip-vit-b16")], service_noise=lambda m, d: 2.0
        )
        engine2 = deployed_engine(["clip-vit-b16"])
        clean = engine2.serve([engine2.request("clip-vit-b16")])
        assert noisy.outcomes[0].latency > clean.outcomes[0].latency


class TestInputChecks:
    def test_failed_serve_does_not_poison_the_next(self):
        # A bad request must raise before anything is scheduled: entries it
        # stranded on the cluster's loop would run first in the next serve.
        fresh = deployed_engine(["clip-vit-b16"])
        idle = fresh.serve([fresh.request("clip-vit-b16")]).outcomes[0].latency
        engine = deployed_engine(["clip-vit-b16"])
        good = engine.request("clip-vit-b16")
        bad = engine.request("clip-vit-b16", source="mainframe")
        with pytest.raises(ConfigurationError, match="mainframe"):
            engine.serve([good, bad])
        assert len(engine.cluster.sim) == 0
        assert engine.serve([engine.request("clip-vit-b16")]).outcomes[0].latency == idle

    def test_unknown_module_rejected_before_scheduling(self):
        engine = deployed_engine(["clip-vit-b16"])
        stranger = InferenceRequest.for_model("imagebind", "jetson-a")
        with pytest.raises(RoutingError, match="not part of this problem"):
            engine.serve([engine.request("clip-vit-b16"), stranger])
        assert len(engine.cluster.sim) == 0

    def test_unplaced_module_rejected_before_scheduling(self):
        engine = deployed_engine(["clip-vit-b16"])
        hosts = engine.placement.as_dict()
        hosts.pop("cosine-similarity")
        requests = [engine.request("clip-vit-b16"), engine.request("clip-vit-b16", 5.0)]
        with pytest.raises(ConfigurationError, match="unplaced"):
            execute_requests(engine.cluster, Placement(hosts), requests, engine.latency_model())
        assert len(engine.cluster.sim) == 0

    def test_stale_loop_refused(self):
        engine = deployed_engine(["clip-vit-b16"])
        engine.cluster.sim.push(0.0, lambda: None)
        with pytest.raises(ConfigurationError, match="earlier run"):
            engine.serve([engine.request("clip-vit-b16")])

    def test_unloaded_host_rejected_before_scheduling(self):
        # A deployed engine's placement run on a second cluster that never
        # loaded the modules: refused up front, not mid-run by Device.execute.
        engine = deployed_engine(["clip-vit-b16"])
        bare = build_testbed(edge_device_names(), requester="jetson-a")
        requests = [engine.request("clip-vit-b16"), engine.request("clip-vit-b16", 5.0)]
        with pytest.raises(CapacityError, match="does not host"):
            execute_requests(bare, engine.placement, requests, engine.latency_model())
        assert len(bare.sim) == 0
        on_bare = S2M3Engine(bare, ["clip-vit-b16"])
        on_bare.deploy()
        assert on_bare.placement == engine.placement
        result = on_bare.serve([on_bare.request("clip-vit-b16"), on_bare.request("clip-vit-b16", 5.0)])
        assert len(result.outcomes) == 2 and len(bare.sim) == 0


SOURCES = tuple(edge_device_names()) + ("mainframe",)


class TestExecutorBoundary:
    """Every input either runs with conservation, or raises a named error
    before the first push and leaves the cluster's loop as it found it."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        sources=st.lists(st.sampled_from(SOURCES), min_size=1, max_size=3),
        stranger=st.booleans(),
        unload=st.one_of(st.none(), st.integers(0, 15)),
        stale=st.booleans(),
    )
    def test_runs_or_refuses_cleanly(self, sources, stranger, unload, stale):
        engine = deployed_engine(["clip-vit-b16"])
        cluster = engine.cluster
        requests = [
            engine.request("clip-vit-b16", 0.5 * i, source=source)
            for i, source in enumerate(sources)
        ]
        expected = set()
        if "mainframe" in sources:
            expected.add(ConfigurationError)  # unknown source
        if stranger:  # a module outside the problem
            requests.append(InferenceRequest.for_model("imagebind", "jetson-a"))
            expected.add(RoutingError)
        if unload is not None:
            placed = sorted(
                (host, name) for name, hosts in engine.placement.as_dict().items()
                for host in hosts
            )
            host, name = placed[unload % len(placed)]
            cluster.device(host).unload(name)
            expected.add(CapacityError)
        if stale:
            cluster.sim.push(0.0, lambda: None)
            expected = {ConfigurationError}
        before = len(cluster.sim)
        if expected:
            with pytest.raises((ConfigurationError, RoutingError, CapacityError)) as info:
                engine.serve(requests)
            assert type(info.value) in expected
            assert len(cluster.sim) == before
            return
        result = engine.serve(requests)
        assert len(cluster.sim) == 0
        assert sorted(o.request.request_id for o in result.outcomes) == sorted(
            r.request_id for r in requests
        )
        for outcome in result.outcomes:
            assert outcome.request.arrival_time <= outcome.start_time <= outcome.finish_time


class TestExecutionResultStats:
    def test_mean_and_max(self):
        engine = deployed_engine(["clip-vit-b16"])
        result = engine.serve([engine.request("clip-vit-b16") for _ in range(2)])
        assert result.mean_latency <= result.max_latency
        assert result.mean_latency > 0

    def test_empty_result_stats(self):
        from repro.core.routing.executor import ExecutionResult

        empty = ExecutionResult()
        assert empty.mean_latency == 0.0
        assert empty.max_latency == 0.0
        assert empty.makespan == 0.0

    def test_latencies_cached_and_consistent(self):
        engine = deployed_engine(["clip-vit-b16"])
        result = engine.serve([engine.request("clip-vit-b16") for _ in range(3)])
        first = result.latencies
        assert result.latencies == first  # stable across accesses
        assert result.mean_latency == pytest.approx(sum(first) / len(first))

    def test_latencies_cache_invalidated_by_reorder(self):
        # Reordering outcomes in place (same length) must not serve a stale
        # latency list from the cache.
        engine = deployed_engine(["clip-vit-b16"])
        result = engine.serve([engine.request("clip-vit-b16") for _ in range(3)])
        before = result.latencies  # builds the cache
        result.outcomes.sort(key=lambda o: -o.latency)
        assert result.latencies == [o.latency for o in result.outcomes]
        assert sorted(result.latencies) == sorted(before)
