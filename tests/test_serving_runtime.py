"""The serving runtime: determinism, SLO admission, churn conservation."""

import pytest
from conftest import SERVING_MODELS, TESTBED_DEVICES, burst_trace

from repro.__main__ import main
from repro.serving import (
    FaultPlan,
    ServingRuntime,
    SLOPolicy,
    WorkloadGenerator,
    crash,
    generate_churn,
)
from repro.serving.workload import ArrivalTrace

MODELS = SERVING_MODELS
DEVICES = TESTBED_DEVICES


class TestDeterminism:
    def test_same_seed_identical_metrics(self):
        """Same seed -> identical arrival trace -> identical serving metrics,
        even though request ids differ between runs (global counter)."""
        gen = WorkloadGenerator(MODELS, kind="bursty", rate_rps=0.4, duration_s=40.0, seed=3)
        churn = FaultPlan.ordered(generate_churn(DEVICES, "jetson-a", 0.08, 40.0, seed=3))
        runtime = ServingRuntime(MODELS)
        first = runtime.run(gen.generate(), faults=churn)
        second = runtime.run(gen.generate(), faults=churn)
        assert first.metrics_tuple() == second.metrics_tuple()
        assert first.migrations == second.migrations
        assert [(c.time, c.device, c.kind, c.applied) for c in first.churn] == [
            (c.time, c.device, c.kind, c.applied) for c in second.churn
        ]

    def test_different_seed_changes_metrics(self):
        a = WorkloadGenerator(MODELS, rate_rps=0.5, duration_s=30.0, seed=1).generate()
        b = WorkloadGenerator(MODELS, rate_rps=0.5, duration_s=30.0, seed=2).generate()
        runtime = ServingRuntime(MODELS)
        assert runtime.run(a).metrics_tuple() != runtime.run(b).metrics_tuple()


class TestServingBasics:
    def test_gentle_stream_all_within_slo(self):
        trace = WorkloadGenerator(MODELS, rate_rps=0.1, duration_s=60.0, seed=0).generate()
        report = ServingRuntime(MODELS).run(trace)
        assert report.arrivals == len(trace)
        assert report.rejected == 0
        assert report.completed == report.arrivals
        assert report.slo_met == report.completed
        assert report.slo_attainment == 1.0
        assert report.goodput_rps > 0

    def test_percentiles_ordered(self):
        trace = WorkloadGenerator(MODELS, kind="bursty", rate_rps=0.5, duration_s=40.0, seed=2).generate()
        report = ServingRuntime(MODELS, slo=SLOPolicy(admission=False)).run(trace)
        summary = report.latency
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum

    def test_overload_sheds_load(self):
        """A rate far above capacity must trigger rejections, and the
        admitted requests must fare much better than a no-admission run."""
        trace = WorkloadGenerator(MODELS, rate_rps=3.0, duration_s=20.0, seed=4).generate()
        shed = ServingRuntime(MODELS).run(trace)
        flooded = ServingRuntime(MODELS, slo=SLOPolicy(admission=False)).run(trace)
        assert shed.rejected > 0
        assert shed.completed + shed.rejected == shed.arrivals
        assert flooded.completed == flooded.arrivals  # nothing rejected...
        assert flooded.latency.p95 > shed.latency.p95  # ...but the tail pays
        assert shed.goodput_rps >= flooded.goodput_rps

    def test_empty_trace(self):
        trace = ArrivalTrace(times=(), model_names=(), duration_s=5.0, kind="poisson", seed=0)
        report = ServingRuntime(MODELS).run(trace)
        assert report.arrivals == 0
        assert report.slo_attainment == 1.0
        assert report.goodput_rps == 0.0

    def test_absolute_slo_policy(self):
        trace = burst_trace(3)
        tight = ServingRuntime(MODELS, slo=SLOPolicy(absolute_s=0.01)).run(trace)
        assert tight.rejected == len(trace.arrivals)
        loose = ServingRuntime(MODELS, slo=SLOPolicy(absolute_s=1000.0)).run(trace)
        assert loose.completed == len(trace.arrivals)
        assert loose.slo_met == loose.completed

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingRuntime([])
        with pytest.raises(ValueError):
            ServingRuntime(MODELS, max_batch_size=0)
        with pytest.raises(ValueError):
            ServingRuntime(MODELS, batch_window_s=-0.1)
        with pytest.raises(ValueError):
            SLOPolicy(latency_multiplier=0.5)

    # Counts take only an int >= 1.  recent_window=0 made ``recents[-0:]``
    # price every re-placement with every request ever admitted while
    # ``del recents[:-0]`` never trimmed the list; a float max_batch_size
    # passed the constructor and died mid-run slicing a queue; True ran as 1.
    @pytest.mark.parametrize(
        "setting, bad",
        [
            (setting, bad)
            for setting in ("max_batch_size", "max_replicas", "scale_down_idle_rounds",
                            "recent_window", "max_events")
            for bad in (0, -1, True, 1.5, 2.0, float("nan"), "2", None)
            if (setting, bad) != ("max_events", None)  # None: derive the cap
        ],
    )
    def test_count_option_rejected_at_construction(self, setting, bad):
        with pytest.raises(ValueError, match=f"{setting} must be an int >= 1"):
            ServingRuntime(MODELS, **{setting: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_invalid_arrival_time_rejected(self, bad):
        """A trace with one bad arrival time fails at the boundary, naming
        the arrival, instead of being served as if valid."""
        base = burst_trace(10)
        times = base.times.copy()
        times[3] = bad
        trace = ArrivalTrace(
            times=times, model_names=base.model_names, duration_s=10.0, kind="poisson", seed=0
        )
        with pytest.raises(ValueError, match="arrival 3 has time"):
            ServingRuntime(MODELS).run(trace)


    def test_unserved_model_rejected_before_serving(self):
        """An arrival for a model the runtime does not deploy fails at the
        boundary, naming the arrival, before any arrival is dispatched."""
        trace = ArrivalTrace(
            times=(1.0, 50.0), model_names=("clip-vit-b16", "imagebind"),
            duration_s=60.0, kind="poisson", seed=0,
        )
        with pytest.raises(ValueError, match="arrival 1 asks for model 'imagebind'"):
            ServingRuntime(["clip-vit-b16"]).run(trace)

    # NaN passed every range check: latency_multiplier=nan made every
    # deadline the floor, floor_s=nan made every deadline NaN (admission
    # then rejected everything), and True passed as 1.
    @pytest.mark.parametrize("field, bad", [
        (field, bad)
        for field in ("latency_multiplier", "floor_s", "absolute_s")
        for bad in (float("nan"), float("inf"), True)
    ] + [("admission", "no")])
    def test_slo_policy_rejects_non_finite_and_bool(self, field, bad):
        with pytest.raises(ValueError, match=field):
            SLOPolicy(**{field: bad})


class TestChurn:
    def test_mid_stream_failure_conserves_requests(self):
        """Failing a module-hosting device mid-stream forces re-placement;
        affected requests retry elsewhere and every arrival terminates."""
        trace = burst_trace(6, spacing_s=0.2)
        churn = FaultPlan.ordered(crash("laptop", at=1.0))
        report = ServingRuntime(
            MODELS, slo=SLOPolicy(admission=False), replicate=False
        ).run(trace, faults=churn)
        assert report.completed + report.rejected == report.arrivals
        assert report.completed == report.arrivals  # admission off: none rejected
        assert report.retries > 0  # work was genuinely lost and re-placed
        assert any(m for m in report.migrations)  # forced migration happened
        assert report.churn[0].applied

    def test_fail_then_recover_round_trip(self):
        trace = burst_trace(8, spacing_s=0.5)
        churn = FaultPlan.ordered(crash("laptop", at=1.0, until=3.0))
        report = ServingRuntime(MODELS, slo=SLOPolicy(admission=False)).run(trace, faults=churn)
        assert report.completed == report.arrivals
        assert [c.applied for c in report.churn] == [True, True]

    def test_requester_failure_skipped(self):
        trace = burst_trace(2)
        churn = FaultPlan.ordered(crash("jetson-a", at=0.5))
        report = ServingRuntime(MODELS).run(trace, faults=churn)
        assert not report.churn[0].applied
        assert "requester" in report.churn[0].detail
        assert report.completed + report.rejected == report.arrivals

    def test_infeasible_failure_skipped(self):
        """Draining the pool below what the modules need must be refused."""
        trace = burst_trace(2, model="clip-vit-l14")
        churn = FaultPlan.ordered(crash("laptop", at=0.2) + crash("desktop", at=0.3))
        report = ServingRuntime(
            ["clip-vit-l14"], slo=SLOPolicy(admission=False)
        ).run(trace, faults=churn)
        # The 304M ViT-L/14 tower (608 MB fp16) fits on neither 400 MB
        # Jetson, so losing BOTH big devices is refused.
        applied = [c.applied for c in report.churn]
        assert applied == [True, False]
        assert "infeasible" in report.churn[1].detail
        assert report.completed == report.arrivals

    def test_fail_recover_inside_batch_window(self):
        """A failure flushing a server's queue while it sleeps in its
        accumulation window, with recovery before the window expires, must
        not crash the woken server on an empty queue."""
        trace = burst_trace(6, spacing_s=0.2)
        churn = FaultPlan.ordered(crash("laptop", at=1.2, until=1.6))
        report = ServingRuntime(
            MODELS, slo=SLOPolicy(admission=False), batch_window_s=5.0
        ).run(trace, faults=churn)
        assert report.completed == report.arrivals

    def test_migration_stamped_at_decision_time(self):
        """The migration log attributes each migration to its triggering
        churn event, not to when the switching cost finished paying."""
        trace = burst_trace(4, spacing_s=0.5)
        churn = FaultPlan.ordered(crash("laptop", at=1.0))
        report = ServingRuntime(
            MODELS, slo=SLOPolicy(admission=False), replicate=False
        ).run(trace, faults=churn)
        assert report.migrations
        assert report.migrations[0].time == pytest.approx(1.0)

    def test_generated_churn_conserves_under_bursty_load(self):
        trace = WorkloadGenerator(MODELS, kind="bursty", rate_rps=0.6, duration_s=50.0, seed=8).generate()
        churn = FaultPlan.ordered(generate_churn(DEVICES, "jetson-a", 0.1, 50.0, seed=8))
        assert churn
        report = ServingRuntime(MODELS, slo=SLOPolicy(admission=False)).run(trace, faults=churn)
        assert report.completed == report.arrivals
        assert report.rejected == 0


class TestReplicaFailureMidStream:
    def test_replica_device_failure_reroutes_to_surviving_copy(self):
        """With a replicated deployment, failing one replica's device must
        leave the stream flowing through the surviving copy: the router
        filters dead hosts, queued work on the dead device re-routes, and
        every arrival still terminates (conservation)."""
        trace = burst_trace(8, spacing_s=0.2)
        churn = FaultPlan.ordered(crash("desktop", at=0.9))
        report = ServingRuntime(
            MODELS, slo=SLOPolicy(admission=False), replicate=True
        ).run(trace, faults=churn)
        assert report.churn[0].applied
        assert report.completed + report.rejected == report.arrivals
        assert report.completed == report.arrivals  # admission off
        # Work that was queued or in flight on the dead replica re-routed.
        assert all(r.finish_time is not None for r in report.records)

    def test_failed_replica_recovery_keeps_determinism(self):
        trace = burst_trace(10, spacing_s=0.3)
        churn = FaultPlan.ordered(crash("desktop", at=1.0, until=3.0))
        runtime = ServingRuntime(MODELS, slo=SLOPolicy(admission=False), replicate=True)
        first = runtime.run(trace, faults=churn)
        second = runtime.run(trace, faults=churn)
        assert first.metrics_tuple() == second.metrics_tuple()


class TestAutoscale:
    def overload_trace(self):
        return WorkloadGenerator(
            MODELS, kind="bursty", rate_rps=2.5, duration_s=15.0, seed=7
        ).generate()

    def test_autoscaler_adds_replicas_under_load(self):
        report = ServingRuntime(
            MODELS, slo=SLOPolicy(admission=False), replicate=False, autoscale=True
        ).run(self.overload_trace())
        adds = [s for s in report.scaling if s.action == "add" and s.applied]
        assert adds, "an overloaded single-copy deployment must scale out"
        for record in adds:
            assert record.cost_s > 0  # loading is never free
        assert report.completed + report.rejected == report.arrivals

    def test_autoscale_conserves_requests_under_churn(self):
        trace = self.overload_trace()
        churn = FaultPlan.ordered(generate_churn(DEVICES, "jetson-a", 0.15, 15.0, seed=5))
        report = ServingRuntime(
            MODELS, slo=SLOPolicy(admission=False), replicate=False, autoscale=True
        ).run(trace, faults=churn)
        assert report.completed + report.rejected == report.arrivals
        assert report.completed == report.arrivals

    def test_autoscale_deterministic(self):
        trace = self.overload_trace()
        runtime = ServingRuntime(
            MODELS, slo=SLOPolicy(admission=False), replicate=False, autoscale=True
        )
        first = runtime.run(trace)
        second = runtime.run(trace)
        assert first.metrics_tuple() == second.metrics_tuple()
        assert first.scaling == second.scaling

    def test_idle_tail_scales_back_down(self):
        """A burst followed by silence drops the surplus replicas (the
        arrival window is padded so the control loop outlives the burst)."""
        trace = ArrivalTrace(
            times=[0.05 * (i + 1) for i in range(24)], model_names=("clip-vit-b16",) * 24,
            duration_s=60.0, kind="poisson", seed=0,
        )
        report = ServingRuntime(
            MODELS,
            slo=SLOPolicy(admission=False),
            replicate=False,
            autoscale=True,
            scale_down_idle_rounds=2,
        ).run(trace)
        actions = [s.action for s in report.scaling if s.applied]
        assert "add" in actions
        assert "drop" in actions
        assert report.completed == report.arrivals

    def test_autoscale_improves_overloaded_tail(self):
        """At the benchmarked high-rate point the autoscaler must beat the
        static leftover-replication baseline on goodput or p95."""
        trace = self.overload_trace()
        leftover = ServingRuntime(
            MODELS, slo=SLOPolicy(admission=False), replicate=True
        ).run(trace)
        autoscaled = ServingRuntime(
            MODELS, slo=SLOPolicy(admission=False), replicate=False, autoscale=True
        ).run(trace)
        assert (
            autoscaled.goodput_rps > leftover.goodput_rps
            or autoscaled.latency.p95 < leftover.latency.p95
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="autoscale_interval_s"):
            ServingRuntime(MODELS, autoscale=True, autoscale_interval_s=0.0)
        with pytest.raises(ValueError, match="scale_up_backlog_s"):
            ServingRuntime(MODELS, autoscale=True, scale_up_backlog_s=-1.0)
        with pytest.raises(ValueError, match="scale_down_idle_rounds"):
            ServingRuntime(MODELS, autoscale=True, scale_down_idle_rounds=0)
        with pytest.raises(ValueError, match="max_replicas"):
            ServingRuntime(MODELS, autoscale=True, max_replicas=0)
        with pytest.raises(ValueError, match="scale_up_speed_ratio"):
            ServingRuntime(MODELS, autoscale=True, scale_up_speed_ratio=0.5)

    # NaN fails every comparison, so a guard written as ``x <= 0`` let it
    # through: NaN thresholds silently disabled scaling, an infinite
    # interval ran the clock to inf, and a NaN window meant "no window".
    @pytest.mark.parametrize(
        "setting, bad",
        [
            ("scale_up_backlog_s", float("nan")),
            ("scale_up_speed_ratio", float("nan")),
            ("autoscale_interval_s", float("nan")),
            ("autoscale_interval_s", float("inf")),
            ("batch_window_s", float("nan")),
            ("batch_window_s", float("inf")),
        ],
    )
    def test_non_finite_setting_rejected(self, setting, bad):
        with pytest.raises(ValueError, match=setting):
            ServingRuntime(MODELS, autoscale=True, **{setting: bad})


class TestServeCli:
    def test_serve_smoke(self, capsys):
        assert main(["serve", "--duration", "10", "--rate", "0.3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for needle in ("p50", "p95", "p99", "goodput", "SLO attainment"):
            assert needle in out

    def test_serve_autoscale_smoke(self, capsys):
        assert main(["serve", "--duration", "8", "--rate", "2.0",
                     "--workload", "bursty", "--autoscale", "--no-admission"]) == 0
        out = capsys.readouterr().out
        assert "Online serving report" in out

    def test_serve_rejects_bad_autoscale_args(self):
        with pytest.raises(SystemExit):
            main(["serve", "--autoscale", "--max-replicas", "0"])
        with pytest.raises(SystemExit):
            main(["serve", "--autoscale", "--autoscale-interval", "0"])

    @pytest.mark.parametrize("flag", ["--autoscale-interval", "--batch-window"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_serve_rejects_non_finite_args(self, flag, bad, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--autoscale", flag, bad])
        assert "finite" in capsys.readouterr().err

    def test_serve_timeout_needs_max_retries(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--timeout", "1"])
        err = capsys.readouterr().err
        assert "--timeout needs --max-retries" in err

    def test_serve_with_churn(self, capsys):
        assert main([
            "serve", "--workload", "bursty", "--duration", "30",
            "--churn", "0.1", "--seed", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "churn" in out

    def test_serve_rejects_bad_workload(self):
        with pytest.raises(SystemExit):
            main(["serve", "--workload", "tidal"])

    def test_experiment_cli_still_works(self, capsys):
        assert main(["batching"]) == 0
        assert "batch" in capsys.readouterr().out
