"""Fault injection and graceful degradation: plans, scenarios, policies.

Three layers under test:

1. **Schema strictness** — malformed :class:`FaultEvent`/:class:`FaultPlan`
   values raise at construction; unknown devices/links and permanent cuts
   raise before any serving starts (never silently dropped).
2. **Named scenarios** — the seeded registry expands deterministically,
   validates against the paper testbed, and differs across seeds.
3. **Serving semantics** — stragglers slow completions, link cuts
   partition and heal, retry budgets terminate requests as ``timed_out``,
   and the brownout controller sheds lowest-slack classes first; the
   widened conservation invariant
   ``completed + rejected + timed_out == arrivals``, same-seed determinism
   and the golden report digest hold across fault type x autoscale.
"""

import math

import pytest
from conftest import assert_matches_golden

from repro.cluster.network import Network
from repro.serving import (
    BrownoutPolicy,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    ServingRuntime,
    SLOPolicy,
    WorkloadGenerator,
    crash,
    degrade_link,
    fault_scenario,
    regional_outage,
    scenario_names,
    slowdown,
)

MODELS = ["clip-vit-b16", "encoder-vqa-small"]


def _trace(kind="poisson", rate=0.5, duration=20.0, seed=0, models=MODELS):
    return WorkloadGenerator(
        models, kind=kind, rate_rps=rate, duration_s=duration, seed=seed
    ).generate()


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time=1.0, kind="explode", device="desktop")

    @pytest.mark.parametrize("bad_time", [-1.0, float("nan"), float("inf"), "soon"])
    def test_bad_times_rejected(self, bad_time):
        with pytest.raises(ValueError):
            FaultEvent(time=bad_time, kind="fail", device="desktop")

    def test_device_kind_requires_device(self):
        with pytest.raises(ValueError, match="must name a device"):
            FaultEvent(time=1.0, kind="fail")
        with pytest.raises(ValueError, match="must name a device"):
            FaultEvent(time=1.0, kind="slow", device="desktop",
                       link=("desktop", "pan-router"))

    def test_link_kind_requires_link(self):
        with pytest.raises(ValueError, match="must name a link"):
            FaultEvent(time=1.0, kind="link-degrade", device="desktop")
        with pytest.raises(ValueError, match="two distinct endpoints"):
            FaultEvent(time=1.0, kind="link-restore", link=("desktop", "desktop"))

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf")])
    def test_slow_factor_must_be_positive_finite(self, factor):
        with pytest.raises(ValueError, match="slow factor"):
            FaultEvent(time=1.0, kind="slow", device="desktop", factor=factor)

    @pytest.mark.parametrize("factor", [-0.1, 1.0, 1.5, float("nan")])
    def test_link_degrade_factor_in_unit_interval(self, factor):
        with pytest.raises(ValueError, match="link-degrade factor"):
            FaultEvent(time=1.0, kind="link-degrade",
                       link=("desktop", "pan-router"), factor=factor)

    def test_label(self):
        assert FaultEvent(time=1.0, kind="fail", device="laptop").label == "laptop"
        assert (
            FaultEvent(time=1.0, kind="link-restore", link=("a", "b")).label
            == "a<->b"
        )


class TestFaultPlan:
    def test_unsorted_plan_rejected(self):
        events = [
            FaultEvent(time=5.0, kind="fail", device="desktop"),
            FaultEvent(time=1.0, kind="recover", device="desktop"),
        ]
        with pytest.raises(ValueError, match="not sorted"):
            FaultPlan(tuple(events))
        plan = FaultPlan.ordered(events)
        assert [e.time for e in plan.events] == [1.0, 5.0]

    def test_len_and_bool(self):
        assert len(FaultPlan()) == 0
        assert not FaultPlan()
        assert FaultPlan.ordered(crash("desktop", at=1.0))

    def test_validate_unknown_device(self):
        plan = FaultPlan.ordered(crash("mainframe", at=1.0))
        with pytest.raises(ValueError, match="unknown device 'mainframe'"):
            plan.validate_for(["desktop", "laptop"])

    def test_validate_unknown_link(self):
        plan = FaultPlan.ordered(
            degrade_link("desktop", "laptop", factor=0.5, start=1.0)
        )
        with pytest.raises(ValueError, match="unknown link"):
            plan.validate_for(["desktop", "laptop"], network=Network())

    def test_permanent_cut_rejected(self):
        plan = FaultPlan.ordered(
            degrade_link("desktop", "pan-router", factor=0.0, start=1.0, end=5.0)
            + [FaultEvent(time=9.0, kind="link-degrade",
                          link=("desktop", "pan-router"), factor=0.0)]
        )
        with pytest.raises(ValueError, match="never restored"):
            plan.validate_for(["desktop"], network=Network())

    def test_cut_healed_by_partial_degrade_is_valid(self):
        plan = FaultPlan.ordered([
            FaultEvent(time=1.0, kind="link-degrade",
                       link=("desktop", "pan-router"), factor=0.0),
            FaultEvent(time=5.0, kind="link-degrade",
                       link=("desktop", "pan-router"), factor=0.5),
        ])
        plan.validate_for(["desktop"], network=Network())

    def test_run_validates_before_serving(self):
        runtime = ServingRuntime(MODELS)
        plan = FaultPlan.ordered(crash("mainframe", at=1.0))
        with pytest.raises(ValueError, match="unknown device"):
            runtime.run(_trace(duration=5.0), faults=plan)


class TestBuilders:
    def test_crash_window(self):
        events = crash("desktop", at=2.0, until=8.0)
        assert [(e.time, e.kind) for e in events] == [(2.0, "fail"), (8.0, "recover")]
        with pytest.raises(ValueError, match="after crash time"):
            crash("desktop", at=5.0, until=5.0)

    def test_slowdown_window(self):
        events = slowdown("laptop", factor=3.0, start=1.0, end=4.0)
        assert [(e.kind, e.factor) for e in events] == [("slow", 3.0), ("slow-end", 1.0)]
        with pytest.raises(ValueError, match="end > start"):
            slowdown("laptop", factor=3.0, start=4.0, end=4.0)

    def test_degrade_link_window(self):
        events = degrade_link("desktop", "pan-router", factor=0.25, start=1.0, end=6.0)
        assert [e.kind for e in events] == ["link-degrade", "link-restore"]
        with pytest.raises(ValueError, match="end > start"):
            degrade_link("desktop", "pan-router", factor=0.25, start=6.0, end=6.0)

    def test_regional_outage_tags_region(self):
        events = regional_outage(["desktop", "jetson-b"], start=2.0, end=9.0,
                                 region="wired-pan")
        assert all(e.region == "wired-pan" for e in events)
        assert sorted(e.kind for e in events) == ["fail", "fail", "recover", "recover"]
        with pytest.raises(ValueError, match="at least one device"):
            regional_outage([], start=2.0)

    def test_ordered_merges_churn_and_plan(self):
        churn = crash("desktop", at=5.0)
        merged = FaultPlan.ordered(churn + slowdown("laptop", factor=2.0, start=3.0, end=9.0))
        assert [e.time for e in merged.events] == [3.0, 5.0, 9.0]
        assert [e.kind for e in merged.events] == ["slow", "fail", "slow-end"]
        assert FaultPlan.ordered(()).events == ()


class TestScenarios:
    def test_registry_names(self):
        assert scenario_names() == [
            "flaky-links", "flash-crowd-stragglers", "regional-outage"
        ]

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown fault scenario"):
            fault_scenario("meteor-strike", duration_s=60.0)

    def test_non_positive_duration(self):
        with pytest.raises(ValueError, match="duration_s must be positive"):
            fault_scenario("regional-outage", duration_s=0.0)

    @pytest.mark.parametrize("name", [
        "regional-outage", "flash-crowd-stragglers", "flaky-links"
    ])
    def test_deterministic_and_valid_for_testbed(self, name):
        runtime = ServingRuntime(MODELS)
        pool = sorted(set(runtime.device_names) | {runtime.requester})
        a = fault_scenario(name, duration_s=60.0, seed=3)
        b = fault_scenario(name, duration_s=60.0, seed=3)
        assert a == b
        a.validate_for(pool, network=Network())
        # All event times land inside the arrival window.
        assert all(0.0 <= e.time <= 60.0 for e in a.events)

    def test_seeds_jitter_timing(self):
        a = fault_scenario("regional-outage", duration_s=60.0, seed=0)
        b = fault_scenario("regional-outage", duration_s=60.0, seed=1)
        assert [e.time for e in a.events] != [e.time for e in b.events]


class TestFaultServing:
    def test_stragglers_slow_completions(self):
        trace = _trace(rate=0.4, duration=20.0, seed=1)
        plan = FaultPlan.ordered(
            [e for name in ("desktop", "laptop", "jetson-a", "jetson-b")
             for e in slowdown(name, factor=8.0, start=0.0, end=20.0)]
        )
        nominal = ServingRuntime(MODELS, slo=SLOPolicy(admission=False)).run(trace)
        slowed = ServingRuntime(MODELS, slo=SLOPolicy(admission=False)).run(
            trace, faults=plan
        )
        assert slowed.latency.p50 > nominal.latency.p50
        applied = [c for c in slowed.churn if c.applied]
        assert {c.kind for c in applied} == {"slow", "slow-end"}

    def test_link_cut_partitions_and_heals(self):
        trace = _trace(rate=0.4, duration=20.0, seed=2)
        plan = FaultPlan.ordered(
            degrade_link("desktop", "pan-router", factor=0.0, start=5.0, end=12.0)
        )
        report = ServingRuntime(MODELS, slo=SLOPolicy(admission=False)).run(
            trace, faults=plan
        )
        details = [c.detail for c in report.churn if c.applied]
        assert any("cut" in d and "partitioned: desktop" in d for d in details)
        assert any("rejoined: desktop" in d for d in details)
        assert report.completed + report.rejected + report.timed_out == report.arrivals

    def test_retry_budget_terminates_as_timed_out(self):
        trace = _trace(rate=0.8, duration=20.0, seed=3)
        plan = fault_scenario("regional-outage", duration_s=20.0, seed=3)
        report = ServingRuntime(
            MODELS,
            slo=SLOPolicy(admission=False),
            retry=RetryPolicy(timeout_s=0.3, max_retries=1),
        ).run(trace, faults=plan)
        assert report.timed_out > 0
        assert report.completed + report.rejected + report.timed_out == report.arrivals
        timed_out_records = [r for r in report.records if r.timed_out]
        assert timed_out_records
        # A timed-out request never reports a completion time.
        assert all(r.finish_time is None for r in timed_out_records)

    def test_brownout_sheds_and_recovers(self):
        trace = _trace(kind="bursty", rate=2.0, duration=20.0, seed=5,
                       models=MODELS + ["image-classification-vitb16"])
        report = ServingRuntime(
            MODELS + ["image-classification-vitb16"],
            slo=SLOPolicy(admission=False),
            brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=0.5,
                                    low_backlog_s=0.1),
        ).run(trace)
        assert report.brownout, "overload this deep must trip the brownout"
        # Levels stay within [0, n_models - 1] and shed counts match levels.
        for record in report.brownout:
            assert 0 <= record.level <= 2
            assert len(record.shed) == record.level
        shed_rejections = [
            r for r in report.records
            if r.rejected_reason and "brownout" in r.rejected_reason
        ]
        assert shed_rejections
        assert report.completed + report.rejected + report.timed_out == report.arrivals

    def test_brownout_max_level_cap(self):
        trace = _trace(kind="bursty", rate=2.0, duration=15.0, seed=5)
        report = ServingRuntime(
            MODELS,
            slo=SLOPolicy(admission=False),
            brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=0.5,
                                    low_backlog_s=0.1, max_level=0),
        ).run(trace)
        assert all(record.level == 0 for record in report.brownout)
        assert not [
            r for r in report.records
            if r.rejected_reason and "brownout" in r.rejected_reason
        ]


class TestBrownoutPolicyValidation:
    def test_bad_interval(self):
        with pytest.raises(ValueError, match="interval_s"):
            BrownoutPolicy(interval_s=0.0)

    def test_hysteresis_order(self):
        with pytest.raises(ValueError, match="hysteresis"):
            BrownoutPolicy(high_backlog_s=0.5, low_backlog_s=0.5)

    def test_bad_max_level(self):
        with pytest.raises(ValueError, match="max_level"):
            BrownoutPolicy(max_level=-1)

    # max_level is a count of shed classes; interval_s a duration.
    @pytest.mark.parametrize("field, bad", [
        ("max_level", True), ("max_level", 1.5), ("max_level", float("nan")),
        ("interval_s", True), ("high_backlog_s", True), ("low_backlog_s", True),
    ])
    def test_rejects_bool_fraction_and_nan(self, field, bad):
        with pytest.raises(ValueError, match=field):
            BrownoutPolicy(**{field: bad})


class TestRetryPolicyValidation:
    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_timeout(self, timeout):
        with pytest.raises(ValueError, match="timeout_s"):
            RetryPolicy(timeout_s=timeout, max_retries=1)

    def test_bad_max_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_bad_backoff(self):
        with pytest.raises(ValueError, match="backoff_s"):
            RetryPolicy(backoff_s=-0.1)

    # max_retries=inf is the unbounded budget the constructor refuses as
    # None next to a timeout; True, 2.5 and NaN are no retry count either.
    @pytest.mark.parametrize("field, bad", [
        ("max_retries", True), ("max_retries", 2.5), ("max_retries", float("nan")),
        ("max_retries", float("inf")), ("backoff_s", True), ("timeout_s", True),
    ])
    def test_rejects_bool_fraction_and_non_finite(self, field, bad):
        kwargs = {"timeout_s": 1.0, "max_retries": 2, field: bad}
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**kwargs)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff_s=0.1)
        assert policy.backoff_delay(0) == pytest.approx(0.1)
        assert policy.backoff_delay(3) == pytest.approx(0.8)
        assert policy.backoff_delay(100) == policy.backoff_delay(16)


class TestConservationAndDeterminism:
    """The property grid: fault type x autoscale."""

    @pytest.mark.parametrize("scenario", [
        "regional-outage", "flash-crowd-stragglers", "flaky-links"
    ])
    @pytest.mark.parametrize("autoscale", [False, True])
    def test_widened_conservation_and_same_seed_determinism(self, scenario, autoscale):
        kwargs = dict(
            slo=SLOPolicy(admission=False),
            retry=RetryPolicy(timeout_s=4.0, max_retries=2, backoff_s=0.05),
            brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=1.0,
                                    low_backlog_s=0.25),
        )
        if autoscale:
            kwargs.update(autoscale=True, replicate=False)
        plan = fault_scenario(scenario, duration_s=20.0, seed=9)
        key = f"faults:{scenario}:{'autoscale' if autoscale else 'static'}"
        # Twice: a same-seed rerun must reproduce the run exactly.
        for _ in range(2):
            trace = _trace(kind="bursty", rate=0.8, duration=20.0, seed=9)
            report = ServingRuntime(MODELS, **kwargs).run(trace, faults=plan)
            assert_matches_golden(report, key)
