"""Golden report digests: the serving engine's behaviour, frozen.

Each case below serves one config (workload shape, churn, faults,
autoscaling, batching, brownout, retry, energy tracking, same-instant
ties) and compares ``ServingReport.digest()`` with
``tests/golden/serving_digests.json``.  The goldens were written by the
retired generator-process serving engine, after asserting that it and
the flat engine digested every case equal; the ``attempt:`` keys came
later and were recorded by the flat engine alone.  A changed digest means
the change altered what a run reports (a record, a log entry, an energy
float or a rendered line), not merely how fast it got there.

Request ids come from a process-global counter; the digest rebases them,
so the goldens hold whatever ran earlier in the interpreter.
"""

import dataclasses

import pytest
from conftest import assert_matches_golden

from repro.serving import (
    BrownoutPolicy,
    FaultPlan,
    RetryPolicy,
    ServingRuntime,
    SLOPolicy,
    WorkloadGenerator,
    crash,
    degrade_link,
    fault_scenario,
    generate_churn,
    regional_outage,
    slowdown,
)
from repro.serving.workload import ArrivalTrace

MODELS = ["clip-vit-b16", "encoder-vqa-small"]


def _run(*, models=MODELS, kind="poisson", rate=0.4, duration=30.0, seed=0,
         churn_rate=0.0, faults=None, events=(), runtime_kwargs=None):
    trace = WorkloadGenerator(
        models, kind=kind, rate_rps=rate, duration_s=duration, seed=seed
    ).generate()
    runtime = ServingRuntime(models, **(runtime_kwargs or {}))
    events = list(events)
    if churn_rate:
        events += generate_churn(
            runtime.device_names,
            requester=runtime.requester,
            rate_per_s=churn_rate,
            duration_s=duration,
            seed=seed,
        )
    if faults:
        events += fault_scenario(faults, duration_s=duration, seed=seed).events
    return runtime.run(trace, faults=FaultPlan.ordered(events))


CONFIGS = [
    pytest.param(dict(kind="poisson"), id="poisson-plain"),
    pytest.param(
        dict(kind="bursty", runtime_kwargs=dict(batch_window_s=0.05)),
        id="bursty-batch-window",
    ),
    pytest.param(
        dict(kind="diurnal", runtime_kwargs=dict(slo=SLOPolicy(admission=False))),
        id="diurnal-no-admission",
    ),
    pytest.param(dict(kind="poisson", churn_rate=0.08, seed=4), id="poisson-churn"),
    pytest.param(
        dict(kind="bursty", churn_rate=0.06, seed=2,
             runtime_kwargs=dict(batch_window_s=0.1)),
        id="bursty-churn-window",
    ),
    pytest.param(
        dict(kind="poisson", rate=1.5, seed=5,
             runtime_kwargs=dict(autoscale=True, replicate=False)),
        id="poisson-autoscale",
    ),
    pytest.param(
        dict(kind="bursty", rate=0.8, churn_rate=0.05, seed=7,
             runtime_kwargs=dict(autoscale=True, replicate=False)),
        id="bursty-autoscale-churn",
    ),
    pytest.param(
        dict(kind="diurnal", churn_rate=0.05, seed=9,
             runtime_kwargs=dict(track_energy=False)),
        id="diurnal-churn-no-energy",
    ),
    pytest.param(
        dict(kind="poisson", runtime_kwargs=dict(replicate=False), seed=11),
        id="poisson-single-copy",
    ),
    pytest.param(
        dict(kind="bursty", runtime_kwargs=dict(max_batch_size=1), seed=13),
        id="bursty-no-batching",
    ),
    # Congestion-aware deployment: the queue-aware planner closure runs
    # inside the deploy path, so a changed placement shows up as a changed
    # digest.
    pytest.param(
        dict(kind="bursty", rate=1.2, seed=17,
             runtime_kwargs=dict(congestion_aware=True, replicate=False)),
        id="bursty-congestion-aware",
    ),
    pytest.param(
        dict(kind="poisson", rate=0.8, seed=19,
             runtime_kwargs=dict(congestion_aware=True,
                                 slo=SLOPolicy(admission=False))),
        id="poisson-congestion-aware-no-admission",
    ),
    # Fault scenarios: correlated regional crash/recovery, straggler
    # slowdown windows, and link degradation/partition all run through
    # the fault walker, with the degradation machinery (per-attempt
    # timeouts, bounded retries, brownout shedding) switched on.
    pytest.param(
        dict(kind="bursty", rate=0.6, seed=7, faults="regional-outage",
             runtime_kwargs=dict(slo=SLOPolicy(admission=False))),
        id="bursty-regional-outage",
    ),
    pytest.param(
        dict(kind="poisson", rate=0.8, seed=3, faults="flash-crowd-stragglers",
             runtime_kwargs=dict(
                 retry=RetryPolicy(timeout_s=6.0, max_retries=3, backoff_s=0.05))),
        id="poisson-stragglers-retry",
    ),
    pytest.param(
        dict(kind="bursty", rate=0.6, seed=7, faults="flaky-links",
             runtime_kwargs=dict(
                 slo=SLOPolicy(admission=False),
                 retry=RetryPolicy(timeout_s=6.0, max_retries=3, backoff_s=0.05),
                 brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=1.5,
                                         low_backlog_s=0.5))),
        id="bursty-flaky-links-graceful",
    ),
    pytest.param(
        dict(kind="poisson", rate=1.2, seed=11, faults="regional-outage",
             runtime_kwargs=dict(
                 autoscale=True, replicate=False,
                 retry=RetryPolicy(timeout_s=8.0, max_retries=5))),
        id="poisson-outage-autoscale-retry",
    ),
    # Autoscaling under link faults: a repriced link must clear the
    # isolated-latency memo keyed by routed hosts, while scale-ups and drops
    # bump the placement generation around it.
    pytest.param(
        dict(kind="bursty", rate=0.6, seed=7, duration=60.0, faults="flaky-links",
             runtime_kwargs=dict(
                 slo=SLOPolicy(admission=False), autoscale=True, replicate=False,
                 retry=RetryPolicy(timeout_s=6.0, max_retries=3, backoff_s=0.05),
                 brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=1.5,
                                         low_backlog_s=0.5),
                 batch_window_s=0.05)),
        id="bursty-flaky-links-autoscale",
    ),
    # Jetson-sized memory and a wide speed ratio: a scale-down's unload
    # frees the memory a later module in the same autoscale tick needs for
    # its scale-up, so the autoscaler's view must be re-read per module.
    pytest.param(
        dict(models=["clip-rn50", "clip-vit-b32", "clip-rn101"], rate=3.0,
             duration=60.0, seed=17,
             runtime_kwargs=dict(
                 device_names=["desktop", "jetson-b", "jetson-a"],
                 slo=SLOPolicy(admission=False), autoscale=True,
                 scale_up_speed_ratio=30.0, scale_down_idle_rounds=2,
                 max_replicas=4)),
        id="poisson-tight-memory-autoscale",
    ),
    pytest.param(
        dict(kind="bursty", rate=0.8, seed=2, churn_rate=0.05,
             faults="flash-crowd-stragglers",
             runtime_kwargs=dict(
                 brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=1.0,
                                         low_backlog_s=0.25))),
        id="bursty-stragglers-churn-brownout",
    ),
]


#: One case per branch of a request's attempt path (admission shed, encoder
#: path, head, micro-batch window, retry) that no other digest reaches.  All
#: run without admission, so faults rather than the SLO end requests.
_NO_ADMISSION = SLOPolicy(admission=False)
ATTEMPT_CASES = [
    # The brownout shed of an arrival that finds no live host for a module.
    pytest.param(
        dict(models=MODELS + ["image-classification-vitb16"], kind="bursty", rate=0.6,
             duration=60.0, churn_rate=0.1, faults="regional-outage",
             runtime_kwargs=dict(
                 slo=_NO_ADMISSION,
                 retry=RetryPolicy(timeout_s=6.0, max_retries=3, backoff_s=0.05),
                 brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=0.5,
                                         low_backlog_s=0.5 / 3))),
        id="shed-no-live-host",
    ),
    # An encoder path routed after a sibling path spent the retry budget.
    pytest.param(
        dict(kind="bursty", rate=0.6, duration=40.0, churn_rate=0.1,
             faults="regional-outage",
             runtime_kwargs=dict(
                 slo=_NO_ADMISSION,
                 retry=RetryPolicy(timeout_s=0.5, max_retries=0, backoff_s=0.05))),
        id="encoder-path-after-timeout",
    ),
    # A batch window that ends on a crashed host flushes its queue.
    pytest.param(
        dict(kind="bursty", rate=2.0, duration=40.0, churn_rate=0.1,
             faults="regional-outage",
             runtime_kwargs=dict(
                 slo=_NO_ADMISSION, batch_window_s=0.2,
                 retry=RetryPolicy(timeout_s=3.0, max_retries=2, backoff_s=0.05))),
        id="window-dead-host-flush",
    ),
    # A head attempt whose watchdog fires while its last embedding hop is
    # in flight over a degraded uplink.
    pytest.param(
        dict(models=["image-classification-vitb16"], rate=0.3, duration=60.0, seed=1,
             events=degrade_link("laptop", "pan-router", 1e-4, 0, 59),
             runtime_kwargs=dict(
                 slo=_NO_ADMISSION,
                 retry=RetryPolicy(timeout_s=1.0, max_retries=4, backoff_s=0.0))),
        id="head-cancel-after-last-hop",
    ),
    # A head with no live host parks on the reconfiguration signal.
    pytest.param(
        dict(rate=0.6, duration=40.0, churn_rate=0.1, faults="flaky-links",
             runtime_kwargs=dict(
                 slo=_NO_ADMISSION,
                 retry=RetryPolicy(timeout_s=3.0, max_retries=3, backoff_s=0.05))),
        id="head-parked",
    ),
    # A partition strands a head's embeddings; with zero backoff the retry
    # parks at once.
    pytest.param(
        dict(rate=1.2, duration=40.0, seed=2, churn_rate=0.1, faults="flaky-links",
             runtime_kwargs=dict(
                 slo=_NO_ADMISSION,
                 retry=RetryPolicy(timeout_s=3.0, max_retries=3, backoff_s=0.0))),
        id="head-stranded-zero-backoff",
    ),
]


#: Admission-on runs where every arrival is priced against the SLO, so a
#: stale admission price shows up in the rejection reasons.
ADMISSION_CASES = [
    # A link fault that slows the requester's uplink but keeps every device
    # reachable: it moves no routing state, yet reprices each rejected
    # arrival's isolated latency and so its reason.
    pytest.param(
        dict(rate=1.0, duration=30.0,
             events=degrade_link("jetson-a", "pan-router", 0.1, 10.0, 20.0),
             runtime_kwargs=dict(slo=SLOPolicy(absolute_s=0.05))),
        id="link-reprice-all-rejected",
    ),
    # Brownout levels that rise between two SLO rejections of one model at
    # an unchanged routing state: the second arrival is shed, not priced.
    pytest.param(
        dict(rate=2.0, seed=1,
             runtime_kwargs=dict(
                 brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=0.5,
                                         low_backlog_s=0.125))),
        id="brownout-shed-after-reject",
    ),
]


class TestGoldenDigests:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_config(self, config, request):
        assert_matches_golden(_run(**config), f"config:{request.node.callspec.id}")

    @pytest.mark.parametrize("case", ATTEMPT_CASES)
    def test_attempt_branch(self, case, request):
        assert_matches_golden(_run(**case), f"attempt:{request.node.callspec.id}")

    @pytest.mark.parametrize("case", ADMISSION_CASES)
    def test_admission(self, case, request):
        assert_matches_golden(_run(**case), f"admission:{request.node.callspec.id}")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_seeds_poisson_churn(self, seed):
        report = _run(kind="poisson", rate=0.6, duration=25.0, seed=seed, churn_rate=0.1)
        assert_matches_golden(report, f"seed:{seed}")

    def test_scaling_adds_and_drops(self):
        """A config known to exercise scale-up (with load cost), scale-down,
        and churn-driven migration in the same run."""
        report = _run(
            kind="poisson", rate=1.5, duration=60.0, seed=6,
            runtime_kwargs=dict(autoscale=True, replicate=False,
                                scale_down_idle_rounds=2),
        )
        assert_matches_golden(report, "scaling-adds-and-drops")
        assert any(s.action == "add" and s.applied for s in report.scaling)
        assert any(s.action == "drop" and s.applied for s in report.scaling)

    def test_keep_records_false_drops_records_only(self):
        kwargs = dict(kind="poisson", duration=20.0, seed=3)
        with_records = _run(**kwargs)
        without = _run(runtime_kwargs=dict(keep_records=False), **kwargs)
        assert without.records == ()
        assert without.metrics_tuple() == with_records.metrics_tuple()
        assert without.energy == with_records.energy

    def test_max_events_validation(self):
        with pytest.raises(ValueError):
            ServingRuntime(MODELS, max_events=0)


@pytest.fixture(scope="module")
def logged_report():
    """A run whose migration, churn and scaling logs and energy ledger are
    all non-empty, so every part of the digest has something to cover."""
    report = _run(kind="poisson", rate=0.6, duration=25.0, seed=4, churn_rate=0.1,
                  runtime_kwargs=dict(autoscale=True, replicate=False))
    assert report.migrations and report.churn and report.scaling and report.energy
    return report


def _with_records(report, records):
    return dataclasses.replace(report, records=tuple(records))


class TestReportDigest:
    """What ``ServingReport.digest()`` covers and what it deliberately
    ignores; the goldens are only as strong as this contract."""

    def test_request_id_offset_is_rebased(self, logged_report):
        shifted = [dataclasses.replace(r, request_id=r.request_id + 1000)
                   for r in logged_report.records]
        assert _with_records(logged_report, shifted).digest() == logged_report.digest()

    def test_request_id_order_counts(self, logged_report):
        records = list(logged_report.records)
        first, second = records[0], records[1]
        records[0] = dataclasses.replace(first, request_id=second.request_id)
        records[1] = dataclasses.replace(second, request_id=first.request_id)
        assert _with_records(logged_report, records).digest() != logged_report.digest()

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(
                lambda rep: _with_records(
                    rep, (dataclasses.replace(rep.records[0], retries=1),) + rep.records[1:]
                ),
                id="record-retries",
            ),
            pytest.param(lambda rep: dataclasses.replace(rep, migrations=rep.migrations[:-1]),
                         id="migrations"),
            pytest.param(lambda rep: dataclasses.replace(rep, churn=rep.churn[:-1]),
                         id="churn"),
            pytest.param(lambda rep: dataclasses.replace(rep, scaling=rep.scaling[:-1]),
                         id="scaling"),
            pytest.param(lambda rep: dataclasses.replace(rep, energy=None), id="energy"),
        ],
    )
    def test_covered_field_changes_digest(self, logged_report, mutate):
        assert mutate(logged_report).digest() != logged_report.digest()


#: Fault instants that hand-built arrivals land on exactly.
CRASH_AT, SLOW_AT, RECOVER_AT = 4.0, 6.0, 9.0
#: Duplicate arrival times, arrivals at t=0 (scheduled at the loop's own
#: clock), at every fault instant, and one out of trace order.
COINCIDENT_TIMES = (
    0.0, 0.0, 1.0, 1.0, 1.0, 2.5, CRASH_AT, CRASH_AT, CRASH_AT, 5.0, 5.0,
    SLOW_AT, SLOW_AT, 7.5, RECOVER_AT, RECOVER_AT, RECOVER_AT, 3.0, 12.0, 12.0,
)


def _coincident_trace():
    return ArrivalTrace(
        times=COINCIDENT_TIMES,
        model_names=tuple(MODELS[i % len(MODELS)] for i in range(len(COINCIDENT_TIMES))),
        duration_s=15.0,
        kind="poisson",
        seed=0,
    )


def _coincident_plan():
    return FaultPlan.ordered(
        crash("desktop", at=CRASH_AT, until=RECOVER_AT)
        + regional_outage(["jetson-b"], start=CRASH_AT, end=RECOVER_AT)
        + slowdown("laptop", factor=3.0, start=SLOW_AT, end=RECOVER_AT)
    )


class TestCoincidentTimestamps:
    """Same-instant ties between arrivals, fault events and the continuations
    they trigger: where the flat loop's arrival stream, heap and ready
    queue must keep one insertion order."""

    @pytest.mark.parametrize(
        "runtime_kwargs",
        [
            pytest.param({}, id="admission"),
            pytest.param(
                dict(slo=SLOPolicy(admission=False), batch_window_s=0.5,
                     retry=RetryPolicy(timeout_s=2.0, max_retries=2, backoff_s=0.5),
                     brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=1.0,
                                             low_backlog_s=0.25)),
                id="graceful",
            ),
            pytest.param(dict(autoscale=True, replicate=False), id="autoscale"),
        ],
    )
    def test_ties(self, runtime_kwargs, request):
        report = ServingRuntime(MODELS, **runtime_kwargs).run(
            _coincident_trace(), faults=_coincident_plan()
        )
        assert_matches_golden(report, f"ties:{request.node.callspec.id}")
        assert report.arrivals == len(COINCIDENT_TIMES)
        assert report.churn
