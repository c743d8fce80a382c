"""Property suite for the serving runtime: drawn workloads, fault plans and
degradation policies.

Each example draws a workload kind, a fault plan on valid device and link
names inside the arrival window, a retry policy, a brownout policy or
none, and autoscale on or off, then checks four properties:

- conservation: ``completed + rejected + timed_out == arrivals``;
- determinism: two same-seed runs give equal ``digest()``;
- an empty plan (``FaultPlan.ordered(())``) digests like ``faults=None``;
- a fault placed after every request has finished leaves the records,
  the latency summary and the scaling log unchanged.  The churn log,
  the migrations and the energy horizon are not compared: the late fault
  is still applied (and logged, and may migrate) after the last request,
  and the run's clock runs on to it.

The search is derandomized and small so tier-1 wall time stays bounded.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiles.communication import LINK_PROFILES
from repro.serving import (
    BrownoutPolicy,
    FaultPlan,
    RetryPolicy,
    ServingRuntime,
    SLOPolicy,
    WorkloadGenerator,
    crash,
    degrade_link,
    regional_outage,
    slowdown,
)
from repro.serving.workload import WORKLOAD_KINDS, Arrival, ArrivalTrace

MODELS = ["clip-vit-b16", "encoder-vqa-small"]
DURATION_S = 10.0
#: The runtime's default pool plus its requester.
DEVICES = ("desktop", "laptop", "jetson-b", "jetson-a")
LINKS = tuple((link.a, link.b) for link in LINK_PROFILES)


@st.composite
def windows(draw):
    """A ``[start, end)`` window inside the arrival window."""
    start = draw(st.floats(0.0, DURATION_S - 1.0))
    length = draw(st.floats(0.5, 4.0))
    return start, min(start + length, DURATION_S)


@st.composite
def fault_events(draw):
    """One fault shape's events: a crash, a straggler window, a link
    degradation or cut, or a regional outage."""
    shape = draw(st.sampled_from(("crash", "slow", "link", "outage")))
    start, end = draw(windows())
    if shape == "crash":
        return crash(draw(st.sampled_from(DEVICES)), at=start, until=end)
    if shape == "slow":
        factor = draw(st.sampled_from((0.5, 2.0, 4.0)))
        return slowdown(draw(st.sampled_from(DEVICES)), factor=factor, start=start, end=end)
    if shape == "link":
        a, b = draw(st.sampled_from(LINKS))
        factor = draw(st.sampled_from((0.0, 0.25, 0.5)))
        return degrade_link(a, b, factor=factor, start=start, end=end)
    group = draw(st.lists(st.sampled_from(DEVICES), min_size=1, max_size=2, unique=True))
    return regional_outage(group, start=start, end=end)


fault_plans = st.lists(fault_events(), max_size=3).map(
    lambda groups: FaultPlan.ordered(event for group in groups for event in group)
)

@st.composite
def retry_policies(draw):
    """Every (timeout, budget, backoff) combination.  A timeout with an
    unbounded budget, the old livelock, must be rejected at the boundary;
    that example then serves with no timeout."""
    timeout_s = draw(st.sampled_from((None, 1.0, 3.0, 8.0)))
    max_retries = draw(st.sampled_from((None, 0, 2)))
    backoff_s = draw(st.sampled_from((0.0, 0.05)))
    if timeout_s is not None and max_retries is None:
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(timeout_s=timeout_s, backoff_s=backoff_s)
        timeout_s = None
    return RetryPolicy(timeout_s=timeout_s, max_retries=max_retries, backoff_s=backoff_s)


brownout_policies = st.one_of(
    st.none(),
    st.sampled_from((0.5, 1.5)).map(
        lambda high: BrownoutPolicy(interval_s=0.5, high_backlog_s=high,
                                    low_backlog_s=high / 4)
    ),
)


@st.composite
def scenarios(draw):
    """(trace, runtime kwargs, fault plan) for one example."""
    trace = WorkloadGenerator(
        MODELS,
        kind=draw(st.sampled_from(WORKLOAD_KINDS)),
        rate_rps=draw(st.sampled_from((0.4, 1.0))),
        duration_s=DURATION_S,
        seed=draw(st.integers(0, 50)),
    ).generate()
    kwargs = dict(
        slo=SLOPolicy(admission=False),
        retry=draw(retry_policies()),
        brownout=draw(brownout_policies),
    )
    if draw(st.booleans()):
        kwargs.update(autoscale=True, replicate=False)
    return trace, kwargs, draw(fault_plans)


def _serve(trace, kwargs, faults):
    return ServingRuntime(MODELS, **kwargs).run(trace, faults=faults)


def _without_fault_trail(report):
    """The report minus what a late fault is allowed to change."""
    return dataclasses.replace(report, churn=(), migrations=(), energy=None)


PROPERTY_SETTINGS = settings(
    max_examples=15, deadline=None, derandomize=True, database=None
)


@given(scenario=scenarios())
@PROPERTY_SETTINGS
def test_conservation_and_same_seed_determinism(scenario):
    trace, kwargs, plan = scenario
    first = _serve(trace, kwargs, plan)
    assert first.completed + first.rejected + first.timed_out == first.arrivals
    assert first.arrivals == len(trace.arrivals)
    assert _serve(trace, kwargs, plan).digest() == first.digest()


@given(scenario=scenarios())
@PROPERTY_SETTINGS
def test_empty_plan_matches_no_plan(scenario):
    trace, kwargs, _ = scenario
    empty = _serve(trace, kwargs, FaultPlan.ordered(()))
    assert empty.digest() == _serve(trace, kwargs, None).digest()


@given(scenario=scenarios(), device=st.sampled_from(DEVICES))
@PROPERTY_SETTINGS
def test_fault_after_last_request_changes_nothing_served(scenario, device):
    trace, kwargs, plan = scenario
    base = _serve(trace, kwargs, plan)
    # The run's clock stops at its last event, so every request has
    # terminated by the energy horizon.
    after = base.energy.horizon_s + 1.0
    late_plan = FaultPlan.ordered(plan.events + tuple(crash(device, at=after, until=after + 1.0)))
    late = _serve(trace, kwargs, late_plan)
    assert late.latency == base.latency
    assert late.scaling == base.scaling
    # Covers every record (request ids rebased) and the brownout log.
    assert _without_fault_trail(late).digest() == _without_fault_trail(base).digest()


def test_timeout_shorter_than_service_with_unbounded_retries():
    """Shrunk from the suite: one request whose every attempt outlasts a
    1 s timeout, with no retry budget, used to re-route until the event cap
    raised.  The policy now refuses that pairing before any run starts, and
    the same timeout with a budget ends the request as timed out."""
    with pytest.raises(ValueError, match="timeout_s.*max_retries"):
        RetryPolicy(timeout_s=1.0)
    trace = ArrivalTrace(
        arrivals=(Arrival(1.0, "clip-vit-b16"),), duration_s=5.0, kind="poisson", seed=0
    )
    report = ServingRuntime(
        MODELS, slo=SLOPolicy(admission=False),
        retry=RetryPolicy(timeout_s=1.0, max_retries=2), max_events=20_000,
    ).run(trace)
    assert (report.arrivals, report.timed_out) == (1, 1)
