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

A fifth property fuzzes the fault boundary: each example draws one
malformed ingredient (an unknown device or link, a cut never restored, a
bad time or factor, an unsorted plan, bad ``generate_churn`` arguments)
and checks that it raises a ``ValueError`` naming the bad value before the
engine schedules any event.

The search is derandomized and small so tier-1 wall time stays bounded.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.profiles.communication import LINK_PROFILES
from repro.serving import (
    FAIL,
    RECOVER,
    BrownoutPolicy,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    ServingRuntime,
    SLOPolicy,
    WorkloadGenerator,
    crash,
    degrade_link,
    generate_churn,
    regional_outage,
    slowdown,
)
from repro.serving.engine import FlatServingEngine
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


#: Devices outside the runtime's pool, and node pairs with no direct link.
UNKNOWN_DEVICES = ("mainframe", "server", "jetson-c")
UNLINKED_PAIRS = (("desktop", "laptop"), ("jetson-a", "mainframe"), ("server", "pan-router"))
#: A bool is no time or factor: accepted, ``True`` would crash at t=1,
#: ``factor=True`` slow by 1x and ``factor=False`` cut a link.
BAD_TIMES = (float("nan"), float("inf"), -1.0, -1e-9, True, False)


@st.composite
def malformed_fault_inputs(draw):
    """``(build, bad)``: ``build()`` makes one malformed fault plan (or
    raises first), and ``bad`` is the text its error must contain."""
    shape = draw(st.sampled_from(
        ("device", "link", "cut", "time", "slow", "link-factor", "unsorted", "churn-args",
         "churn-device")
    ))
    t = draw(st.sampled_from((0.0, 2.5, 7.0)))
    if shape == "device":
        name = draw(st.sampled_from(UNKNOWN_DEVICES))
        kind = draw(st.sampled_from((FAIL, RECOVER)))
        return (lambda: FaultPlan((FaultEvent(time=t, kind=kind, device=name),))), repr(name)
    if shape == "link":
        a, b = draw(st.sampled_from(UNLINKED_PAIRS))
        return (lambda: FaultPlan.ordered(degrade_link(a, b, 0.5, start=t, end=t + 1))), f"{a!r} <-> {b!r}"
    if shape == "cut":
        a, b = draw(st.sampled_from(LINKS))
        low, high = sorted((a, b))  # the error names the link in name order
        return (lambda: FaultPlan.ordered(degrade_link(a, b, 0.0, start=t))), f"{low!r} <-> {high!r}"
    if shape == "time":
        bad = draw(st.sampled_from(BAD_TIMES))
        build = draw(st.sampled_from((
            lambda: crash("desktop", at=bad),
            lambda: slowdown("laptop", factor=2.0, start=bad, end=9.0),
            lambda: degrade_link("desktop", "pan-router", 0.5, start=bad),
            lambda: regional_outage(["desktop", "jetson-b"], start=bad),
        )))
        return (lambda: FaultPlan.ordered(build())), repr(bad)
    if shape == "slow":
        bad = draw(st.sampled_from((0.0, -2.0, float("nan"), float("inf"), True, "2")))
        return (lambda: FaultPlan.ordered(slowdown("laptop", bad, start=t, end=t + 1))), repr(bad)
    if shape == "link-factor":
        bad = draw(st.sampled_from((1.0, 1.5, -0.1, float("nan"), float("inf"), False, None)))
        return (
            lambda: FaultPlan.ordered(degrade_link("desktop", "pan-router", bad, start=t, end=t + 1))
        ), repr(bad)
    if shape == "unsorted":
        early = draw(st.sampled_from((0.5, 1.0, 2.0)))
        return (lambda: FaultPlan(crash("desktop", at=5.0) + crash("laptop", at=early))), f"t={early}"
    if shape == "churn-args":
        rate, duration = draw(st.sampled_from((
            (-0.1, 10.0), (float("nan"), 10.0), (0.1, 0.0), (0.1, -5.0), (0.0, 0.0),
        )))
        bad = rate if not 0 <= rate else duration
        return (
            lambda: FaultPlan.ordered(generate_churn(DEVICES, "jetson-a", rate, duration))
        ), repr(bad)
    # A churn stream over a pool with a device the runtime does not have:
    # with one other device and min_live=1, the first event fails it.
    name = draw(st.sampled_from(UNKNOWN_DEVICES))
    seed = draw(st.integers(0, 20))
    return (
        lambda: FaultPlan.ordered(
            generate_churn([name, "jetson-a"], "jetson-a", 1.0, 50.0, seed=seed, min_live=1)
        )
    ), repr(name)


@given(case=malformed_fault_inputs())
@example(case=(lambda: FaultPlan.ordered(crash("mainframe", at=5.0)), "'mainframe'"))
@example(case=(
    lambda: FaultPlan((FaultEvent(time=True, kind=FAIL, device="desktop"),)),
    "fault time must be a finite number, got True",
))
@example(case=(
    lambda: FaultPlan.ordered(slowdown("laptop", True, start=1.0, end=2.0)),
    "slow factor must be a finite number, got True",
))
@example(case=(
    lambda: FaultPlan.ordered(slowdown("laptop", "2", start=1.0, end=2.0)),
    "slow factor must be a finite number, got '2'",
))
@example(case=(
    lambda: FaultPlan.ordered(degrade_link("desktop", "pan-router", False, start=1.0)),
    "link-degrade factor must be a finite number, got False",
))
@settings(max_examples=60, deadline=1000, derandomize=True, database=None)
def test_malformed_fault_input_raises_before_serving(case):
    """The first explicit example is a crash of a device outside the pool.
    A legacy unvalidated churn input used to serve it to the end, logging
    the crash as applied.  The others are a bool time or factor and a
    string factor, each named with its field."""
    build, bad = case
    trace = ArrivalTrace(
        arrivals=(Arrival(1.0, "clip-vit-b16"),), duration_s=10.0, kind="poisson", seed=0
    )
    with mock.patch.object(FlatServingEngine, "run", side_effect=AssertionError("served")):
        with pytest.raises(ValueError) as raised:
            ServingRuntime(MODELS).run(trace, faults=build())
    assert bad in str(raised.value)
