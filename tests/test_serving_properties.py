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

A parametrized grid covers the fault boundary: each case is one
malformed ingredient (an unknown device or link, a cut never restored, a
bad time or factor, an unsorted plan, bad ``generate_churn`` arguments),
and each must raise a ``ValueError`` naming the bad value before the
engine schedules any event.

The search is derandomized and small so tier-1 wall time stays bounded.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
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
from repro.serving.workload import WORKLOAD_KINDS, ArrivalTrace

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
        times=(1.0,), model_names=("clip-vit-b16",), duration_s=5.0, kind="poisson", seed=0
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


#: One onset time for every grid case that needs one.
T = 2.5


def _plan(build):
    """A malformed plan builder: ``FaultPlan.ordered`` over ``build()``."""
    return lambda: FaultPlan.ordered(build())


def malformed_fault_cases():
    """Every ``(build, bad)`` case: ``build()`` makes one malformed fault
    plan (or raises first), and ``bad`` is the text its error must contain."""
    cases = []

    def case(case_id, build, bad):
        cases.append(pytest.param(build, bad, id=case_id))

    for name in UNKNOWN_DEVICES:
        for kind in (FAIL, RECOVER):
            event = FaultEvent(time=T, kind=kind, device=name)
            case(f"device-{kind}-{name}", lambda event=event: FaultPlan((event,)), repr(name))
    # A legacy unvalidated churn input served this crash to the end,
    # logging it as applied.
    case("crash-mainframe", _plan(lambda: crash("mainframe", at=5.0)), "'mainframe'")
    for a, b in UNLINKED_PAIRS:
        case(f"link-{a}-{b}", _plan(lambda a=a, b=b: degrade_link(a, b, 0.5, start=T, end=T + 1)),
             f"{a!r} <-> {b!r}")
    for a, b in LINKS:
        low, high = sorted((a, b))  # the error names the link in name order
        case(f"cut-{a}-{b}", _plan(lambda a=a, b=b: degrade_link(a, b, 0.0, start=T)),
             f"{low!r} <-> {high!r}")
    builders = {
        "crash": lambda bad: crash("desktop", at=bad),
        "slowdown": lambda bad: slowdown("laptop", factor=2.0, start=bad, end=9.0),
        "degrade": lambda bad: degrade_link("desktop", "pan-router", 0.5, start=bad),
        "outage": lambda bad: regional_outage(["desktop", "jetson-b"], start=bad),
    }
    for label, builder in builders.items():
        for bad in BAD_TIMES:
            case(f"time-{label}-{bad!r}", _plan(lambda builder=builder, bad=bad: builder(bad)),
                 repr(bad))
    case("time-event-True",
         lambda: FaultPlan((FaultEvent(time=True, kind=FAIL, device="desktop"),)),
         "fault time must be a finite number, got True")
    for bad in (0.0, -2.0, float("nan"), float("inf"), True, "2"):
        case(f"slow-{bad!r}", _plan(lambda bad=bad: slowdown("laptop", bad, start=T, end=T + 1)),
             repr(bad))
    for bad in (True, "2"):
        case(f"slow-named-{bad!r}",
             _plan(lambda bad=bad: slowdown("laptop", bad, start=T, end=T + 1)),
             f"slow factor must be a finite number, got {bad!r}")
    for bad in (1.0, 1.5, -0.1, float("nan"), float("inf"), False, None):
        case(f"link-factor-{bad!r}", _plan(
            lambda bad=bad: degrade_link("desktop", "pan-router", bad, start=T, end=T + 1)
        ), repr(bad))
    case("link-factor-named-False",
         _plan(lambda: degrade_link("desktop", "pan-router", False, start=T)),
         "link-degrade factor must be a finite number, got False")
    for early in (0.5, 1.0, 2.0):
        case(f"unsorted-{early}",
             lambda early=early: FaultPlan(crash("desktop", at=5.0) + crash("laptop", at=early)),
             f"t={early}")
    for rate, duration in ((-0.1, 10.0), (float("nan"), 10.0), (0.1, 0.0), (0.1, -5.0),
                           (0.0, 0.0)):
        bad = rate if not 0 <= rate else duration
        case(f"churn-args-{rate!r}-{duration!r}", _plan(
            lambda rate=rate, duration=duration: generate_churn(
                DEVICES, "jetson-a", rate, duration
            )
        ), repr(bad))
    # A churn stream over a pool with a device the runtime does not have:
    # with one other device and min_live=1, the first event fails it.
    for name in UNKNOWN_DEVICES:
        for seed in (0, 7, 20):
            case(f"churn-device-{name}-{seed}", _plan(
                lambda name=name, seed=seed: generate_churn(
                    [name, "jetson-a"], "jetson-a", 1.0, 50.0, seed=seed, min_live=1
                )
            ), repr(name))
    return cases


@pytest.mark.parametrize("build, bad", malformed_fault_cases())
def test_malformed_fault_input_raises_before_serving(build, bad):
    """Each case is one malformed fault ingredient; it must raise a
    ``ValueError`` naming the bad value before the engine serves."""
    trace = ArrivalTrace(
        times=(1.0,), model_names=("clip-vit-b16",), duration_s=10.0, kind="poisson", seed=0
    )
    with mock.patch.object(FlatServingEngine, "run", side_effect=AssertionError("served")):
        with pytest.raises(ValueError) as raised:
            ServingRuntime(MODELS).run(trace, faults=build())
    assert bad in str(raised.value)
