"""Cache coherence of the flat engine's memoized lookups.

The autoscaler's per-module scale view is cached per placement generation,
the isolated-latency estimate per generation on top of a memo keyed by
routed hosts, the route cache (each module's live ``(service, host)``
pairs) per generation, the last rejection verdict of each model per
routing-state version and brownout level, and transfer prices until a link
fault.  These tests patch :class:`FlatServingEngine` so that every such
lookup, and the uncached queue pressure, is recomputed from scratch and
compared with ``==``, and every arrival's admission decision with it.  A
view that outlives a mid-tick scale-down, a memo that outlives a link
fault, or a verdict that outlives a reservation fails here.
"""

from collections import Counter

import pytest
from conftest import assert_matches_golden
from test_serving_golden import ADMISSION_CASES, CONFIGS, MODELS, _run

from repro.core.routing.latency import RoutingDecision
from repro.serving import (
    FaultPlan,
    RetryPolicy,
    ServingRuntime,
    SLOPolicy,
    WorkloadGenerator,
    degrade_link,
)
from repro.serving.engine import FlatServingEngine

CONFIG_BY_ID = {param.id: param.values[0] for param in CONFIGS}


def _live_pairs_from_scratch(engine, info, module_name):
    """Nominal ``(service seconds, host)`` for every live host of the
    module, in placement order."""
    model = engine._latency_model
    return [
        (model.compute_seconds(info.proto, module_name, host), host)
        for host in engine._placement.hosts(module_name)
        if host in engine._live
    ]


def _isolated_from_scratch(engine, info):
    """The isolated estimate with no cache: route each module to its
    fastest live host, then price one breakdown at current bandwidths."""
    hosts = {}
    for module_name in info.module_names:
        pairs = _live_pairs_from_scratch(engine, info, module_name)
        if not pairs:
            return None
        hosts[module_name] = min(pairs)[1]
    decision = RoutingDecision(request=info.proto, hosts=hosts)
    return engine._latency_model.breakdown(
        info.proto, engine._placement, routing=decision
    ).total


def _wait_from_scratch(engine, host, service):
    """Queueing delay on ``host``: slot occupancy, micro-batch backlog and
    in-flight reservations, each per slot."""
    capacity = engine._slot_cap[host]
    outstanding = engine._slot_used[host] + len(engine._slot_waiters[host])
    return (
        outstanding / capacity * service
        + engine._backlog[host] / capacity
        + engine._reserved[host] / capacity
    )


def _queue_pressure_from_scratch(engine, info):
    """What-if routing of the whole request with no cache: each module goes
    to the live host minimizing (service + wait, name) at the degraded
    speed; the pressure is the slowest encoder's wait plus the head's
    (inf while some module has no live host)."""
    waits = {}
    for module_name in info.module_names:
        scored = []
        for service, host in _live_pairs_from_scratch(engine, info, module_name):
            service = service * engine._slow[host]
            wait = _wait_from_scratch(engine, host, service)
            scored.append((service + wait, host, wait))
        if not scored:
            return float("inf")
        waits[module_name] = min(scored)[2]
    encoder_wait = max((waits[name] for name in info.encoders), default=0.0)
    return encoder_wait + waits[info.head]


def _decision_from_scratch(engine, idx):
    """Admission of arrival ``idx`` with no cache, in the engine's order:
    ``(admitted, slo, reject reason, predicted latency of an SLO reject)``."""
    slo_policy = engine.rt.slo
    model_name = engine._arrival_models[idx]
    info = engine._info_for(model_name)
    isolated = _isolated_from_scratch(engine, info)
    if isolated is None:
        slo = slo_policy.slo_for(0.0)
        if slo_policy.admission:
            return False, slo, "no live host for a required module", None
    else:
        slo = slo_policy.slo_for(isolated)
    if model_name in engine._brownout_shed:
        reason = f"brownout level {engine._brownout_level}: shedding {model_name}"
        return False, slo, reason, None
    if isolated is not None:
        predicted = isolated + _queue_pressure_from_scratch(engine, info)
        if not slo_policy.admit(predicted, slo):
            reason = f"predicted {predicted:.2f}s exceeds SLO {slo:.2f}s"
            return False, slo, reason, predicted
    return True, slo, None, None


@pytest.fixture
def checked_engine(monkeypatch):
    """Patch the cached lookups to assert against a fresh recomputation;
    yields the per-lookup check counts."""
    checks = Counter()
    originals = {
        name: getattr(FlatServingEngine, name)
        for name in (
            "_scale_view", "_isolated", "_live_pairs", "_queue_pressure",
            "_transfer_seconds", "_on_arrival",
        )
    }

    def checked_scale_view(self, module_name):
        view = originals["_scale_view"](self, module_name)
        assert view == self._build_scale_view(module_name)
        checks["scale_view"] += 1
        return view

    def checked_isolated(self, info):
        value = originals["_isolated"](self, info)
        assert value == _isolated_from_scratch(self, info)
        checks["isolated"] += 1
        return value

    def checked_live_pairs(self, info, module_name):
        pairs = originals["_live_pairs"](self, info, module_name)
        assert pairs == _live_pairs_from_scratch(self, info, module_name)
        checks["live_pairs"] += 1
        return pairs

    def checked_queue_pressure(self, info):
        value = originals["_queue_pressure"](self, info)
        assert value == _queue_pressure_from_scratch(self, info)
        checks["queue_pressure"] += 1
        return value

    def checked_transfer_seconds(self, src, dst, payload_bytes):
        value = originals["_transfer_seconds"](self, src, dst, payload_bytes)
        assert value == self._network.transfer_seconds(src, dst, payload_bytes)
        checks["transfer_seconds"] += 1
        return value

    def checked_on_arrival(self, idx):
        admitted, slo, reason, predicted = _decision_from_scratch(self, idx)
        model_name = self._arrival_models[idx]
        verdict = self._verdicts.get(model_name)
        if verdict is not None and verdict[:2] == (self._state_version, self._brownout_level):
            checks["verdict_hit"] += 1
        originals["_on_arrival"](self, idx)
        assert self._admitted[idx] == admitted
        assert self._slo[idx] == slo
        assert self._rejected[idx] == reason
        if predicted is not None:
            assert self._verdicts[model_name][3] == predicted
        checks["arrival"] += 1

    monkeypatch.setattr(FlatServingEngine, "_on_arrival", checked_on_arrival)
    monkeypatch.setattr(FlatServingEngine, "_scale_view", checked_scale_view)
    monkeypatch.setattr(FlatServingEngine, "_isolated", checked_isolated)
    monkeypatch.setattr(FlatServingEngine, "_live_pairs", checked_live_pairs)
    monkeypatch.setattr(FlatServingEngine, "_queue_pressure", checked_queue_pressure)
    monkeypatch.setattr(FlatServingEngine, "_transfer_seconds", checked_transfer_seconds)
    return checks


@pytest.mark.parametrize(
    "config_id",
    [
        "bursty-flaky-links-autoscale",
        "poisson-outage-autoscale-retry",
        "poisson-tight-memory-autoscale",
    ],
)
def test_cached_lookups_match_recomputation(config_id, checked_engine):
    checked = _run(**CONFIG_BY_ID[config_id])
    for lookup in ("scale_view", "isolated", "live_pairs", "transfer_seconds"):
        assert checked_engine[lookup] > 0, lookup
    assert any(s.action == "add" and s.applied for s in checked.scaling)
    # The checks only read: the patched run reports exactly the golden.
    assert_matches_golden(checked, f"config:{config_id}")


def test_pressure_sees_release_of_a_cancelled_transfer(checked_engine):
    """A release with no other routing-state change before the next read.

    The degraded requester uplink makes image transfers outlast the 2 s
    timeout, so attempts are cancelled mid-transfer.  When such a transfer
    lands, the attempt releases its reservation and, with no retry budget,
    ends without touching slots, backlog or reservations again.  The tight
    SLO rejects most arrivals in between, and a rejection changes nothing
    either.  So the next arrival escapes a stale rejection verdict only
    if the release itself advanced the routing-state version.
    """
    trace = WorkloadGenerator(
        MODELS, kind="poisson", rate_rps=1.0, duration_s=30.0, seed=0
    ).generate()
    plan = FaultPlan.ordered(
        degrade_link("jetson-a", "pan-router", factor=0.01, start=5.0, end=20.0)
    )
    report = ServingRuntime(
        MODELS,
        slo=SLOPolicy(latency_multiplier=1.5),
        retry=RetryPolicy(timeout_s=2.0, max_retries=0),
    ).run(trace, faults=plan)
    assert checked_engine["arrival"] == report.arrivals
    assert checked_engine["queue_pressure"] > 0
    assert report.rejected and report.timed_out


ADMISSION_BY_ID = {param.id: param.values[0] for param in ADMISSION_CASES}


@pytest.mark.parametrize(
    "key",
    [
        "admission:link-reprice-all-rejected",
        "admission:brownout-shed-after-reject",
        "config:bursty-stragglers-churn-brownout",
        "config:bursty-autoscale-churn",
    ],
)
def test_memoized_rejections_match_fresh_decisions(key, checked_engine):
    """Runs where the verdict memo serves rejections: across a bandwidth
    change that bumps no routing-state version, across brownout level
    changes, and across churn migrations and scaling."""
    group, case_id = key.split(":")
    checked = _run(**(ADMISSION_BY_ID if group == "admission" else CONFIG_BY_ID)[case_id])
    assert checked_engine["verdict_hit"] > 0
    assert checked_engine["arrival"] == checked.arrivals
    assert_matches_golden(checked, key)
