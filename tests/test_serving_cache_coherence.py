"""Cache coherence of the flat engine's placement-generation views.

The autoscaler's per-module scale view is cached per placement generation,
and the isolated-latency estimate is cached per generation on top of a memo
keyed by routed hosts.  These tests patch :class:`FlatServingEngine` so that
every scale-view lookup and every isolated estimate is recomputed from
scratch and compared with ``==``.  A view that outlives a mid-tick
scale-down, or a memo that outlives a link fault, fails here.
"""

from collections import Counter

import pytest
from test_serving_engine_equivalence import CONFIGS, _run, assert_reports_identical

from repro.core.routing.latency import RoutingDecision
from repro.serving.engine import FlatServingEngine

CONFIG_BY_ID = {param.id: param.values[0] for param in CONFIGS}


def _isolated_from_scratch(engine, info):
    """The isolated estimate with no cache: route each module to its
    fastest live host, then price one breakdown at current bandwidths."""
    model = engine._latency_model
    hosts = {}
    for module_name in info.module_names:
        pairs = [
            (model.compute_seconds(info.proto, module_name, host), host)
            for host in engine._placement.hosts(module_name)
            if host in engine._live
        ]
        if not pairs:
            return None
        hosts[module_name] = min(pairs)[1]
    decision = RoutingDecision(request=info.proto, hosts=hosts)
    return model.breakdown(info.proto, engine._placement, routing=decision).total


@pytest.fixture
def checked_engine(monkeypatch):
    """Patch the cached lookups to assert against a fresh recomputation;
    yields the per-lookup check counts."""
    checks = Counter()
    scale_view = FlatServingEngine._scale_view
    isolated = FlatServingEngine._isolated

    def checked_scale_view(self, module_name):
        view = scale_view(self, module_name)
        assert view == self._build_scale_view(module_name)
        checks["scale_view"] += 1
        return view

    def checked_isolated(self, info):
        value = isolated(self, info)
        assert value == _isolated_from_scratch(self, info)
        checks["isolated"] += 1
        return value

    monkeypatch.setattr(FlatServingEngine, "_scale_view", checked_scale_view)
    monkeypatch.setattr(FlatServingEngine, "_isolated", checked_isolated)
    return checks


@pytest.mark.parametrize(
    "config_id",
    [
        "bursty-flaky-links-autoscale",
        "poisson-outage-autoscale-retry",
        "poisson-tight-memory-autoscale",
    ],
)
def test_cached_views_match_recomputation(config_id, checked_engine):
    kwargs = CONFIG_BY_ID[config_id]
    checked = _run("flat", **kwargs)
    assert checked_engine["scale_view"] > 0
    assert checked_engine["isolated"] > 0
    assert any(s.action == "add" and s.applied for s in checked.scaling)
    # The checks only read: the patched run reports exactly what the
    # legacy engine does.
    assert_reports_identical(checked, _run("processes", **kwargs))
