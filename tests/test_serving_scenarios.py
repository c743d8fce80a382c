"""Named fault-scenario presets: registry, determinism, compilation,
testbed validity, and the ``serve --faults`` CLI path.

Every preset must (a) expand deterministically for a ``(name, duration,
seed)`` triple, (b) round-trip through :meth:`FaultPlan.ordered` unchanged
and stably merged with churn, (c) validate against the paper's four-device
testbed and its network, and (d) smoke-run deterministically through
``python -m repro serve --faults NAME``.
"""

import pytest
from conftest import TESTBED_DEVICES

from repro.__main__ import main
from repro.cluster.network import Network
from repro.serving import crash, fault_scenario, scenario_names
from repro.serving.faults import DEVICE_KINDS, FAIL, FaultPlan

DURATION_S = 40.0


class TestScenarioRegistry:
    def test_names_are_sorted_and_stable(self):
        names = scenario_names()
        assert names == sorted(names)
        assert set(names) >= {
            "regional-outage", "flash-crowd-stragglers", "flaky-links",
        }

    @pytest.mark.parametrize("name", scenario_names())
    def test_same_seed_same_plan(self, name):
        first = fault_scenario(name, duration_s=DURATION_S, seed=5)
        second = fault_scenario(name, duration_s=DURATION_S, seed=5)
        assert first == second
        assert first != fault_scenario(name, duration_s=DURATION_S, seed=6)

    @pytest.mark.parametrize("name", scenario_names())
    def test_events_inside_run_and_sorted(self, name):
        plan = fault_scenario(name, duration_s=DURATION_S, seed=0)
        assert plan  # every preset injects something
        times = [event.time for event in plan.events]
        assert times == sorted(times)
        assert all(0.0 <= t < DURATION_S for t in times)

    def test_validation(self):
        with pytest.raises(ValueError):
            fault_scenario("volcano", duration_s=DURATION_S)
        with pytest.raises(ValueError):
            fault_scenario("regional-outage", duration_s=0.0)


class TestScenarioCompilation:
    @pytest.mark.parametrize("name", scenario_names())
    def test_round_trips_through_ordered(self, name):
        """With no churn, re-ordering is the plan's own event stream (the
        ordered constructor already applied the stable (time, label) sort)."""
        plan = fault_scenario(name, duration_s=DURATION_S, seed=3)
        assert FaultPlan.ordered(plan.events) == plan

    @pytest.mark.parametrize("name", scenario_names())
    def test_merges_with_churn_sorted(self, name):
        plan = fault_scenario(name, duration_s=DURATION_S, seed=3)
        churn = crash("laptop", at=1.0, until=2.5)
        merged = FaultPlan.ordered(churn + list(plan.events)).events
        assert len(merged) == len(plan.events) + len(churn)
        assert [e.time for e in merged] == sorted(e.time for e in merged)
        # The converted churn events are real fault events in the stream.
        assert sum(1 for e in merged if e.device == "laptop" and e.kind == FAIL) >= 1

    @pytest.mark.parametrize("name", scenario_names())
    def test_valid_for_the_paper_testbed(self, name):
        """Every preset must target only real devices and real links, and
        never leave a permanent partition."""
        plan = fault_scenario(name, duration_s=DURATION_S, seed=9)
        plan.validate_for(sorted(TESTBED_DEVICES), network=Network())
        for event in plan.events:
            if event.kind in DEVICE_KINDS:
                assert event.device in TESTBED_DEVICES


class TestServeFaultsCli:
    @pytest.mark.parametrize("name", scenario_names())
    def test_smoke_runs_deterministically(self, name, capsys):
        argv = [
            "serve", "--faults", name, "--workload", "bursty",
            "--rate", "0.4", "--duration", "25", "--seed", "4",
            "--no-admission",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "arrivals" in first
