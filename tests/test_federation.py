"""Federation: cross-cluster conservation contract, merge bit-identity,
WAN topology/router validation, and the CLI subcommand.

The centerpiece mirrors ``tests/test_serving_faults.py``: a property grid
over every (workload kind x spillover on/off x regional-outage on/off)
cell asserting that no request is created or lost by crossing the WAN —
per cluster ``completed + rejected + timed_out == arrivals`` with
``arrivals == local - forwarded_out + forwarded_in``, and globally
``sum(completed + rejected + timed_out + forwarded_out - forwarded_in)
== sum(local arrivals)`` — plus same-seed digest determinism and
``merge(parallel) == merge(sequential)`` bit-identity.
"""

import dataclasses

import pytest
from conftest import SERVING_MODELS, TESTBED_DEVICES, small_federation

from repro.__main__ import main
from repro.federation import (
    ClusterRoute,
    ClusterSpec,
    FederationRuntime,
    FederationTopology,
    WanLink,
    live_fraction,
    merge_reports,
    plan_spillover,
)
from repro.serving.faults import FaultPlan, regional_outage
from repro.serving.slo import SLOPolicy
from repro.serving.workload import WORKLOAD_KINDS

#: Grid shape: short but hot enough that spillover cells actually forward.
GRID_DURATION_S = 30.0
GRID_SEED = 7


def _grid_runtime(kind, spillover):
    return FederationRuntime(
        small_federation(rate_rps=1.2, capacity_rps=1.6, period_s=GRID_DURATION_S),
        models=tuple(SERVING_MODELS),
        duration_s=GRID_DURATION_S,
        workload_kind=kind,
        diurnal_period_s=GRID_DURATION_S,
        diurnal_amplitude=0.8,
        slo=SLOPolicy(admission=False),
        spillover=spillover,
    )


def _grid_faults(outage):
    if not outage:
        return {}
    return {
        "us-west": FaultPlan.ordered(
            regional_outage(
                ("desktop", "jetson-b"),
                0.25 * GRID_DURATION_S,
                0.75 * GRID_DURATION_S,
                region="us-west",
            )
        )
    }


class TestConservationContract:
    """The property grid: conservation must hold in every cell."""

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    @pytest.mark.parametrize("spillover", [False, True])
    @pytest.mark.parametrize("outage", [False, True])
    def test_no_request_created_or_lost(self, kind, spillover, outage):
        report = _grid_runtime(kind, spillover).run(
            GRID_SEED, fault_plans=_grid_faults(outage)
        )
        for cluster in report.clusters:
            assert cluster.arrivals == (
                cluster.local_arrivals - cluster.forwarded_out + cluster.forwarded_in
            )
            assert (
                cluster.completed + cluster.rejected + cluster.timed_out
                == cluster.arrivals
            )
        ledger = sum(
            c.completed + c.rejected + c.timed_out + c.forwarded_out - c.forwarded_in
            for c in report.clusters
        )
        assert ledger == report.local_arrivals
        assert sum(c.forwarded_out for c in report.clusters) == sum(
            c.forwarded_in for c in report.clusters
        )
        if not spillover:
            assert report.forwarded == 0

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_same_seed_same_digest(self, kind):
        first = _grid_runtime(kind, True).run(GRID_SEED)
        second = _grid_runtime(kind, True).run(GRID_SEED)
        assert first.digest() == second.digest()
        assert first.digest() != _grid_runtime(kind, True).run(GRID_SEED + 1).digest()

    @pytest.mark.parametrize("outage", [False, True])
    def test_parallel_merge_bit_identical_to_sequential(self, outage):
        runtime = _grid_runtime("diurnal", True)
        plans = _grid_faults(outage)
        sequential = runtime.run(GRID_SEED, fault_plans=plans, parallel=False)
        parallel = runtime.run(GRID_SEED, fault_plans=plans, parallel=True)
        assert parallel.digest() == sequential.digest()
        assert parallel == sequential

    def test_spillover_actually_forwards_under_load(self):
        """The hot diurnal grid must exercise the WAN path, or the grid
        above would be vacuously conserving."""
        report = _grid_runtime("diurnal", True).run(GRID_SEED)
        assert report.forwarded > 0

    def test_merge_rejects_tampered_ledgers(self):
        report = _grid_runtime("diurnal", True).run(GRID_SEED)
        clusters = list(report.clusters)
        lossy = dataclasses.replace(clusters[0], completed=clusters[0].completed - 1)
        with pytest.raises(RuntimeError):
            merge_reports([lossy] + clusters[1:], spillover=True)
        unbalanced = dataclasses.replace(
            clusters[0],
            forwarded_in=clusters[0].forwarded_in + 1,
            arrivals=clusters[0].arrivals + 1,
            completed=clusters[0].completed + 1,
        )
        with pytest.raises(RuntimeError):
            merge_reports([unbalanced] + clusters[1:], spillover=True)
        with pytest.raises(ValueError):
            merge_reports(clusters + [clusters[0]], spillover=True)
        with pytest.raises(ValueError):
            merge_reports([], spillover=True)


class TestTopology:
    def test_lookup_and_neighbors(self, federation_topology):
        assert federation_topology.names() == ("ap-south", "eu-central", "us-west")
        assert federation_topology.neighbors("us-west") == ("ap-south", "eu-central")
        assert federation_topology.cluster("eu-central").phase_offset_s == 20.0
        assert federation_topology.link("us-west", "eu-central") is not None
        assert federation_topology.link("eu-central", "us-west") is not None

    def test_wan_pricing(self, federation_topology):
        # 70 ms latency + 2 MB * 8 / 200 Mbps = 70 ms + 80 ms.
        delay = federation_topology.wan_delay_s("us-west", "eu-central", 2.0)
        assert delay == pytest.approx(0.07 + 2.0 * 8.0 / 200.0)
        assert federation_topology.return_delay_s("us-west", "eu-central") == 0.07
        with pytest.raises(ValueError):
            federation_topology.wan_delay_s("us-west", "eu-central", -1.0)

    def test_validation(self):
        spec = ClusterSpec("solo", rate_rps=1.0, capacity_rps=1.0)
        with pytest.raises(ValueError):
            ClusterSpec("", rate_rps=1.0, capacity_rps=1.0)
        with pytest.raises(ValueError):
            ClusterSpec("x", rate_rps=0.0, capacity_rps=1.0)
        with pytest.raises(ValueError):
            ClusterSpec("x", rate_rps=1.0, capacity_rps=1.0, phase_offset_s=float("nan"))
        with pytest.raises(ValueError):
            ClusterSpec("x", rate_rps=1.0, capacity_rps=1.0, device_names=())
        with pytest.raises(ValueError):
            WanLink("a", "a", latency_s=0.1, bandwidth_mbps=10.0)
        with pytest.raises(ValueError):
            WanLink("a", "b", latency_s=0.0, bandwidth_mbps=10.0)
        with pytest.raises(ValueError):
            FederationTopology(clusters=())
        with pytest.raises(ValueError):
            FederationTopology(clusters=(spec, spec))
        with pytest.raises(ValueError):
            FederationTopology(
                clusters=(spec,),
                links=(WanLink("solo", "ghost", latency_s=0.1, bandwidth_mbps=10.0),),
            )
        dup = WanLink("a", "b", latency_s=0.1, bandwidth_mbps=10.0)
        rev = WanLink("b", "a", latency_s=0.2, bandwidth_mbps=20.0)
        with pytest.raises(ValueError):
            FederationTopology(
                clusters=(
                    ClusterSpec("a", rate_rps=1.0, capacity_rps=1.0),
                    ClusterSpec("b", rate_rps=1.0, capacity_rps=1.0),
                ),
                links=(dup, rev),
            )

    def test_unlinked_pair_has_no_price(self):
        topo = FederationTopology(
            clusters=(
                ClusterSpec("a", rate_rps=1.0, capacity_rps=1.0),
                ClusterSpec("b", rate_rps=1.0, capacity_rps=1.0),
            )
        )
        assert topo.link("a", "b") is None
        assert topo.neighbors("a") == ()
        with pytest.raises(ValueError):
            topo.wan_delay_s("a", "b", 1.0)


class TestRouter:
    def test_live_fraction_tracks_outage_window(self):
        plan = FaultPlan.ordered(
            regional_outage(("desktop", "jetson-b"), 10.0, 20.0, region="r")
        )
        assert live_fraction(plan, TESTBED_DEVICES, 5.0) == 1.0
        assert live_fraction(plan, TESTBED_DEVICES, 15.0) == 0.5
        assert live_fraction(plan, TESTBED_DEVICES, 25.0) == 1.0
        assert live_fraction(None, TESTBED_DEVICES, 15.0) == 1.0

    def test_no_forwarding_below_capacity(self, federation_topology):
        runtime = FederationRuntime(
            federation_topology, duration_s=30.0, workload_kind="poisson"
        )
        traces = runtime.local_traces(seed=1)
        # Re-plan against a copy with huge capacity: nothing overflows.
        roomy = FederationTopology(
            clusters=tuple(
                dataclasses.replace(spec, capacity_rps=1000.0)
                for spec in federation_topology.clusters
            ),
            links=federation_topology.links,
        )
        routes = plan_spillover(roomy, traces)
        for name, route in routes.items():
            assert route.forwarded_out == 0
            assert route.forwarded_in == 0
            assert route.trace == traces[name]
            assert all(extra == 0.0 for extra in route.wan_extra_s)

    def test_forwarded_arrivals_pay_wan_and_stay_sorted(self, federation_topology):
        runtime = FederationRuntime(
            federation_topology,
            duration_s=30.0,
            workload_kind="diurnal",
            diurnal_period_s=30.0,
            diurnal_amplitude=0.8,
        )
        traces = runtime.local_traces(seed=GRID_SEED)
        routes = plan_spillover(federation_topology, traces)
        assert sum(r.forwarded_out for r in routes.values()) > 0
        for route in routes.values():
            times = [a.time for a in route.trace.arrivals]
            assert times == sorted(times)
            assert all(t < route.trace.duration_s for t in times)
            assert all(extra >= 0.0 for extra in route.wan_extra_s)
        for route in routes.values():
            for decision in route.decisions:
                link_delay = federation_topology.wan_delay_s(
                    decision.origin, decision.destination, 2.0
                )
                assert decision.arrival_s == decision.departure_s + link_delay
                assert decision.extra_s == pytest.approx(
                    link_delay
                    + federation_topology.return_delay_s(
                        decision.origin, decision.destination
                    )
                )

    def test_spillover_off_is_identity(self, federation_topology):
        runtime = FederationRuntime(
            federation_topology, duration_s=20.0, workload_kind="bursty"
        )
        traces = runtime.local_traces(seed=2)
        routes = plan_spillover(federation_topology, traces, spillover=False)
        for name, route in routes.items():
            assert route.trace == traces[name]
            assert route.forwarded_out == route.forwarded_in == 0

    def test_validation(self, federation_topology):
        runtime = FederationRuntime(federation_topology, duration_s=20.0)
        traces = runtime.local_traces(seed=0)
        with pytest.raises(ValueError):
            plan_spillover(federation_topology, traces, window_s=0.0)
        with pytest.raises(ValueError):
            plan_spillover(federation_topology, dict(list(traces.items())[:2]))
        with pytest.raises(ValueError):
            plan_spillover(federation_topology, traces, {"ghost": None})
        name = "us-west"
        short = dataclasses.replace(traces[name], duration_s=5.0)
        with pytest.raises(ValueError):
            plan_spillover(federation_topology, {**traces, name: short})
        route = plan_spillover(federation_topology, traces)[name]
        with pytest.raises(ValueError):
            ClusterRoute(
                name=name,
                trace=route.trace,
                wan_extra_s=route.wan_extra_s[:-1],
                local_arrivals=route.local_arrivals,
                forwarded_out=route.forwarded_out,
                forwarded_in=route.forwarded_in,
            )
        with pytest.raises(ValueError):
            ClusterRoute(
                name=name,
                trace=route.trace,
                wan_extra_s=route.wan_extra_s,
                local_arrivals=route.local_arrivals + 1,
                forwarded_out=route.forwarded_out,
                forwarded_in=route.forwarded_in,
            )


class TestRuntimeAndCli:
    def test_runtime_validation(self, federation_topology):
        with pytest.raises(ValueError):
            FederationRuntime(federation_topology, duration_s=0.0)
        with pytest.raises(ValueError):
            FederationRuntime(federation_topology, models=())

    def test_per_cluster_seeds_are_independent(self, federation_topology):
        """Cluster streams derive from the cluster name: distinct per
        cluster, stable across topology changes elsewhere."""
        runtime = FederationRuntime(
            federation_topology, duration_s=20.0, workload_kind="poisson"
        )
        traces = runtime.local_traces(seed=0)
        assert len({trace.seed for trace in traces.values()}) == len(traces)
        streams = {
            name: tuple((a.time, a.model_name) for a in trace.arrivals)
            for name, trace in traces.items()
        }
        assert len(set(streams.values())) == len(streams)

    def test_e2e_latency_includes_wan_penalty(self, federation_topology):
        """With spillover on, forwarded requests pay WAN forward+return in
        their end-to-end latency: total e2e time must exceed the same
        clusters' serving-only time whenever anything was forwarded."""
        runtime = FederationRuntime(
            federation_topology,
            duration_s=30.0,
            workload_kind="diurnal",
            diurnal_period_s=30.0,
            diurnal_amplitude=0.8,
            slo=SLOPolicy(admission=False),
        )
        report = runtime.run(GRID_SEED)
        assert report.forwarded > 0
        routes = runtime.plan(GRID_SEED)
        wan_total = sum(sum(route.wan_extra_s) for route in routes.values())
        assert wan_total > 0.0
        # Everything completed (admission off, no faults), so the summed
        # end-to-end latency must carry at least the full WAN penalty on
        # top of strictly positive serving time.
        assert report.completed == report.local_arrivals
        total_e2e = sum(sum(c.e2e_latencies) for c in report.clusters)
        assert total_e2e > wan_total
        assert report.latency.count == report.completed

    def test_cli_study_and_single_run(self, capsys):
        assert main(["federation", "--duration", "20", "--seed", "3"]) == 0
        single = capsys.readouterr().out
        assert "federation run — 3 clusters" in single
        assert "digest" in single
        assert main(["federation", "--duration", "20", "--seed", "3"]) == 0
        assert capsys.readouterr().out == single  # CLI is deterministic
        assert (
            main(["federation", "--study", "--duration", "20", "--seed", "3"]) == 0
        )
        study = capsys.readouterr().out
        assert "offset-diurnal" in study and "regional-outage" in study
        assert "spillover off" in study and "WAN spillover on" in study

    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-5"])
    def test_cli_rejects_non_finite_duration(self, bad, capsys):
        """A usage error (exit 2) naming --duration, not a traceback from
        the derived phase offsets."""
        with pytest.raises(SystemExit) as exit_info:
            main(["federation", "--duration", bad])
        assert exit_info.value.code == 2
        assert "--duration: must be finite and positive" in capsys.readouterr().err

    def test_cli_outage_and_no_spillover(self, capsys):
        assert main([
            "federation", "--duration", "20", "--outage", "--no-spillover",
        ]) == 0
        out = capsys.readouterr().out
        assert "spillover off" in out
        assert "regional-outage" in out
