"""Federation study: WAN spillover vs isolated clusters.

Beyond the paper's single-cluster testbed, this study federates three
timezone-offset edge clusters behind the WAN router of
:mod:`repro.federation` and asks the question the federation exists to
answer: **does letting an overloaded or degraded cluster forward work to
remote peers — at WAN latency/bandwidth cost — beat leaving each cluster
to fend for itself?**  Two scenarios, each run with spillover on and off
on identical seeded workloads:

- **offset-diurnal** — healthy clusters whose diurnal peaks are staggered
  by a third of a period (their timezones): when one peaks, the others
  are in their troughs with spare capacity a WAN hop away.
- **regional-outage** — the same staggered workload, but one cluster
  loses half its devices (a correlated regional outage) mid-run and must
  shed or forward what its survivors cannot absorb.

Run with ``python -m repro federation --study`` (single configurable runs
without ``--study``).  ``scripts/run_benchmarks.py`` records the SAME
study into ``BENCH_federation.json`` — with conservation, merge
bit-identity, and spillover-wins gates — so there is exactly one
definition to drift.  All latencies are end-to-end **seconds** (serving
plus WAN penalty for forwarded requests); goodput is end-to-end SLO-met
completions per second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.reporting import ExperimentTable
from repro.federation import (
    ClusterSpec,
    FederationRuntime,
    FederationTopology,
    WanLink,
)
from repro.serving.faults import FaultPlan, regional_outage
from repro.serving.slo import SLOPolicy

#: Study shape: three clusters, one diurnal period spanning the run, the
#: peaks staggered by a third of a period — three timezones of one planet.
STUDY_DURATION_S = 120.0
STUDY_PERIOD_S = 120.0
STUDY_AMPLITUDE = 0.8
STUDY_RATE_RPS = 1.2
STUDY_CAPACITY_RPS = 1.8
STUDY_SEED = 7

#: The cluster hit by the regional outage, the devices it loses, and the
#: outage window (fractions of the run duration).
STUDY_OUTAGE_CLUSTER = "us-west"
STUDY_OUTAGE_DEVICES = ("desktop", "jetson-b")
STUDY_OUTAGE_WINDOW = (0.25, 0.75)

#: Scenario keys, in study order.
FEDERATION_SCENARIOS = ("offset-diurnal", "regional-outage")

#: Routing modes compared in every scenario.
FEDERATION_MODES = (
    ("isolated", "spillover off"),
    ("spillover", "WAN spillover on"),
)


def study_topology(
    rate_rps: float = STUDY_RATE_RPS,
    capacity_rps: float = STUDY_CAPACITY_RPS,
    period_s: float = STUDY_PERIOD_S,
) -> FederationTopology:
    """The study's three-cluster federation.

    Phase offsets split one diurnal period in thirds; WAN links use
    representative inter-region figures (us↔eu 70 ms, eu↔ap 90 ms,
    us↔ap 110 ms one-way).
    """
    return FederationTopology(
        clusters=(
            ClusterSpec(
                "us-west", rate_rps=rate_rps, capacity_rps=capacity_rps,
                phase_offset_s=0.0, region="us-west",
            ),
            ClusterSpec(
                "eu-central", rate_rps=rate_rps, capacity_rps=capacity_rps,
                phase_offset_s=period_s / 3.0, region="eu-central",
            ),
            ClusterSpec(
                "ap-south", rate_rps=rate_rps, capacity_rps=capacity_rps,
                phase_offset_s=2.0 * period_s / 3.0, region="ap-south",
            ),
        ),
        links=(
            WanLink("us-west", "eu-central", latency_s=0.07, bandwidth_mbps=200.0),
            WanLink("eu-central", "ap-south", latency_s=0.09, bandwidth_mbps=150.0),
            WanLink("us-west", "ap-south", latency_s=0.11, bandwidth_mbps=120.0),
        ),
    )


def study_fault_plans(
    scenario: str, duration_s: float = STUDY_DURATION_S
) -> Dict[str, FaultPlan]:
    """Per-cluster fault plans for a scenario key (empty when healthy)."""
    if scenario == "offset-diurnal":
        return {}
    if scenario == "regional-outage":
        start = STUDY_OUTAGE_WINDOW[0] * duration_s
        end = STUDY_OUTAGE_WINDOW[1] * duration_s
        return {
            STUDY_OUTAGE_CLUSTER: FaultPlan.ordered(
                regional_outage(
                    STUDY_OUTAGE_DEVICES, start, end, region=STUDY_OUTAGE_CLUSTER
                )
            )
        }
    raise ValueError(
        f"unknown federation scenario {scenario!r}; expected one of "
        f"{FEDERATION_SCENARIOS}"
    )


def study_runtime(
    *,
    spillover: bool,
    duration_s: float = STUDY_DURATION_S,
    rate_rps: float = STUDY_RATE_RPS,
    capacity_rps: float = STUDY_CAPACITY_RPS,
) -> FederationRuntime:
    """A study-configured :class:`FederationRuntime` (admission off: the
    router and the queues, not arrival-time shedding, absorb overload)."""
    return FederationRuntime(
        study_topology(rate_rps, capacity_rps, STUDY_PERIOD_S * duration_s / STUDY_DURATION_S),
        duration_s=duration_s,
        workload_kind="diurnal",
        diurnal_period_s=STUDY_PERIOD_S * duration_s / STUDY_DURATION_S,
        diurnal_amplitude=STUDY_AMPLITUDE,
        slo=SLOPolicy(admission=False),
        spillover=spillover,
    )


def run_federation_study(
    duration_s: float = STUDY_DURATION_S,
    seed: int = STUDY_SEED,
    *,
    parallel: bool = False,
) -> List[Tuple[str, str, "object"]]:
    """Run every (scenario, mode) cell of the study.

    Returns ``[(scenario, mode key, FederationReport), ...]`` in
    scenario-major, :data:`FEDERATION_MODES`-minor order.  Every report
    has already passed the cross-cluster conservation contract (the merge
    raises otherwise).
    """
    out: List[Tuple[str, str, object]] = []
    for scenario in FEDERATION_SCENARIOS:
        plans = study_fault_plans(scenario, duration_s)
        for key, _ in FEDERATION_MODES:
            runtime = study_runtime(spillover=(key == "spillover"), duration_s=duration_s)
            out.append(
                (scenario, key, runtime.run(seed, fault_plans=plans, parallel=parallel))
            )
    return out


@dataclass(frozen=True)
class FederationRow:
    """One (scenario, mode) cell of the study."""

    scenario: str
    mode: str
    goodput_rps: float
    p50_s: float
    p95_s: float
    completed: int
    forwarded: int
    rejected: int
    timed_out: int
    slo_attainment: float


def federation_rows(reports) -> List[FederationRow]:
    """Digest ``run_federation_study`` output into display rows."""
    labels = dict(FEDERATION_MODES)
    return [
        FederationRow(
            scenario=scenario,
            mode=labels[key],
            goodput_rps=report.goodput_rps,
            p50_s=report.latency.p50,
            p95_s=report.latency.p95,
            completed=report.completed,
            forwarded=report.forwarded,
            rejected=report.rejected,
            timed_out=report.timed_out,
            slo_attainment=report.slo_attainment,
        )
        for scenario, key, report in reports
    ]


def render_federation(
    duration_s: float = STUDY_DURATION_S,
    seed: int = STUDY_SEED,
    *,
    parallel: bool = False,
) -> str:
    """Render the study (the ``python -m repro federation --study`` artifact)."""
    rows = federation_rows(run_federation_study(duration_s, seed, parallel=parallel))
    table = ExperimentTable(
        f"WAN federation: spillover vs isolated clusters (3 clusters, diurnal "
        f"{STUDY_RATE_RPS:g} rps nominal each, {duration_s:g} s, seed {seed})",
        [
            "scenario", "mode", "goodput (req/s)", "p50 (s)", "p95 (s)",
            "completed", "forwarded", "rejected", "timed out", "SLO att.",
        ],
    )
    for row in rows:
        table.add_row(
            row.scenario, row.mode, row.goodput_rps, row.p50_s, row.p95_s,
            row.completed, row.forwarded, row.rejected, row.timed_out,
            row.slo_attainment,
        )
    table.add_note(
        "clusters peak a third of a period apart (three timezones); "
        f"regional-outage fails {'+'.join(STUDY_OUTAGE_DEVICES)} in "
        f"{STUDY_OUTAGE_CLUSTER} for the middle half of the run"
    )
    table.add_note(
        "latencies are end-to-end: serving latency plus WAN forward+return "
        "for forwarded requests; conservation (per cluster and across the "
        "WAN) is enforced by the merge on every run"
    )
    return table.render()
