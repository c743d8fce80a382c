"""Resilience study: fault scenarios with and without graceful degradation.

Beyond the paper (which assumes a healthy pool), this study drives the
serving runtime through the named fault scenarios in
:mod:`repro.serving.scenarios` — a correlated regional outage, staggered
compute stragglers, and flaky/partitioning links — and compares two
configurations on the same seeded workload and fault schedule:

- **baseline** — faults injected, degradation machinery off: no attempt
  timeouts (unlimited silent retries on device loss) and no brownout, so
  doomed requests wait out the outage and drag tail latency.
- **graceful** — per-attempt timeouts with a bounded retry budget
  (:class:`~repro.serving.slo.RetryPolicy`: exhausted requests terminate
  as *timed out* instead of clogging queues) plus the brownout controller
  (:class:`~repro.serving.faults.BrownoutPolicy`: under backlog pressure,
  shed the lowest-SLO-slack model classes first).

Run with ``python -m repro resilience``.  ``scripts/run_benchmarks.py``
records the SAME study into ``BENCH_resilience.json``, and
``tests/test_study_gates.py`` asserts its conservation, graceful-wins and
determinism gates, so there is exactly one definition to drift.  All
latencies are **seconds** of simulated time; goodput is SLO-met
completions per second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments.reporting import ExperimentTable
from repro.serving.faults import BrownoutPolicy
from repro.serving.slo import RetryPolicy

#: Model mix shared with the replica study: three tasks, one shared tower.
STUDY_MODELS = ("clip-vit-b16", "encoder-vqa-small", "image-classification-vitb16")

#: Workload under study: a bursty stream the healthy four-device pool can
#: absorb (strained but stable), so the backlog each scenario builds is
#: attributable to the injected faults rather than to raw overload.
STUDY_RATE_RPS = 0.6
STUDY_DURATION_S = 40.0
STUDY_SEED = 7

#: The degradation configurations under study: (key, display label,
#: runtime kwargs).  ``tests/test_study_gates.py`` compares ``graceful``
#: against ``baseline`` row by row, so keep exactly these two keys.
RESILIENCE_CONFIGURATIONS = (
    ("baseline", "degradation off", {}),
    (
        "graceful",
        "timeouts + retry budget + brownout",
        {
            "retry": RetryPolicy(timeout_s=6.0, max_retries=3, backoff_s=0.05),
            "brownout": BrownoutPolicy(interval_s=0.5, high_backlog_s=1.5, low_backlog_s=0.5),
        },
    ),
)


@dataclass(frozen=True)
class ResilienceRow:
    """One (scenario, configuration) cell of the study."""

    scenario: str
    configuration: str
    goodput_rps: float
    p50_s: float
    p95_s: float
    completed: int
    rejected: int
    timed_out: int
    brownout_changes: int


def run_resilience_study(
    scenarios: Sequence[str] = (),
    models: Sequence[str] = STUDY_MODELS,
    rate_rps: float = STUDY_RATE_RPS,
    duration_s: float = STUDY_DURATION_S,
    seed: int = STUDY_SEED,
) -> List[Tuple[str, str, "object"]]:
    """Serve one seeded bursty stream under every (scenario, config) pair.

    Returns ``[(scenario name, configuration key, ServingReport), ...]``
    in scenario-major, :data:`RESILIENCE_CONFIGURATIONS`-minor order.
    Admission is off (everything is either served, shed by brownout, or
    timed out); the runtime itself enforces the widened conservation
    invariant ``completed + rejected + timed_out == arrivals`` on every
    run.
    """
    from repro.serving import (
        ServingRuntime,
        SLOPolicy,
        WorkloadGenerator,
        fault_scenario,
        scenario_names,
    )

    names = list(scenarios) if scenarios else scenario_names()
    trace = WorkloadGenerator(
        list(models), kind="bursty", rate_rps=rate_rps, duration_s=duration_s, seed=seed
    ).generate()
    out: List[Tuple[str, str, object]] = []
    for name in names:
        plan = fault_scenario(name, duration_s=duration_s, seed=seed)
        for key, _, kwargs in RESILIENCE_CONFIGURATIONS:
            # Admission off: arrival-time shedding would hide the backlog
            # the degradation machinery exists to manage, so the brownout
            # controller and the retry budget are the only relief valves.
            runtime = ServingRuntime(list(models), slo=SLOPolicy(admission=False), **kwargs)
            out.append((name, key, runtime.run(trace, faults=plan)))
    return out


def resilience_rows(reports) -> List[ResilienceRow]:
    """Digest ``run_resilience_study`` output into display rows."""
    labels = {key: label for key, label, _ in RESILIENCE_CONFIGURATIONS}
    return [
        ResilienceRow(
            scenario=scenario,
            configuration=labels[key],
            goodput_rps=report.goodput_rps,
            p50_s=report.latency.p50,
            p95_s=report.latency.p95,
            completed=report.completed,
            rejected=report.rejected,
            timed_out=report.timed_out,
            brownout_changes=len(report.brownout),
        )
        for scenario, key, report in reports
    ]


def render_resilience() -> str:
    """Render the study (the ``python -m repro resilience`` artifact)."""
    rows = resilience_rows(run_resilience_study())
    table = ExperimentTable(
        f"Serving under fault scenarios (bursty {STUDY_RATE_RPS:g} rps nominal, "
        f"{STUDY_DURATION_S:g} s, seed {STUDY_SEED})",
        [
            "scenario", "configuration", "goodput (req/s)", "p50 (s)", "p95 (s)",
            "completed", "rejected", "timed out", "brownout",
        ],
    )
    for row in rows:
        table.add_row(
            row.scenario, row.configuration, row.goodput_rps, row.p50_s, row.p95_s,
            row.completed, row.rejected, row.timed_out, row.brownout_changes,
        )
    table.add_note(
        "baseline retries device losses silently and never times out; "
        "graceful = RetryPolicy(timeout 6 s, 3 retries, 50 ms backoff) "
        "+ BrownoutPolicy(0.5 s tick, shed above 1.5 s backlog/slot)"
    )
    table.add_note(
        "conservation (completed + rejected + timed out == arrivals) is "
        "enforced by the runtime on every run"
    )
    return table.render()
