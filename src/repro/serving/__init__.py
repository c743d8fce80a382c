"""Online serving runtime: dynamic workloads, SLOs, faults, degradation.

The batch experiments evaluate one-shot request sets; this package serves
*streams*.  Compose it from five pieces:

- :class:`WorkloadGenerator` / :class:`ArrivalTrace` — seeded Poisson,
  bursty (MMPP), and diurnal arrival processes over the model catalog.
- :class:`SLOPolicy` — per-request deadlines and admission control.
- :class:`FaultPlan` / :func:`fault_scenario` — typed, seeded fault
  injection, the runtime's one fault input: device crash/recover
  (including seeded :func:`generate_churn` streams), straggler
  slowdowns, link degradation/cuts, and correlated regional outages.
- :class:`RetryPolicy` / :class:`BrownoutPolicy` — graceful degradation:
  per-attempt timeouts with a bounded retry budget (exhausted requests
  terminate as *timed out*, the report's third terminal state), and
  backlog-pressure admission tiering that sheds the lowest-SLO-slack model
  classes first.
- :class:`ServingRuntime` — drives the serving run with queue-aware
  routing, per-(module, device) micro-batching, SLO admission, and adaptive
  re-placement under faults; returns a :class:`ServingReport` with
  p50/p95/p99 latency, goodput, and SLO attainment.  The run is one
  :class:`FlatServingEngine` event loop; :meth:`ServingReport.digest`
  hashes a whole report, and ``tests/golden/serving_digests.json`` pins
  the digests of a grid of configs, ties and fault schedules.

Quickstart::

    from repro.serving import (
        BrownoutPolicy, RetryPolicy, ServingRuntime, WorkloadGenerator,
        fault_scenario,
    )

    models = ["clip-vit-b16", "encoder-vqa-small"]
    trace = WorkloadGenerator(models, kind="bursty", rate_rps=0.4,
                              duration_s=60.0, seed=0).generate()
    plan = fault_scenario("regional-outage", duration_s=60.0, seed=0)
    runtime = ServingRuntime(
        models,
        retry=RetryPolicy(timeout_s=8.0, max_retries=4),
        brownout=BrownoutPolicy(),
    )
    report = runtime.run(trace, faults=plan)
    print(report.render())
"""

from repro.serving.engine import FlatServingEngine
from repro.serving.faults import (
    FAIL,
    RECOVER,
    BrownoutPolicy,
    FaultEvent,
    FaultPlan,
    crash,
    degrade_link,
    generate_churn,
    regional_outage,
    slowdown,
)
from repro.serving.report import (
    BrownoutRecord,
    ChurnRecord,
    DeviceEnergy,
    EnergyReport,
    MigrationRecord,
    RequestRecord,
    ScalingRecord,
    ServingReport,
)
from repro.serving.runtime import ServingRuntime
from repro.serving.scenarios import fault_scenario, scenario_names
from repro.serving.slo import RetryPolicy, SLOPolicy
from repro.serving.workload import WORKLOAD_KINDS, Arrival, ArrivalTrace, WorkloadGenerator

__all__ = [
    "Arrival",
    "ArrivalTrace",
    "BrownoutPolicy",
    "BrownoutRecord",
    "ChurnRecord",
    "DeviceEnergy",
    "EnergyReport",
    "FAIL",
    "FaultEvent",
    "FaultPlan",
    "FlatServingEngine",
    "RECOVER",
    "MigrationRecord",
    "RequestRecord",
    "RetryPolicy",
    "ScalingRecord",
    "SLOPolicy",
    "ServingReport",
    "ServingRuntime",
    "WORKLOAD_KINDS",
    "WorkloadGenerator",
    "crash",
    "degrade_link",
    "fault_scenario",
    "generate_churn",
    "regional_outage",
    "scenario_names",
    "slowdown",
]
