"""Solver-vs-serving cross-validation of the queue-aware placement model.

The queue-aware objective (``optimal_placement(congestion=...)``) claims to
predict what the serving runtime measures under load.  This experiment
closes the loop: for each arrival rate it builds one bursty trace, plans
two deployments on the paper's edge testbed — **queue-aware** (the exact
solver pricing M/G/1-style expected waits from the trace's measured
arrival rates) and **queue-blind** (the same exact solver without the wait
term) — then replays the *identical* trace through the flat serving engine
on each and compares:

- **predicted vs measured** — per-arrival predicted latency (base Eq. 1-3
  class value plus the routed hosts' expected waits, seconds) against the
  serving-measured completion latencies, summarized with the same
  mean/p95 convention (:func:`~repro.cluster.metrics.summarize_latencies`);
- **aware vs blind** — serving-measured p95 and goodput across the two
  placements.

Two gates (recorded into ``BENCH_validation.json`` by
``scripts/run_benchmarks.py``, asserted by ``tests/test_study_gates.py``):

a. On **sub-saturation** rows the predicted mean and p95 must track the
   measured ones within the tolerance band (ratio in ``[0.5, 2.0]`` by
   default).  The wait model is *steady-state* M/G/1 with utilization
   clamped at ``rho_max``; past saturation the true queue grows without
   bound over the arrival window and no steady-state figure can track a
   horizon-truncated measurement, so overload rows are excluded from this
   gate by design (see ``docs/performance.md`` for the band rationale).
b. On the **overload** row the queue-aware placement must beat the
   queue-blind one on serving-measured p95 or goodput — the whole point
   of pricing congestion into the solver.

Admission is off (everything must be served) and both arms are single-copy
(``replicate=False``), so measured differences come from the solver's
placement choice alone.  Run with ``python -m repro validation``.
All latencies are **seconds** of simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.metrics import summarize_latencies
from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.optimal import optimal_placement
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.placement.tensors import CongestionModel
from repro.core.routing.latency import LatencyModel
from repro.experiments.reporting import ExperimentTable

#: Model mix (three tasks sharing the ViT-B/16 tower) — the serving studies'
#: standard workload.
STUDY_MODELS = ("clip-vit-b16", "encoder-vqa-small", "image-classification-vitb16")

#: Default sweep: two sub-saturation rates the steady-state wait model can
#: track, plus one far-past-saturation rate where placements must separate.
DEFAULT_RATES = (0.1, 0.3, 4.0)

#: Default predicted/measured ratio band for the sub-saturation rows.
DEFAULT_TOLERANCE = (0.5, 2.0)

#: Requests originate at the testbed requester (it holds the input data).
_SOURCE = "jetson-a"


@dataclass(frozen=True)
class ValidationArm:
    """One placement arm (queue-aware or queue-blind) at one rate."""

    placement: Dict[str, Tuple[str, ...]]
    predicted_mean_s: float
    predicted_p95_s: float
    measured_mean_s: float
    measured_p95_s: float
    goodput_rps: float
    completed: int


@dataclass(frozen=True)
class ValidationRow:
    """One arrival rate: both arms served on the identical trace."""

    rate_rps: float
    overload: bool
    arrivals: int
    aware: ValidationArm
    blind: ValidationArm
    #: Aware-arm predicted/measured ratios (None when nothing completed).
    mean_ratio: Optional[float]
    p95_ratio: Optional[float]
    #: Tolerance verdict — None on overload rows (excluded by design).
    within_tolerance: Optional[bool]

    @property
    def aware_beats_blind(self) -> bool:
        """Strictly better on measured p95 or goodput."""
        return (
            self.aware.measured_p95_s < self.blind.measured_p95_s
            or self.aware.goodput_rps > self.blind.goodput_rps
        )


@dataclass(frozen=True)
class ValidationStudy:
    """The full sweep plus its gate verdicts."""

    kind: str
    duration_s: float
    seed: int
    models: Tuple[str, ...]
    tolerance: Tuple[float, float]
    rows: Tuple[ValidationRow, ...]

    @property
    def tolerance_ok(self) -> bool:
        """Gate (a): every gated sub-saturation row inside the band."""
        return all(row.within_tolerance is not False for row in self.rows)

    @property
    def aware_beats_blind_at_overload(self) -> bool:
        """Gate (b): the aware placement wins every overload row."""
        overload = [row for row in self.rows if row.overload]
        return bool(overload) and all(row.aware_beats_blind for row in overload)

    def as_dict(self) -> Dict[str, object]:
        """The ``BENCH_validation.json`` payload (schema: docs/performance.md)."""

        def arm(a: ValidationArm) -> Dict[str, object]:
            return {
                "placement": {name: list(hosts) for name, hosts in sorted(a.placement.items())},
                "predicted_mean_s": a.predicted_mean_s,
                "predicted_p95_s": a.predicted_p95_s,
                "measured_mean_s": a.measured_mean_s,
                "measured_p95_s": a.measured_p95_s,
                "goodput_rps": a.goodput_rps,
                "completed": a.completed,
            }

        return {
            "workload": {
                "kind": self.kind,
                "duration_s": self.duration_s,
                "seed": self.seed,
                "models": list(self.models),
            },
            "tolerance": {"low": self.tolerance[0], "high": self.tolerance[1]},
            "rows": [
                {
                    "rate_rps": row.rate_rps,
                    "overload": row.overload,
                    "arrivals": row.arrivals,
                    "aware": arm(row.aware),
                    "blind": arm(row.blind),
                    "mean_ratio": row.mean_ratio,
                    "p95_ratio": row.p95_ratio,
                    "within_tolerance": row.within_tolerance,
                    "aware_beats_blind": row.aware_beats_blind,
                }
                for row in self.rows
            ],
            "gates": {
                "tolerance_ok": self.tolerance_ok,
                "aware_beats_blind_at_overload": self.aware_beats_blind_at_overload,
            },
        }


def _solver_requests(problem: PlacementProblem) -> List[InferenceRequest]:
    """One scoring request per deployed model, from the testbed requester.

    ``request_id=-1`` keeps solver-only requests from bumping the global
    request counter (bit-identity of served ids across configurations).
    """
    return [
        InferenceRequest(model=spec, source=_SOURCE, request_id=-1)
        for spec in problem.models
    ]


def queue_blind_planner(problem: PlacementProblem) -> Placement:
    """The queue-blind exact baseline: same solver, no wait term.

    ``build_testbed`` clusters use a default :class:`Network`, so pricing
    with ``Network()`` here matches the in-cluster pricing the
    ``congestion_aware`` path performs for the other arm.
    """
    placement, _ = optimal_placement(problem, _solver_requests(problem), network=Network())
    return placement


def predicted_latencies(
    problem: PlacementProblem,
    placement: Placement,
    congestion: CongestionModel,
    trace,
) -> List[float]:
    """Per-arrival predicted latency (seconds) on a single-copy placement.

    Each arrival is predicted at its model's queue-aware class value: the
    base Eq. 1-3 latency plus the expected wait of every member module's
    host — exactly the quantity the queue-aware solver minimizes.
    """
    model = LatencyModel(problem, Network())
    requests = _solver_requests(problem)
    waits = model.congestion_waits(requests, placement, congestion)
    by_model: Dict[str, float] = {}
    for spec, request in zip(problem.models, requests):
        base = model.objective([request], placement)
        surcharge = 0.0
        for name in dict.fromkeys(spec.module_names):  # distinct members, in order
            surcharge += waits[placement.hosts(name)[0]]
        by_model[spec.name] = base + surcharge
    return [by_model[name] for name in trace.model_names]


def run_validation(
    models: Sequence[str] = STUDY_MODELS,
    rates: Sequence[float] = DEFAULT_RATES,
    kind: str = "bursty",
    duration_s: float = 40.0,
    seed: int = 7,
    tolerance: Tuple[float, float] = DEFAULT_TOLERANCE,
    overload_rate: float = 1.0,
) -> ValidationStudy:
    """Run the sweep: one trace per rate, both arms, predicted vs measured.

    Rates at or above ``overload_rate`` are overload rows: exempt from the
    tolerance gate (steady-state model scope), subject to the
    aware-beats-blind gate instead.
    """
    from repro.cluster.topology import build_testbed
    from repro.core.engine import S2M3Engine
    from repro.serving import ServingRuntime, SLOPolicy, WorkloadGenerator

    if not rates:
        raise ValueError("need at least one arrival rate to validate against")
    lo, hi = tolerance
    if not 0.0 < lo < hi:
        raise ValueError(f"tolerance must satisfy 0 < low < high, got {tolerance}")

    model_list = list(models)
    # The planning problem is identical across rates (same models, same
    # testbed); build it once for predictions.
    problem = S2M3Engine(build_testbed(), model_list).problem

    rows: List[ValidationRow] = []
    for rate in rates:
        trace = WorkloadGenerator(
            model_list, kind=kind, rate_rps=rate, duration_s=duration_s, seed=seed
        ).generate()
        congestion = CongestionModel.from_trace(trace)
        overload = rate >= overload_rate

        arms: Dict[str, ValidationArm] = {}
        for arm_key in ("aware", "blind"):
            kwargs = (
                dict(congestion_aware=True)
                if arm_key == "aware"
                else dict(placement_algorithm=queue_blind_planner)
            )
            runtime = ServingRuntime(
                model_list,
                slo=SLOPolicy(admission=False),
                replicate=False,
                **kwargs,
            )
            report = runtime.run(trace)
            placement = (
                optimal_placement(
                    problem,
                    _solver_requests(problem),
                    network=Network(),
                    congestion=congestion if arm_key == "aware" else None,
                )[0]
            )
            predicted = summarize_latencies(
                predicted_latencies(problem, placement, congestion, trace)
            )
            arms[arm_key] = ValidationArm(
                placement=dict(placement.as_dict()),
                predicted_mean_s=predicted.mean,
                predicted_p95_s=predicted.p95,
                measured_mean_s=report.latency.mean,
                measured_p95_s=report.latency.p95,
                goodput_rps=report.goodput_rps,
                completed=report.completed,
            )

        aware = arms["aware"]
        if aware.completed > 0 and aware.measured_mean_s > 0 and aware.measured_p95_s > 0:
            mean_ratio: Optional[float] = aware.predicted_mean_s / aware.measured_mean_s
            p95_ratio: Optional[float] = aware.predicted_p95_s / aware.measured_p95_s
        else:
            mean_ratio = p95_ratio = None
        if overload or mean_ratio is None:
            within: Optional[bool] = None
        else:
            within = lo <= mean_ratio <= hi and lo <= p95_ratio <= hi
        rows.append(
            ValidationRow(
                rate_rps=float(rate),
                overload=overload,
                arrivals=len(trace),
                aware=aware,
                blind=arms["blind"],
                mean_ratio=mean_ratio,
                p95_ratio=p95_ratio,
                within_tolerance=within,
            )
        )

    return ValidationStudy(
        kind=kind,
        duration_s=float(duration_s),
        seed=int(seed),
        models=tuple(model_list),
        tolerance=(float(lo), float(hi)),
        rows=tuple(rows),
    )


def render_validation() -> str:
    """Render the sweep (the ``python -m repro validation`` artifact)."""
    study = run_validation()
    table = ExperimentTable(
        f"Solver-vs-serving validation ({study.kind}, {study.duration_s:g} s, "
        f"seed {study.seed}, admission off, single-copy arms)",
        [
            "rate (rps)", "overload", "arm", "pred mean (s)", "pred p95 (s)",
            "meas mean (s)", "meas p95 (s)", "goodput (rps)",
        ],
    )
    for row in study.rows:
        for key, arm in (("aware", row.aware), ("blind", row.blind)):
            table.add_row(
                row.rate_rps,
                "yes" if row.overload else "no",
                key,
                round(arm.predicted_mean_s, 3),
                round(arm.predicted_p95_s, 3),
                round(arm.measured_mean_s, 3),
                round(arm.measured_p95_s, 3),
                round(arm.goodput_rps, 3),
            )
    lo, hi = study.tolerance
    table.add_note(
        f"gate (a) tolerance [{lo:g}, {hi:g}] on sub-saturation rows: "
        + ("PASS" if study.tolerance_ok else "FAIL")
    )
    table.add_note(
        "gate (b) aware beats blind (measured p95 or goodput) at overload: "
        + ("PASS" if study.aware_beats_blind_at_overload else "FAIL")
    )
    table.add_note(
        "overload rows are exempt from gate (a): the wait model is steady-"
        "state M/G/1; past saturation the measured transient depends on the "
        "horizon (docs/performance.md)"
    )
    return table.render()
