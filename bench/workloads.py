"""The benchmark's four workloads: inputs from a seed, a timed call, checks.

Every workload is built from ``(seed, scale)`` alone and hands the program
only the generated inputs.  Its timed call does the same work every time it
is repeated, and each repetition's output must equal the first one's.

The serving workloads are offline replays: arrivals are open-loop in
*simulated* time, and the harness is a batch job in wall time, so there is
no generator lateness to report.

- ``steady`` — the data plane: about half the arrivals complete, with ~11
  event-loop entries each (encoder sends, micro-batch servers, the heap).
- ``overload`` — admission: ~97% of arrivals are rejected, so admission
  pricing memos and ``push_at`` dominate while the servers idle.  Its
  request columns are the largest, so it is also the memory workload.
- ``faults`` — the control plane: periodic regional outages, stragglers and
  a degraded uplink drive migrations, autoscaling, brownout and retry
  watchdogs on a light data plane.
- ``solve`` — the exact solvers alone, with no serving or ``sim``: one
  pass over a seeded set of small instances.  Solve time per instance is
  heavy-tailed (one 8x16 latency instance in 200 took 7.6 s against a
  0.02 s median), so only a sum over many small instances is steady from
  seed to seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.core.placement as placement_api
from repro.core.placement.bnb import BnBStats
from repro.core.placement.optimal import energy_optimal_placement, optimal_placement
from repro.core.routing.latency import LatencyModel
from repro.experiments.scaling import ScalingInstance, synthetic_instance
from repro.serving import (
    BrownoutPolicy,
    FaultPlan,
    RetryPolicy,
    ServingReport,
    ServingRuntime,
    SLOPolicy,
    WorkloadGenerator,
    degrade_link,
    regional_outage,
    slowdown,
)

#: Smoke runs shrink durations and instance counts by this factor.
SMOKE_SCALE = 1.0 / 50.0

TWO_MODELS = ("clip-vit-b16", "encoder-vqa-small")
THREE_MODELS = TWO_MODELS + ("image-classification-vitb16",)


def _digest(payload: object) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


class Workload:
    """Inputs plus the timed call; subclasses define the call and checks.

    ``ops`` is the operations one call performs, ``generate_s`` the input
    generation time, ``digest`` the first call's output digest and ``sim``
    its simulated outcome (empty for the solvers).

    ``attempted`` and ``failed`` count operations over the run.  A
    simulated rejection or time-out is the replay's correct output, not a
    failure of the benchmarked program: an operation fails only when a
    check on its output fails (an arrival the report lost, a solver result
    that breaks its bound, an output that differs between repetitions).
    """

    ops: int
    generate_s: float

    def __init__(self) -> None:
        self.digest: Optional[str] = None
        self.sim: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def _count(self, attempted: int, errors: List[str], failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        # Enough to diagnose; a systematic failure would repeat per call.
        self.errors += errors[: max(0, 20 - len(self.errors))]

    def call(self) -> Callable:
        raise NotImplementedError

    def outcome(self, output) -> Tuple[str, List[str], int]:
        """(digest, check errors, failed operations) of one call's output."""
        raise NotImplementedError

    def summary(self, output) -> Dict[str, float]:
        return {}

    def layer_counts(self, output) -> Dict[str, int]:
        """Counts the program reports itself, for the per-layer table."""
        raise NotImplementedError

    def record(self, i: int, output) -> None:
        """Check call ``i``'s output; every call must reproduce the first."""
        digest, errors, failed = self.outcome(output)
        if self.digest is None:
            self.digest, self.sim = digest, self.summary(output)
        elif digest != self.digest:
            errors.append(f"call {i} digest {digest} != first {self.digest}")
            failed = max(failed, 1)
        self._count(self.ops, errors, failed)

    def run_checks(self) -> None:
        """Checks made once per run, outside the timing."""


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingSpec:
    """One replay: an arrival process plus the runtime that serves it."""

    kind: str
    rate_rps: float
    duration_s: float
    models: Tuple[str, ...]
    runtime: Dict[str, object] = field(default_factory=dict)
    faults: bool = False


# Durations are sized so one replay takes ~0.5-1 s on a 2-core x86 VM:
# many short calls per run give the fastest-call estimate more chances to
# land in a quiet moment of a shared host.
SERVING: Dict[str, ServingSpec] = {
    "steady": ServingSpec("poisson", 2.0, 10_000.0, TWO_MODELS),
    "overload": ServingSpec("poisson", 40.0, 2_500.0, TWO_MODELS),
    "faults": ServingSpec(
        "bursty", 0.6, 8_000.0, THREE_MODELS,
        runtime=dict(
            slo=SLOPolicy(admission=False),
            retry=RetryPolicy(timeout_s=6.0, max_retries=3, backoff_s=0.05),
            brownout=BrownoutPolicy(interval_s=0.5, high_backlog_s=1.5, low_backlog_s=0.5),
            autoscale=True,
            batch_window_s=0.05,
        ),
        faults=True,
    ),
}

#: The fault plan repeats every period; each period holds three windows
#: whose onsets are jittered from the seed within their slot.
FAULT_PERIOD_S = 200.0
FAULT_WINDOW_S = 40.0
FAULT_JITTER_S = 20.0


def fault_plan(duration_s: float, seed: int) -> FaultPlan:
    """Whole periods of: a desktop + jetson-b outage, a x3 laptop
    straggler, and the laptop uplink at 10% bandwidth."""
    rng = np.random.default_rng(seed)
    events = []
    start = 0.0
    while start + FAULT_PERIOD_S <= duration_s:
        outage, slow, link = start + rng.uniform(0.0, FAULT_JITTER_S, size=3) + (0.0, 60.0, 120.0)
        events += regional_outage(
            ("desktop", "jetson-b"), float(outage), float(outage) + FAULT_WINDOW_S,
            region="wired-pan",
        )
        events += slowdown("laptop", 3.0, float(slow), float(slow) + FAULT_WINDOW_S)
        events += degrade_link(
            "laptop", "pan-router", 0.1, float(link), float(link) + FAULT_WINDOW_S
        )
        start += FAULT_PERIOD_S
    return FaultPlan.ordered(events)


class ServingWorkload(Workload):
    """A replay: the timed call is one ``ServingRuntime.run``."""

    def __init__(self, name: str, seed: int, scale: float = 1.0) -> None:
        super().__init__()
        spec = SERVING[name]
        duration_s = spec.duration_s * scale
        if spec.faults:
            duration_s = max(duration_s, FAULT_PERIOD_S)  # a smoke run keeps one period
        start = time.perf_counter()
        self.trace = WorkloadGenerator(
            list(spec.models), kind=spec.kind, rate_rps=spec.rate_rps,
            duration_s=duration_s, seed=seed,
        ).generate()
        self.plan = fault_plan(duration_s, seed) if spec.faults else None
        self.generate_s = time.perf_counter() - start
        self.ops = len(self.trace)
        self.runtime = ServingRuntime(list(spec.models), keep_records=False, **spec.runtime)

    def call(self) -> Callable[[], ServingReport]:
        return partial(self.runtime.run, self.trace, faults=self.plan)

    def outcome(self, report: ServingReport) -> Tuple[str, List[str], int]:
        """The digest hashes the headline metrics and every control-plane
        log; the check is conservation."""
        digest = _digest(
            (report.metrics_tuple(), report.migrations, report.churn,
             report.scaling, report.brownout)
        )
        settled = report.completed + report.rejected + report.timed_out
        lost = abs(report.arrivals - settled)
        errors = [f"conservation: {settled} settled != {report.arrivals} arrivals"] if lost else []
        return digest, errors, lost

    def summary(self, report: ServingReport) -> Dict[str, float]:
        """The simulated outcome (deterministic per seed)."""
        return {
            "arrivals": report.arrivals,
            "completed": report.completed,
            "rejected": report.rejected,
            "timed_out": report.timed_out,
            "sim_goodput_rps": report.goodput_rps,
            "sim_p50_s": report.latency.p50,
            "sim_p99_s": report.latency.p99,
            "sim_drop_frac": (report.rejected + report.timed_out) / report.arrivals,
            "migrations": len(report.migrations),
            "scaling_records": len(report.scaling),
            "brownout_changes": len(report.brownout),
        }

    def layer_counts(self, report: ServingReport) -> Dict[str, int]:
        return {"arrivals": report.arrivals}


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------
#: Instance shapes (modules x devices).  Larger shapes are heavy-tailed:
#: 8x16, 10x24 and 5x6-replica instances took 7-400 s on some seeds.  At
#: these shapes per-instance time varies by ~30% (single) and ~20%
#: (replica) around its mean, so a set of SET_SIZE sums to within ~2%.
SINGLE_SHAPE = (4, 8)
REPLICA_SHAPE = (2, 6)
REPLICA_COPIES = 2
ENERGY_BUDGET = 1.5  # x the greedy placement's latency
SET_SIZE = 160
#: bnb == brute oracles, solved once per run outside the timing.
ORACLE_SHAPE = (4, 5)
ORACLE_REPLICA_SHAPE = (3, 4)


def instance_seed(seed: int, i: int) -> int:
    """Instance ``i`` of the set for workload seed ``seed``."""
    return 1_000_000 * seed + i + 1


@dataclass
class SolveResult:
    """One instance's solver outputs (placements as host dicts)."""

    placement: dict
    objective: float
    greedy_objective: float
    bnb: BnBStats
    budget: float
    energy_placement: Optional[dict]
    joules: float
    energy_bnb: BnBStats
    replica_placement: Optional[dict] = None
    replica_objective: float = float("nan")
    # Kept for the checks, which price placements with the same models.
    models: Tuple[LatencyModel, ...] = field(repr=False, default=())
    requests: Tuple[list, ...] = field(repr=False, default=())

    def key(self) -> tuple:
        """Everything the digest covers (no model objects)."""
        return (
            sorted(self.placement.items()), self.objective, self.bnb,
            sorted((self.energy_placement or {}).items()), self.joules, self.energy_bnb,
            sorted((self.replica_placement or {}).items()), self.replica_objective,
        )


def solve_single(instance: ScalingInstance) -> SolveResult:
    """Latency bnb, greedy, then energy bnb within 1.5x greedy latency."""
    requests = list(instance.requests)
    model = LatencyModel(instance.problem, instance.network)
    stats = BnBStats()
    placement, objective = placement_api.branch_and_bound_placement(
        instance.problem, requests, instance.network, tensors=model.tensors, stats=stats
    )
    greedy = placement_api.greedy_placement(instance.problem)
    greedy_objective = model.objective(requests, greedy)
    budget = ENERGY_BUDGET * greedy_objective
    energy_stats = BnBStats()
    energy_placement, joules = placement_api.energy_branch_and_bound(
        instance.problem, requests, instance.network, latency_budget=budget,
        tensors=model.tensors, stats=energy_stats,
    )
    return SolveResult(
        placement=placement.as_dict(), objective=objective,
        greedy_objective=greedy_objective, bnb=stats, budget=budget,
        energy_placement=energy_placement.as_dict() if energy_placement else None,
        joules=joules, energy_bnb=energy_stats,
        models=(model,), requests=(requests,),
    )


def solve_instance(single: ScalingInstance, replica: ScalingInstance) -> SolveResult:
    """One single-copy instance (latency, energy) and one replica instance."""
    result = solve_single(single)
    requests = list(replica.requests)
    model = LatencyModel(replica.problem, replica.network)
    placement, objective = placement_api.replica_branch_and_bound(
        replica.problem, requests, replica.network, max_copies=REPLICA_COPIES,
        tensors=model.tensors,
    )
    result.replica_placement = placement.as_dict()
    result.replica_objective = objective
    result.models += (model,)
    result.requests += (requests,)
    return result


def solve_set(pairs: List[Tuple[ScalingInstance, ScalingInstance]]) -> List[SolveResult]:
    """The timed call of ``solve``: every instance pair of the set."""
    return [solve_instance(single, replica) for single, replica in pairs]


def check_solve(result: SolveResult) -> List[str]:
    """bnb <= greedy, energy placement within budget, replica bnb <= greedy.

    Greedy's own latency is within the 1.5x budget, so the energy search
    must always find a placement.
    """
    errors = []
    model, requests = result.models[0], result.requests[0]
    if not result.objective <= result.greedy_objective:
        errors.append(f"bnb objective {result.objective} > greedy {result.greedy_objective}")
    if result.energy_placement is None:
        errors.append("energy bnb found no placement, but greedy meets the budget")
    else:
        latency = model.objective(requests, placement_api.Placement(result.energy_placement))
        if not latency <= result.budget:
            errors.append(f"energy placement latency {latency} > budget {result.budget}")
    model, requests = result.models[1], result.requests[1]
    bound = model.replica_objective(requests, placement_api.greedy_placement(model.problem))
    if not result.replica_objective <= bound:
        errors.append(f"replica objective {result.replica_objective} > greedy {bound}")
    return errors


def check_oracles(seed: int) -> List[str]:
    """bnb == brute (placement and objective) on seed-derived small instances."""
    errors = []
    instance = synthetic_instance(*ORACLE_SHAPE, seed=instance_seed(seed, -1))
    requests = list(instance.requests)
    result = solve_single(instance)
    brute, brute_objective = optimal_placement(
        instance.problem, requests, instance.network, solver="brute"
    )
    if (result.placement, result.objective) != (brute.as_dict(), brute_objective):
        errors.append("latency bnb != brute on the oracle instance")
    brute_energy, brute_joules = energy_optimal_placement(
        instance.problem, requests, instance.network,
        latency_budget=result.budget, solver="brute",
    )
    brute_hosts = brute_energy.as_dict() if brute_energy is not None else None
    if (result.energy_placement, result.joules) != (brute_hosts, brute_joules):
        errors.append("energy bnb != brute on the oracle instance")
    replica = synthetic_instance(*ORACLE_REPLICA_SHAPE, seed=instance_seed(seed, -1))
    requests = list(replica.requests)
    bnb, bnb_objective = placement_api.replica_branch_and_bound(
        replica.problem, requests, replica.network, max_copies=REPLICA_COPIES
    )
    brute, brute_objective = placement_api.replica_brute_force(
        replica.problem, requests, replica.network, max_copies=REPLICA_COPIES
    )
    if (bnb.as_dict(), bnb_objective) != (brute.as_dict(), brute_objective):
        errors.append("replica bnb != brute on the oracle instance")
    return errors


class SolveWorkload(Workload):
    """The solvers: the timed call solves the seed's whole instance set."""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__()
        self.seed = seed
        self.ops = max(2, round(SET_SIZE * scale))
        start = time.perf_counter()
        self.pairs = [
            (synthetic_instance(*SINGLE_SHAPE, seed=instance_seed(seed, i)),
             synthetic_instance(*REPLICA_SHAPE, seed=instance_seed(seed, i)))
            for i in range(self.ops)
        ]
        self.generate_s = time.perf_counter() - start

    def call(self) -> Callable[[], List[SolveResult]]:
        return partial(solve_set, self.pairs)

    def outcome(self, results: List[SolveResult]) -> Tuple[str, List[str], int]:
        per_instance = [check_solve(result) for result in results]
        errors = [error for found in per_instance for error in found]
        digest = _digest([result.key() for result in results])
        return digest, errors, sum(1 for found in per_instance if found)

    def layer_counts(self, results: List[SolveResult]) -> Dict[str, int]:
        counts = {"arrivals": 0}
        for solver in ("bnb", "energy_bnb"):
            for stat in ("nodes", "leaves", "pruned"):
                counts[f"core.placement.{solver}.{stat}"] = sum(
                    getattr(getattr(result, solver), stat) for result in results
                )
        return counts

    def run_checks(self) -> None:
        """bnb == brute on the seed's oracle instances: one more operation."""
        errors = check_oracles(self.seed)
        self._count(1, errors, 1 if errors else 0)


WORKLOADS = tuple(SERVING) + ("solve",)


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Generate the inputs of workload ``name`` and construct its program."""
    if name in SERVING:
        return ServingWorkload(name, seed, scale)
    if name == "solve":
        return SolveWorkload(seed, scale)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
