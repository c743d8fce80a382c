"""Exact optimal placement — the paper's "Upper" baseline, at two scales.

``solver="brute"`` enumerates every assignment of modules to devices
(single copy each), filters memory-infeasible ones (Eq. 4d), and scores the
rest with the analytic objective (Eq. 4a) under fastest-host routing.  With
the paper's problem sizes (<= 4 modules, <= 5 devices) this is at most
5^4 = 625 evaluations, which is why the paper can report exact optimality
rates (89/95 instances).

``solver="bnb"`` (the default) runs the branch-and-bound search
in :mod:`repro.core.placement.bnb` instead: the same argmin, objective and
tie-break — property-tested bit-for-bit against brute force — but pruned by
an admissible latency bound and residual memory, so it scales far past
``MAX_ASSIGNMENTS`` (~10 modules x ~32 devices in seconds).

:func:`enumerate_placements` is the one enumeration walk behind every
brute-force oracle (latency, energy and the replica oracle in
:mod:`repro.core.placement.replicas`), and :func:`_brute_force` their one
argmin.  Candidate scoring runs on the shared cost tensors
(:mod:`repro.core.placement.tensors`) either way.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.problem import Placement, PlacementProblem
from repro.utils.checks import is_count
from repro.utils.errors import PlacementError

#: Safety cap on the enumeration size; beyond it, brute force is not the tool.
MAX_ASSIGNMENTS = 2_000_000

#: Accepted ``solver`` values for every exact-placement entry point.
SOLVERS = ("bnb", "brute")


def _check_max_copies(max_copies: int) -> None:
    """Reject anything but a positive ``int`` (``True`` and ``2.0`` too)."""
    if not is_count(max_copies) or max_copies < 1:
        raise ValueError(f"max_copies must be an int >= 1, got {max_copies!r}")


def host_subsets(device_names: Sequence[str], max_copies: int) -> List[Tuple[str, ...]]:
    """Every candidate host set: 1..``max_copies`` devices, as sorted-name
    tuples, in lexicographic tuple order (the brute-force tie-key order)."""
    _check_max_copies(max_copies)
    ordered = sorted(device_names)
    subsets: List[Tuple[str, ...]] = []
    for size in range(1, min(max_copies, len(ordered)) + 1):
        subsets.extend(itertools.combinations(ordered, size))
    subsets.sort()
    return subsets


def enumerate_placements(problem: PlacementProblem, max_copies: int = 1) -> Iterator[Placement]:
    """Yield every memory-feasible placement of 1..``max_copies`` hosts per
    module, in tie-key order.

    Modules are walked in sorted-name order and host sets in lexicographic
    tuple order, so placements stream out exactly in increasing
    ``sorted((module, hosts))`` key order — the first optimum found by a
    linear scan is brute force's deterministic tie-break winner.  A host
    set charges the module's full weight bytes on **each** member device
    (replicas are real copies), and an infeasible prefix prunes its whole
    subtree.  ``max_copies=1`` is the single-copy space of Problem (4).
    """
    modules = sorted(problem.modules, key=lambda m: m.name)
    subsets = host_subsets([d.name for d in problem.devices], max_copies)
    total = len(subsets) ** len(modules)
    if total > MAX_ASSIGNMENTS:
        raise PlacementError(
            f"brute force would enumerate {total} assignments (> {MAX_ASSIGNMENTS}); "
            "use branch_and_bound_placement or replica_branch_and_bound "
            "(exact, memory/bound-pruned) or a greedy solver for instances of this size"
        )
    residual = {d.name: d.memory_bytes for d in problem.devices}
    choice: List[Tuple[str, ...]] = [()] * len(modules)

    def walk(index: int) -> Iterator[Placement]:
        if index == len(modules):
            yield Placement({module.name: choice[i] for i, module in enumerate(modules)})
            return
        need = modules[index].memory_bytes
        for subset in subsets:
            if any(residual[name] < need for name in subset):
                continue
            for name in subset:
                residual[name] -= need
            choice[index] = subset
            yield from walk(index + 1)
            for name in subset:
                residual[name] += need

    yield from walk(0)


def _brute_force(
    problem: PlacementProblem,
    score: Callable[[Placement], Optional[float]],
    max_copies: int = 1,
) -> Optional[Tuple[Placement, float]]:
    """Brute force's argmin: the first strict minimum of ``score`` over the
    walk, so ties go to the lexicographically smallest assignment.

    ``score`` returning ``None`` leaves a placement out (the energy oracle's
    budget filter); ``None`` comes back when every placement was left out.
    Raises :class:`PlacementError` when no memory-feasible placement exists.
    """
    best: Optional[Tuple[Placement, float]] = None
    found_any = False
    for placement in enumerate_placements(problem, max_copies):
        found_any = True
        value = score(placement)
        if value is not None and (best is None or value < best[1]):
            best = (placement, value)
    if not found_any:
        raise PlacementError("no memory-feasible placement exists for this instance")
    return best


def optimal_placement(
    problem: PlacementProblem,
    requests: Sequence[InferenceRequest],
    network: Optional[Network] = None,
    parallel: bool = True,
    solver: str = "bnb",
    tensors=None,
    congestion=None,
) -> Tuple[Placement, float]:
    """The latency-optimal placement and its objective value.

    Ties break toward the lexicographically-smallest assignment so results
    are deterministic — under every ``solver`` (``"bnb"`` runs
    branch-and-bound, ``"brute"`` the exhaustive sweep; results are
    identical, brute force just caps out at :data:`MAX_ASSIGNMENTS`).
    ``tensors`` optionally shares a prebuilt
    :class:`~repro.core.placement.tensors.CostTensors` for the same
    (problem, network) pair so callers scoring with the same model avoid a
    rebuild.  ``congestion`` (a
    :class:`~repro.core.placement.tensors.CongestionModel`) switches the
    objective to the queue-aware one — base latency plus expected waits
    from the offered load — under every solver; ``None`` keeps the
    historical congestion-blind objective bit-identical.
    """
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    if not requests:
        raise PlacementError("optimal placement needs at least one request to score")
    if solver == "bnb":
        # Imported here: repro.core.routing imports this package at module
        # load, so a top-level import would cycle.
        from repro.core.placement.bnb import branch_and_bound_placement

        return branch_and_bound_placement(
            problem, requests, network=network, parallel=parallel, tensors=tensors,
            congestion=congestion,
        )
    from repro.core.routing.latency import LatencyModel

    net = network if network is not None else Network()
    model = LatencyModel(problem, net, parallel=parallel, tensors=tensors)

    def score(placement: Placement) -> float:
        if congestion is not None:
            return model.congestion_objective(requests, placement, congestion)
        return model.objective(requests, placement)

    return _brute_force(problem, score)  # type: ignore[return-value]


def energy_optimal_placement(
    problem: PlacementProblem,
    requests: Sequence[InferenceRequest],
    network: Optional[Network] = None,
    latency_budget: Optional[float] = None,
    parallel: bool = True,
    solver: str = "bnb",
    tensors=None,
) -> Tuple[Optional[Placement], float]:
    """The minimum-energy placement within a latency budget, and its joules.

    The energy counterpart of :func:`optimal_placement`: minimizes the
    total joules of :func:`repro.profiles.energy.energy_objective` over all
    memory-feasible single-copy placements whose latency objective does not
    exceed ``latency_budget`` (``None`` or ``inf`` means unconstrained; a
    NaN, ``bool`` or non-number budget raises :class:`ValueError`; the
    budget is inclusive).  Ties break toward the lexicographically-smallest
    assignment under every ``solver`` (``"bnb"`` runs the energy
    branch-and-bound in :mod:`repro.core.placement.bnb`, ``"brute"`` the
    exhaustive sweep; results are identical, brute force just caps out at
    :data:`MAX_ASSIGNMENTS`).  Returns ``(None, inf)`` when memory-feasible
    placements exist but none meets the budget; raises
    :class:`PlacementError` (under every solver) when no memory-feasible
    placement exists at all.
    """
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    if not requests:
        raise PlacementError("energy-optimal placement needs at least one request to score")
    from repro.core.placement.bnb import checked_budget, energy_branch_and_bound

    budget = float("inf") if latency_budget is None else checked_budget(latency_budget)
    if solver == "bnb":
        return energy_branch_and_bound(
            problem,
            requests,
            network=network,
            latency_budget=budget,
            parallel=parallel,
            tensors=tensors,
        )
    # Imported lazily: repro.profiles.energy imports this package at module
    # load, so a top-level import would cycle.
    from repro.core.routing.latency import LatencyModel
    from repro.profiles.energy import energy_objective

    net = network if network is not None else Network()
    model = LatencyModel(problem, net, parallel=parallel, tensors=tensors)

    def score(placement: Placement) -> Optional[float]:
        if model.objective(requests, placement) > budget:
            return None
        return energy_objective(requests, placement, model)

    best = _brute_force(problem, score)
    return best if best is not None else (None, float("inf"))
