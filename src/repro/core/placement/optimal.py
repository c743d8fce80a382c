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

Candidate scoring runs on the shared cost tensors
(:mod:`repro.core.placement.tensors`) either way.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence, Tuple

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.problem import Placement, PlacementProblem
from repro.utils.errors import PlacementError

#: Safety cap on the enumeration size; beyond it, brute force is not the tool.
MAX_ASSIGNMENTS = 2_000_000

#: Accepted ``solver`` values for :func:`optimal_placement`.
SOLVERS = ("bnb", "brute")


def enumerate_placements(problem: PlacementProblem) -> Iterator[Placement]:
    """Yield every memory-feasible single-copy placement.

    Same lexicographic order as the original ``itertools.product`` sweep,
    but walks an index-based residual-capacity vector with undo, so an
    infeasible prefix prunes its whole subtree instead of being re-checked
    once per completion, and no per-candidate capacity dict is copied.
    """
    modules = list(problem.modules)
    device_names = [device.name for device in problem.devices]
    total = len(device_names) ** len(modules)
    if total > MAX_ASSIGNMENTS:
        raise PlacementError(
            f"brute force would enumerate {total} assignments (> {MAX_ASSIGNMENTS}); "
            "use branch_and_bound_placement (exact, memory/bound-pruned) or "
            "greedy_placement for instances of this size"
        )
    memory = [module.memory_bytes for module in modules]
    residual = [device.memory_bytes for device in problem.devices]
    choice = [0] * len(modules)

    def walk(index: int) -> Iterator[Placement]:
        if index == len(modules):
            yield Placement(
                {
                    module.name: (device_names[choice[i]],)
                    for i, module in enumerate(modules)
                }
            )
            return
        need = memory[index]
        for n in range(len(device_names)):
            if residual[n] >= need:
                residual[n] -= need
                choice[index] = n
                yield from walk(index + 1)
                residual[n] += need

    yield from walk(0)


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
    best: Optional[Tuple[float, Tuple[Tuple[str, Tuple[str, ...]], ...], Placement]] = None
    found_any = False
    for placement in enumerate_placements(problem):
        found_any = True
        if congestion is not None:
            objective = model.congestion_objective(requests, placement, congestion)
        else:
            objective = model.objective(requests, placement)
        key = (objective, tuple(sorted(placement.as_dict().items())), placement)
        if best is None or key[:2] < best[:2]:
            best = key
    if not found_any or best is None:
        raise PlacementError("no memory-feasible placement exists for this instance")
    return best[2], best[0]


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
    exceed ``latency_budget`` (``None`` or ``inf`` means unconstrained, a
    NaN budget raises :class:`ValueError`; the budget is inclusive).  Ties
    break toward the lexicographically-smallest assignment under every
    ``solver`` (``"bnb"`` runs the energy
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
    budget = float("inf") if latency_budget is None else float(latency_budget)
    if math.isnan(budget):
        raise ValueError("latency_budget must be a number (None for no budget), got nan")
    if solver == "bnb":
        from repro.core.placement.bnb import energy_branch_and_bound

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
    best: Optional[Tuple[float, Tuple[Tuple[str, Tuple[str, ...]], ...], Placement]] = None
    found_any = False
    for placement in enumerate_placements(problem):
        found_any = True
        if model.objective(requests, placement) > budget:
            continue
        joules = energy_objective(requests, placement, model)
        key = (joules, tuple(sorted(placement.as_dict().items())), placement)
        if best is None or key[:2] < best[:2]:
            best = key
    if not found_any:
        raise PlacementError("no memory-feasible placement exists for this instance")
    if best is None:
        return None, float("inf")
    return best[2], best[0]
