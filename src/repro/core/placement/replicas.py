"""Replica-set placement: replication as a first-class decision variable.

The paper treats replication as an afterthought (Sec. V-B's last paragraph:
spend leftover memory on extra copies, implemented by
:func:`~repro.core.placement.greedy.replicate_with_leftover`).  This module
promotes it to a solved-for dimension: each module gets a **host set**
``N_m`` of 1..``max_copies`` devices, requests route to their **cheapest
replica** (the joint Eq. 1-3 minimum over host combinations — see
``LatencyModel.replica_route``), and the solvers minimize the resulting
total latency under the same per-device memory budget (Eq. 4d).

Why cheapest-replica routing and not Eq. 7: Eq. 7 picks the fastest
*compute* host per module, which is the same device for every request, so
under it an extra replica can never change the analytic objective.  The
replica rule prices input transfer + compute + embedding shipping, so
requests from different source devices genuinely spread across copies.

Three solvers, same contract as the single-copy stack:

- :func:`replica_aware_greedy` — seed with greedy Algorithm 1, then add
  the single replica with the best strict objective improvement until no
  addition helps (the objective-driven generalization of
  ``replicate_with_leftover``).
- :func:`replica_brute_force` — enumerate every memory-feasible host-set
  assignment (the one enumeration walk of :mod:`repro.core.placement.optimal`,
  capped at its ``MAX_ASSIGNMENTS``).
- :func:`replica_branch_and_bound` — the exact search, on the single-copy
  solvers' search core in :mod:`repro.core.placement.bnb` (one DFS
  driver, two phases: value, then a tie-break walk in brute-force key
  order).  It supplies only its ``children(m)`` — memory-feasible host
  sets, each priced by a trial descend under admissible per-request-class
  bounds — and its host-set descend/ascend, returning the **identical
  placement, objective, and tie-break** as brute force (property-tested
  in ``tests/test_replicas.py``).

All durations are **seconds**; module sizes are **bytes**.  Host tuples in
returned placements are in sorted device-name order (the canonical form the
tie-break compares), and ties break toward the lexicographically smallest
``sorted((module, hosts))`` assignment — the same convention as
:func:`~repro.core.placement.optimal.optimal_placement`.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.bnb import (
    _WAIT_SLACK,
    BnBStats,
    _prologue,
    _SearchState,
    _two_phase,
    _WaitState,
)
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.optimal import SOLVERS, _brute_force, _check_max_copies, host_subsets
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.placement.tensors import (
    CongestionModel,
    CostTensors,
    RequestGroup,
    WaitTensors,
    cheapest_hosts,
)
from repro.utils.errors import PlacementError

def replica_brute_force(
    problem: PlacementProblem,
    requests: Sequence[InferenceRequest],
    network: Optional[Network] = None,
    max_copies: int = 2,
    parallel: bool = True,
    tensors: Optional[CostTensors] = None,
    congestion: Optional[CongestionModel] = None,
) -> Tuple[Placement, float]:
    """The replica-optimal placement by exhaustive host-set enumeration.

    Scores every feasible assignment with the cheapest-replica objective
    (``LatencyModel.replica_objective``, seconds) and returns the argmin;
    ties break toward the lexicographically smallest assignment (the
    enumeration order guarantees it).  The oracle the branch-and-bound is
    verified against.  ``congestion`` switches scoring to the queue-aware
    ``congestion_replica_objective`` (base latency plus expected waits).
    """
    _check_max_copies(max_copies)
    if not requests:
        raise PlacementError("replica placement needs at least one request to score")
    from repro.core.routing.latency import LatencyModel

    net = network if network is not None else Network()
    model = LatencyModel(problem, net, parallel=parallel, tensors=tensors)

    def score(placement: Placement) -> float:
        if congestion is not None:
            return model.congestion_replica_objective(requests, placement, congestion)
        return model.replica_objective(requests, placement)

    return _brute_force(problem, score, max_copies)  # type: ignore[return-value]


def replica_aware_greedy(
    problem: PlacementProblem,
    requests: Sequence[InferenceRequest],
    network: Optional[Network] = None,
    max_copies: int = 2,
    parallel: bool = True,
    tensors: Optional[CostTensors] = None,
    base: Optional[Placement] = None,
    congestion: Optional[CongestionModel] = None,
) -> Tuple[Placement, float]:
    """Objective-driven replication: best-improvement replica additions.

    The replica-aware generalization of
    :func:`~repro.core.placement.greedy.replicate_with_leftover`: instead
    of copying modules onto "the fastest device with room" regardless of
    benefit, each round prices **every** candidate replica (module not at
    ``max_copies``, device with enough residual memory) under the
    cheapest-replica objective and applies the one with the largest strict
    improvement; rounds repeat until no addition helps.  Ties between
    equally-improving candidates break toward the smallest
    ``(objective, module name, device name)`` triple.

    ``base`` seeds the search (defaults to greedy Algorithm 1's single-copy
    placement, so the result is always at least as good as greedy).
    Returns ``(placement, objective_seconds)`` with host tuples in sorted
    device-name order.  ``congestion`` prices candidates with the
    queue-aware ``congestion_replica_objective`` instead.
    """
    _check_max_copies(max_copies)
    if not requests:
        raise PlacementError("replica placement needs at least one request to score")
    from repro.core.routing.latency import LatencyModel

    net = network if network is not None else Network()
    model = LatencyModel(problem, net, parallel=parallel, tensors=tensors)
    if congestion is not None:
        def score(placement: Placement) -> float:
            return model.congestion_replica_objective(requests, placement, congestion)
    else:
        def score(placement: Placement) -> float:
            return model.replica_objective(requests, placement)
    current = base if base is not None else greedy_placement(problem)
    modules = {m.name: m for m in problem.modules}
    residual: Dict[str, int] = {d.name: d.memory_bytes for d in problem.devices}
    for name, hosts in current.as_dict().items():
        for host in hosts:
            residual[host] -= modules[name].memory_bytes
    best_objective = score(current)

    while True:
        best_move: Optional[Tuple[float, str, str]] = None
        for module_name in sorted(modules):
            hosts = current.hosts(module_name)
            if len(hosts) >= max_copies:
                continue
            need = modules[module_name].memory_bytes
            for device in problem.devices:
                if device.name in hosts or residual[device.name] < need:
                    continue
                candidate = current.with_extra(module_name, device.name)
                objective = score(candidate)
                if objective >= best_objective:
                    continue
                move = (objective, module_name, device.name)
                if best_move is None or move < best_move:
                    best_move = move
        if best_move is None:
            break
        best_objective, module_name, device_name = best_move
        current = current.with_extra(module_name, device_name)
        residual[device_name] -= modules[module_name].memory_bytes

    canonical = Placement(
        {name: tuple(sorted(hosts)) for name, hosts in current.as_dict().items()}
    )
    return canonical, best_objective


class _ReplicaGroupBound:
    """Admissible per-(model, source) latency bounds under partial host sets.

    For a partial assignment (some modules pinned to host sets, others
    free), each encoder path is lower-bounded by the cheapest
    ``in + compute + out`` over its allowed (encoder host, head host)
    pairs — the assigned sets where pinned, every memory-fitting device
    where free — and the head by its cheapest compute over allowed hosts.
    True replica-routed latency picks ONE combination and adds
    non-negative queue waits, so it can only be larger; min/max/sum over
    the same precomputed floats keep the bound monotone (IEEE-754), hence
    admissible.  The bound is *not* exact at completion (paths are bounded
    independently, routing is joint), so complete classes are priced by
    :meth:`exact` — :func:`~repro.core.placement.tensors.cheapest_hosts`
    over the bound's rows, with the queue waits at congestion-aware leaves.
    """

    def __init__(self, tensors: CostTensors, group: RequestGroup) -> None:
        self.tensors = tensors
        self.group = group
        self.parallel = tensors.parallel
        self.members = group.member_idx
        self.head_idx = group.head_idx
        head_fit = tensors.fits[group.head_idx]
        if not head_fit.any():
            raise PlacementError(
                f"module {group.head_name!r} fits on no device; "
                "apply compression or intra-module partitioning first (paper Sec. V-B)"
            )
        self._head_fit_idx: List[int] = np.flatnonzero(head_fit).tolist()
        self._enc_fit_idx: List[List[int]] = []
        for e, idx in enumerate(group.encoder_idx):
            fit = tensors.fits[idx]
            if not fit.any():
                raise PlacementError(
                    f"module {group.encoder_names[e]!r} fits on no device; "
                    "apply compression or intra-module partitioning first (paper Sec. V-B)"
                )
            self._enc_fit_idx.append(np.flatnonzero(fit).tolist())
        # Python-float rows (built per search, freed with it): the bound
        # works on a handful of hosts, where numpy's per-call cost dominates.
        in_comm, enc_comp = np.array(group.in_comm), np.array(group.enc_comp)
        self._in_rows: List[List[float]] = in_comm.tolist()
        self._comp_rows: List[List[float]] = enc_comp.tolist()
        self._A_rows: List[List[float]] = (in_comm + enc_comp).tolist()
        self._out_rows: List[List[List[float]]] = np.array(group.out).tolist()
        self._head_row: List[float] = group.head_comp.tolist()

    def lower_bound(self, sets: List[Optional[Tuple[int, ...]]]) -> float:
        """Scalar bound (seconds) for the current partial assignment.

        Exploits the structure of cheapest-replica routing: *given* the
        head host, encoder paths choose their replicas independently, so
        ``min over nh of [stage(nh) + head(nh)]`` with ``stage(nh)`` the
        per-head-host max (or sum) of each path's cheapest replica is the
        exact waits-free relaxation — far tighter than bounding every path
        over all (encoder, head) pairs at once.  Queue waits are
        non-negative, so the relaxation never exceeds the true value.
        """
        heads = sets[self.head_idx]
        if heads is None:
            heads = self._head_fit_idx
        stage: Optional[List[float]] = None
        for e, idx in enumerate(self.group.encoder_idx):
            encs = sets[idx]
            if encs is None:
                encs = self._enc_fit_idx[e]
            A, out = self._A_rows[e], self._out_rows[e]
            prefixes = [(A[ne], out[ne]) for ne in encs]
            best_per_head = [min([a + row[nh] for a, row in prefixes]) for nh in heads]
            if stage is None:
                stage = best_per_head
            elif self.parallel:
                stage = [max(s, b) for s, b in zip(stage, best_per_head)]
            else:
                stage = [s + b for s, b in zip(stage, best_per_head)]
        head = self._head_row
        if stage is None:
            return min([head[nh] for nh in heads])
        return min([s + head[nh] for s, nh in zip(stage, heads)])

    def exact(
        self, sets: List[Optional[Tuple[int, ...]]], waits: Optional[Sequence[float]] = None
    ) -> float:
        """True class value (seconds) once every member set is assigned:
        the cheapest-replica minimum over the bound's rows, each combo
        charged its hosts' ``waits`` when given."""
        return cheapest_hosts(
            self._in_rows, self._comp_rows, self._out_rows, self._head_row,
            self.group.enc_pos, self.group.head_pos,
            [sets[idx] for idx in self.members],  # type: ignore[misc]
            self.tensors.slots, self.parallel, waits,
        )[0]


class _ReplicaSearch(_SearchState):
    """The replica search's state: host sets instead of single devices."""

    def __init__(
        self,
        tensors: CostTensors,
        requests: Sequence[InferenceRequest],
        max_copies: int,
        congestion: Optional[CongestionModel] = None,
    ) -> None:
        super().__init__(tensors, requests)
        #: Per-module assigned host set (device indices, name-sorted) or None.
        self.sets: List[Optional[Tuple[int, ...]]] = [None] * self.n_modules

        # Candidate subsets per module: device-index tuples in the brute
        # enumeration's lexicographic *name* order (host_subsets is the
        # single source of that order — the bnb==brute tie-break contract
        # depends on both walking candidates identically), filtered to
        # devices the module fits on outright (residual pruning per node).
        index_of_device = {name: n for n, name in enumerate(tensors.device_names)}
        self.subsets_of: List[List[Tuple[int, ...]]] = []
        for m in range(self.n_modules):
            fitting = [
                tensors.device_names[n]
                for n in range(self.n_devices)
                if tensors.fits[m, n]
            ]
            self.subsets_of.append(
                [
                    tuple(index_of_device[name] for name in subset)
                    for subset in host_subsets(fitting, max_copies)
                ]
                if fitting
                else []
            )
        self.bounds = [_ReplicaGroupBound(tensors, group) for group in self.groups]
        self.group_lb = [bound.lower_bound(self.sets) for bound in self.bounds]

        # Queue-wait bound state (the *bound* only needs admissibility;
        # leaves are re-priced canonically for bit-identity).
        self.wait_tensors = WaitTensors(tensors, congestion) if congestion is not None else None
        self.wait = (
            _WaitState(self.wait_tensors, self, max_copies)
            if self.wait_tensors is not None
            else None
        )

    # ------------------------------------------------------------------
    def _scored(self, m: int) -> Iterator[Tuple[float, Tuple[int, ...]]]:
        """Memory-feasible host sets for ``m`` in tie-key order, each with
        the total bound it would leave (priced by a trial descend)."""
        need = self.memory[m]
        for subset in self.subsets_of[m]:
            if all(self.residual[n] >= need for n in subset):
                saved = self.descend(m, subset)
                bound = self.total_bound()
                self.ascend(m, subset, saved)
                yield bound, subset

    def value_children(self, m: int) -> List[Tuple[float, Tuple[int, ...]]]:
        return sorted(self._scored(m), key=operator.itemgetter(0))

    def tie_children(self, m: int) -> Iterator[Tuple[float, Tuple[int, ...]]]:
        return self._scored(m)

    @staticmethod
    def leaf_value(bound: float) -> float:
        return bound  # exact: every class is complete at a leaf

    def descend(self, m: int, subset: Tuple[int, ...]) -> List[Tuple[int, float]]:
        self.sets[m] = subset
        for n in subset:
            self.residual[n] -= self.memory[m]
        if self.wait is not None:
            self.wait.descend(m, subset)
        saved = [(g, self.group_lb[g]) for g in self.groups_using[m]]
        for g in self.groups_using[m]:
            bound = self.bounds[g]
            if all(self.sets[idx] is not None for idx in bound.members):
                self.group_lb[g] = bound.exact(self.sets)
            else:
                self.group_lb[g] = bound.lower_bound(self.sets)
        return saved

    def ascend(self, m: int, subset: Tuple[int, ...], saved: List[Tuple[int, float]]) -> None:
        for g, value in saved:
            self.group_lb[g] = value
        if self.wait is not None:
            self.wait.ascend(m, subset)
        for n in subset:
            self.residual[n] += self.memory[m]
        self.sets[m] = None

    def total_bound(self) -> float:
        """Fanned per-request bound (exact at leaves, request-order sum).

        With ``congestion`` set, leaves return the **exact** queue-aware
        value (bit-identical to ``WaitTensors.replica_objective`` on the
        equivalent placement — the tie phase compares ``== best_value``),
        and partial assignments add an admissible global wait term: waits
        ``W_p`` computed from the load of *assigned* members only are a
        lower bound on the final waits (monotone in offered load), and each
        class must pay at least ``min over its set`` of ``W_p`` per
        assigned member no matter which replica routing picks.
        """
        if self.wait is not None and all(s is not None for s in self.sets):
            return self._leaf_value()
        total = self.fan(self.group_lb)
        if self.wait is None:
            return float(total)
        sets = self.sets
        waits = self.wait.waits().tolist()
        group_extra = []
        for group in self.groups:
            extra = 0.0
            for idx in group.member_idx:
                assigned = sets[idx]
                if assigned is None:
                    continue
                extra = extra + min(waits[n] for n in assigned)
            group_extra.append(extra)
        return float(total + self.fan(group_extra) * _WAIT_SLACK)

    def _leaf_value(self) -> float:
        """Exact queue-aware objective for a fully-assigned host-set state.

        Mirrors ``WaitTensors.replica_objective`` float-for-float: ``sets``
        tuples are already in sorted-device-name order (``host_subsets``'
        contract), the order ``waits_for_placement`` and
        ``CostTensors._replica_candidates`` derive from a canonical
        :class:`Placement`.
        """
        sets = self.sets
        assert self.wait_tensors is not None
        waits = self.wait_tensors.device_waits(self.requests, lambda m: sets[m])
        return float(self.fan([bound.exact(sets, waits) for bound in self.bounds]))

    def winner(self) -> Placement:
        names = self.tensors.device_names
        return Placement(
            {
                self.tensors.module_names[m]: tuple(
                    sorted(names[n] for n in self.sets[m])  # type: ignore[union-attr]
                )
                for m in range(self.n_modules)
            }
        )


def replica_branch_and_bound(
    problem: PlacementProblem,
    requests: Sequence[InferenceRequest],
    network: Optional[Network] = None,
    max_copies: int = 2,
    parallel: bool = True,
    tensors: Optional[CostTensors] = None,
    congestion: Optional[CongestionModel] = None,
    stats: Optional[BnBStats] = None,
) -> Tuple[Placement, float]:
    """The replica-optimal placement and objective, beyond brute's cap.

    Searches host-set space (1..``max_copies`` devices per module under
    Eq. 4d memory) with admissible per-class bounds and returns **the
    identical placement, objective (seconds), and tie-break** as
    :func:`replica_brute_force` — through the same two-phase driver as the
    single-copy branch-and-bound: a value search pruning ``bound >= best``
    (the incumbent is always attained, so ties cannot strictly improve),
    then a tie-break walk in brute's enumeration order pruning ``bound >
    V`` that stops at the first leaf attaining V.  ``congestion`` switches
    the objective to the queue-aware one (wait-inclusive bounds, exact
    leaves); ``None`` keeps the historical objective bit-identical.
    ``stats`` counts the nodes, leaves and prunes of both phases.
    """
    _check_max_copies(max_copies)
    net, tensors = _prologue(problem, requests, network, parallel, tensors, "replica")
    search = _ReplicaSearch(tensors, requests, max_copies, congestion=congestion)
    # Attained incumbent: the replica-aware greedy (always a member of the
    # search space: <= max_copies sorted host tuples, memory-feasible).
    best_value = float("inf")
    try:
        _, best_value = replica_aware_greedy(
            problem, requests, network=net, max_copies=max_copies,
            parallel=parallel, tensors=tensors, congestion=congestion,
        )
    except PlacementError:
        pass
    # Heads first (they pin every path's output endpoint), then by
    # descending memory (big modules constrain residuals most).
    stats = stats if stats is not None else BnBStats()
    return _two_phase(search, search.value_order(()), best_value, stats)


def replica_optimal_placement(
    problem: PlacementProblem,
    requests: Sequence[InferenceRequest],
    network: Optional[Network] = None,
    max_copies: int = 2,
    parallel: bool = True,
    solver: str = "bnb",
    tensors: Optional[CostTensors] = None,
    congestion: Optional[CongestionModel] = None,
) -> Tuple[Placement, float]:
    """The replica-optimal placement and its objective (seconds).

    The replica-set counterpart of
    :func:`~repro.core.placement.optimal.optimal_placement`: jointly
    chooses a host set of 1..``max_copies`` devices per module, minimizing
    total cheapest-replica latency under per-device memory.  Identical
    results under every ``solver`` (``"bnb"`` runs the
    branch-and-bound, ``"brute"`` exhaustive enumeration capped at
    :data:`~repro.core.placement.optimal.MAX_ASSIGNMENTS`); ties break toward the
    lexicographically smallest assignment.
    """
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    if solver == "bnb":
        return replica_branch_and_bound(
            problem, requests, network=network, max_copies=max_copies,
            parallel=parallel, tensors=tensors, congestion=congestion,
        )
    return replica_brute_force(
        problem, requests, network=network, max_copies=max_copies,
        parallel=parallel, tensors=tensors, congestion=congestion,
    )
