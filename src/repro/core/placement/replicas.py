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
  sets under admissible bounds, one :class:`_ReplicaBound` per model
  stacking its request classes — and its host-set descend/ascend,
  returning the **identical placement, objective, and tie-break** as brute
  force (property-tested in ``tests/test_replicas.py``).  A node prices
  ``m`` on each single device once (a ``[G][N]`` table per model) and
  reads every host set's class values as the min of its devices' entries,
  bit-identical to pricing the set itself (see :class:`_ReplicaBound`);
  ``descend`` reads the chosen set from the same table, and the greedy
  prices "add device n" as ``min(current value, entry n)``.

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
    member_fits,
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
from repro.utils.errors import ConfigurationError, PlacementError

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
    placement, so the result is always at least as good as greedy).  A base
    that places a module of the problem nowhere, repeats a host, exceeds
    ``max_copies`` or a device's memory raises :class:`PlacementError`; one
    that names an unknown module or device raises
    :class:`ConfigurationError`.  Returns ``(placement, objective_seconds)``
    with host tuples in sorted device-name order.  ``congestion`` prices
    candidates with the queue-aware ``congestion_replica_objective``
    instead.  Candidates are priced on the replica search's own rows
    (:class:`_ReplicaSearch`), the doubles ``LatencyModel.replica_objective``
    (or its queue-aware counterpart) returns for the same placement.
    """
    _check_max_copies(max_copies)
    _, tensors = _prologue(problem, requests, network, parallel, tensors, "replica")
    seed = base if base is not None else greedy_placement(problem)
    _check_base(problem, seed, max_copies)
    search = _ReplicaSearch(tensors, requests, max_copies, congestion=congestion)
    return search.aware_greedy(seed, max_copies)


def _check_base(problem: PlacementProblem, base: Placement, max_copies: int) -> None:
    """Refuse a seed placement outside the replica search space."""
    modules = {module.name: module for module in problem.modules}
    budget = {device.name: device.memory_bytes for device in problem.devices}
    used = dict.fromkeys(budget, 0)
    assignments = base.as_dict()
    for name, hosts in assignments.items():
        if name not in modules:
            raise ConfigurationError(f"base places {name!r}, which is not a module of the problem")
        for host in hosts:
            if host not in budget:
                raise ConfigurationError(f"base places {name!r} on unknown device {host!r}")
            used[host] += modules[name].memory_bytes
        if len(set(hosts)) != len(hosts):
            raise PlacementError(f"base repeats a host of {name!r}: {tuple(hosts)}")
        if len(hosts) > max_copies:
            raise PlacementError(
                f"base places {name!r} on {len(hosts)} hosts, more than max_copies={max_copies}"
            )
    for name in modules:
        if not assignments.get(name):
            raise PlacementError(f"base leaves module {name!r} unplaced")
    for host, total in used.items():
        if total > budget[host]:
            raise PlacementError(
                f"base puts {total} bytes on {host!r}, over its {budget[host]}-byte budget"
            )


class _ReplicaBound:
    """Admissible bounds of every request class of one model under partial
    host sets, stacked on a class axis (the classes differ only in their
    source's input rows).

    For a partial assignment (some modules pinned to host sets, others
    free), each encoder path is lower-bounded by the cheapest
    ``in + compute + out`` over its allowed (encoder host, head host)
    pairs — the assigned sets where pinned, every memory-fitting device
    where free — and the head by its cheapest compute over allowed hosts.
    True replica-routed latency picks ONE combination and adds
    non-negative queue waits, so it can only be larger; min/max/sum over
    the same precomputed floats keep the bound monotone (IEEE-754), hence
    admissible.  At completion it misses same-device LPT waits and a
    module's two roles sharing one host, so complete classes are priced by
    :meth:`exact` — :func:`~repro.core.placement.tensors.cheapest_hosts`
    over the bound's rows, with the queue waits at congestion-aware leaves.

    **Per-device host sets.**  :meth:`device_values` prices module ``m`` on
    each single device in one pass, a ``[G][N]`` table; a host set's class
    value is the min of its devices' entries, bit for bit:

    - a partial bound is a max, sum or min that rises with the cost of
      ``m``'s cheapest replica (for the head, a min over head hosts), and
      IEEE rounding preserves that order, so the min moves outside;
    - an exact value is a min over host combos, and the combos of a set are
      the union of its singletons' combos.

    An exact entry is read from the bound when no host combo can put more
    encoders on a device than its slots and ``m`` has one role: given the
    head host the class's value is the max or sum of its paths, each
    rising with its own host, so the min over combos is the fold of the
    per-path mins, and ``x + 0.0 == x`` for the LPT waits no combo pays.
    Otherwise each device's entry enumerates the host combos.

    Two exceptions, both priced per set:

    - a module that is this model's head *and* one of its encoders lets
      :meth:`lower_bound` pick its head replica and its encoder replica
      independently (a min over ``S x S``), which no singleton sees, so
      while its classes are partial :meth:`device_values` returns ``None``
      and each set is priced by :meth:`lower_bound` itself;
    - the queue-aware search reads only its waits-free part from the
      table: its wait term depends on how many copies share a module's
      load, so it is added per set, and a complete state is priced by
      :meth:`exact` with the queue waits (``_ReplicaSearch._scored``).
    """

    def __init__(self, tensors: CostTensors, groups: Sequence[RequestGroup]) -> None:
        #: The first class: its model-level fields are every class's.
        self.group = group = groups[0]
        self.tensors = tensors
        self.parallel = tensors.parallel
        self.members = group.member_idx
        self.head_idx = group.head_idx
        self.encoder_idx = group.encoder_idx
        self.dual = group.head_idx in group.encoder_idx
        head_fit, fit = member_fits(tensors, group)  # [N], [E, N]
        self._head_fit_idx: List[int] = np.flatnonzero(head_fit).tolist()
        # Python-float rows (built per search, freed with it): the bound
        # works on a handful of hosts, where numpy's per-call cost dominates.
        #   paths[i][e][ne][nh]  in + compute + out of class i's path e,
        #                        encoder on ne, head on nh (the Eq. 1-3 path sum)
        #   free[i][e][nh]       the cheapest such path over fitting encoders
        in_comm = np.array([g.in_comm for g in groups])  # [G, E, N]
        enc_comp, out = np.array(group.enc_comp), np.array(group.out)
        paths = (in_comm + enc_comp)[:, :, :, None] + out
        self._in_rows: List[List[List[float]]] = in_comm.tolist()
        self._comp_rows: List[List[float]] = enc_comp.tolist()
        self._out_rows: List[List[List[float]]] = out.tolist()
        self._head_row: List[float] = group.head_comp.tolist()
        self._paths: List[List[List[List[float]]]] = paths.tolist()
        self._free: List[List[List[float]]] = paths.min(
            axis=2, where=fit[:, :, None], initial=np.inf
        ).tolist()

    def _stage(
        self, i: int, sets: List[Optional[Tuple[int, ...]]], heads: Sequence[int],
        e0: int = -1, path: Optional[List[float]] = None,
    ) -> List[float]:
        """Class ``i``'s encoder stage per head host in ``heads``: each
        path at its cheapest allowed replica (path ``e0`` on the ``path``
        row instead), folded left to right by max (parallel) or sum."""
        stage: Optional[List[float]] = None
        for e, idx in enumerate(self.encoder_idx):
            encs = sets[idx]
            if e == e0:
                terms = [path[nh] for nh in heads]  # type: ignore[index]
            elif encs is None:
                row = self._free[i][e]
                terms = [row[nh] for nh in heads]
            else:
                rows = [self._paths[i][e][ne] for ne in encs]
                terms = [min([row[nh] for row in rows]) for nh in heads]
            if stage is None:
                stage = terms
            elif self.parallel:
                stage = [max(s, b) for s, b in zip(stage, terms)]
            else:
                stage = [s + b for s, b in zip(stage, terms)]
        return stage  # type: ignore[return-value]

    def _heads(self, sets: List[Optional[Tuple[int, ...]]]) -> Sequence[int]:
        heads = sets[self.head_idx]
        return self._head_fit_idx if heads is None else heads

    def lower_bound(self, sets: List[Optional[Tuple[int, ...]]]) -> List[float]:
        """Scalar bound per class (seconds) for the current partial assignment.

        Exploits the structure of cheapest-replica routing: *given* the
        head host, encoder paths choose their replicas independently, so
        ``min over nh of [stage(nh) + head(nh)]`` with ``stage(nh)`` the
        per-head-host max (or sum) of each path's cheapest replica is the
        exact waits-free relaxation — far tighter than bounding every path
        over all (encoder, head) pairs at once.  Queue waits are
        non-negative, so the relaxation never exceeds the true value.
        """
        heads = self._heads(sets)
        head = self._head_row
        return [
            min([s + head[nh] for s, nh in zip(self._stage(i, sets, heads), heads)])
            for i in range(len(self._paths))
        ]

    def exact(
        self, sets: List[Optional[Tuple[int, ...]]], waits: Optional[Sequence[float]] = None
    ) -> List[float]:
        """Each class's true value (seconds) once every member set is
        assigned: the cheapest-replica minimum over the bound's rows, each
        combo charged its hosts' ``waits`` when given."""
        return [
            value for value, _ in cheapest_hosts(
                self._in_rows, self._comp_rows, self._out_rows, self._head_row,
                self.group.enc_pos, self.group.head_pos,
                [sets[idx] for idx in self.members],  # type: ignore[misc]
                self.tensors.slots, self.parallel, waits,
            )
        ]

    def _waits_free(
        self, sets: List[Optional[Tuple[int, ...]]], m: int, devices: Sequence[int]
    ) -> bool:
        """Whether no host combo, ``m`` on any of ``devices``, puts more
        encoders on a device than its slots (so none waits)."""
        if not self.parallel:
            return True
        count: Dict[int, int] = {}
        for idx in self.encoder_idx:
            for n in devices if idx == m else sets[idx]:  # type: ignore[union-attr]
                count[n] = count.get(n, 0) + 1
        slots = self.tensors.slots
        return all([k <= slots[n] for n, k in count.items()])

    def device_values(
        self, sets: List[Optional[Tuple[int, ...]]], m: int, devices: Sequence[int]
    ) -> Optional[List[List[Optional[float]]]]:
        """Each class's value with the unassigned module ``m`` on each one
        of ``devices`` alone, as ``[G][N]`` rows (``None`` off ``devices``):
        exact where that completes the classes (from the bound where nothing
        can wait), else the bound.  ``None`` for a head that is also an
        encoder while the classes are partial (see the class docstring)."""
        n_devices = self.tensors.n_devices
        table: List[List[Optional[float]]] = [[None] * n_devices for _ in self._paths]
        complete = all([sets[idx] is not None for idx in self.members if idx != m])
        if complete and (self.dual or not self._waits_free(sets, m, devices)):
            priced = list(sets)
            for n in devices:
                priced[m] = (n,)
                for row, value in zip(table, self.exact(priced)):
                    row[n] = value
            return table
        head = self._head_row
        if m == self.head_idx:
            if self.dual:
                return None
            # Head on n alone: the bound's stage read at nh = n.
            for i, row in enumerate(table):
                for s, n in zip(self._stage(i, sets, devices), devices):
                    row[n] = s + head[n]
            return table
        # Encoder path e0 on n alone: its whole path row with the encoder on n.
        heads = self._heads(sets)
        e0 = self.encoder_idx.index(m)
        for i, row in enumerate(table):
            paths = self._paths[i][e0]
            for n in devices:
                stage = self._stage(i, sets, heads, e0, paths[n])
                row[n] = min([s + head[nh] for s, nh in zip(stage, heads)])
        return table


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
        self.bounds = [_ReplicaBound(tensors, groups) for groups in self.stacked_groups()]
        #: Every class's bound with nothing assigned (what :meth:`reset`
        #: restores).
        self.root_lb = self.class_values(self.bounds, lambda bound: bound.lower_bound(self.sets))
        self.group_lb = list(self.root_lb)
        #: Per module, ``(classes, bound, table)`` for each stack using it,
        #: from the module's latest expansion (:meth:`_price`), read back by
        #: :meth:`descend` (each module sits once on a DFS path).
        self.tables: Dict[int, List[Tuple[List[int], _ReplicaBound, Optional[list]]]] = {}

        # Queue-wait bound state (the *bound* only needs admissibility;
        # leaves are re-priced canonically for bit-identity).
        self.wait_tensors = WaitTensors(tensors, congestion) if congestion is not None else None
        self.wait = (
            _WaitState(self.wait_tensors, self, max_copies)
            if self.wait_tensors is not None
            else None
        )

    # ------------------------------------------------------------------
    def _price(self, m: int, devices: Sequence[int]) -> None:
        """Price the unassigned module ``m`` on each of ``devices`` alone,
        one ``[G][N]`` table per stack using it (:meth:`_ReplicaBound.device_values`)."""
        self.tables[m] = [
            (self.stacks[s], self.bounds[s], self.bounds[s].device_values(self.sets, m, devices))
            for s in self.stacks_using[m]
        ]

    def _set_values(self, m: int, subset: Tuple[int, ...]) -> List[Tuple[int, float]]:
        """``(class, value)`` for every class using ``m``, with ``m`` on
        ``subset`` (already in :attr:`sets`): the min of the subset's table
        entries, or the stack's own bound where it has no table."""
        values: List[Tuple[int, float]] = []
        for classes, bound, table in self.tables[m]:
            if table is None:
                values.extend(zip(classes, bound.lower_bound(self.sets)))
            else:
                values.extend(zip(classes, [min([row[n] for n in subset]) for row in table]))
        return values

    def _scored(self, m: int) -> Iterator[Tuple[float, Tuple[int, ...]]]:
        """Memory-feasible host sets for ``m`` in tie-key order, each with
        the total bound it would leave, read from one per-device table.

        With ``congestion`` the wait term stays per set: the waits depend on
        how many copies share ``m``'s load, so each set's load is put on the
        wait state for :meth:`total_bound` and its entries restored after
        (a complete assignment is priced exactly, queue waits included)."""
        need, residual = self.memory[m], self.residual
        subsets = [s for s in self.subsets_of[m] if min([residual[n] for n in s]) >= need]
        if not subsets:
            return
        self._price(m, sorted({n for subset in subsets for n in subset}))
        for subset in subsets:
            self.sets[m] = subset
            values = list(self.group_lb)
            for g, value in self._set_values(m, subset):
                values[g] = value
            if self.wait is None:
                bound = float(self.fan(values))
            else:
                loads = self.wait.descend(m, subset)
                bound = self.total_bound(values)
                self.wait.ascend(loads)
            self.sets[m] = None
            yield bound, subset

    def value_children(self, m: int) -> List[Tuple[float, Tuple[int, ...]]]:
        return sorted(self._scored(m), key=operator.itemgetter(0))

    def tie_children(self, m: int) -> Iterator[Tuple[float, Tuple[int, ...]]]:
        return self._scored(m)

    @staticmethod
    def leaf_value(bound: float) -> float:
        return bound  # exact: every class is complete at a leaf

    def _occupy(self, m: int, subset: Tuple[int, ...], sign: int) -> None:
        """Put ``m`` on the hosts ``subset`` (``sign`` 1) or take it off
        (-1): its host set and the hosts' memory.  The class bounds and
        queue loads are the caller's to update."""
        self.sets[m] = subset if sign > 0 else None
        for n in subset:
            self.residual[n] -= sign * self.memory[m]

    def descend(self, m: int, subset: Tuple[int, ...]):
        """Put ``m`` on ``subset``, its classes' values read from the tables
        of ``m``'s expansion, and its load on the wait state."""
        self._occupy(m, subset, 1)
        undo = []
        for g, value in self._set_values(m, subset):
            undo.append((g, self.group_lb[g]))
            self.group_lb[g] = value
        return undo, (self.wait.descend(m, subset) if self.wait is not None else None)

    def ascend(self, m: int, subset: Tuple[int, ...], saved) -> None:
        undo, loads = saved
        for g, value in undo:
            self.group_lb[g] = value
        if loads is not None:
            self.wait.ascend(loads)
        self._occupy(m, subset, -1)

    def reset(self) -> None:
        """Back to the empty assignment the search starts from (the greedy
        prices queue-aware candidates as exact leaves, so it never puts load
        on the wait state)."""
        self.sets[:] = [None] * self.n_modules
        self.residual[:] = [int(b) for b in self.tensors.capacity]
        self.group_lb[:] = self.root_lb
        self.tables.clear()

    def _check_hosts(self, m: int, hosts: Sequence[int]) -> None:
        """The placement-level objective's ``ConfigurationError`` for a host
        with no throughput entry for ``m``, model by model."""
        tensors = self.tensors
        for classes in self.stacks:
            group = self.groups[classes[0]]
            if m in group.member_idx:
                row = tensors.model_compute(group.model)[m]
                for n in hosts:
                    tensors._checked(group.model, row, m, n)

    def _fill(self, current: Dict[int, Tuple[int, ...]]) -> None:
        """Put every module on its ``current`` hosts and price every class
        exactly."""
        for m, hosts in current.items():
            self._occupy(m, hosts, 1)
        self.group_lb[:] = self.class_values(self.bounds, lambda bound: bound.exact(self.sets))

    def _candidates(
        self, current: Dict[int, Tuple[int, ...]], max_copies: int
    ) -> List[Tuple[Tuple[float, str, str], int, Tuple[int, ...], Optional[List[float]]]]:
        """One greedy round's candidate replicas on the full assignment
        ``current``, in (module name, device) order: ``((objective, module
        name, device name), module, host set, class values)``.

        Adding device ``n`` to ``m``'s hosts prices each class using ``m``
        as ``min(current value, entry n)`` of ``m``'s per-device table: the
        classes are complete, so the entries are exact.  With
        ``congestion`` the waits depend on the copy count, so each
        candidate set is priced as a leaf (class values ``None``).
        """
        tensors = self.tensors
        names = tensors.device_names
        rows = []
        for m in sorted(range(self.n_modules), key=tensors.module_names.__getitem__):
            hosts = current[m]
            if len(hosts) >= max_copies:
                continue
            devices = [
                n for n in range(self.n_devices)
                if n not in hosts and self.residual[n] >= self.memory[m]
            ]
            for n in devices:
                self._check_hosts(m, (n,))
            if self.wait is None and devices:
                self.sets[m] = None
                self._price(m, devices)
                self.sets[m] = hosts
            for n in devices:
                candidate = tuple(sorted(hosts + (n,), key=names.__getitem__))
                values: Optional[List[float]] = None
                if self.wait is None:
                    values = list(self.group_lb)
                    for classes, _, table in self.tables[m]:
                        for g, row in zip(classes, table):  # type: ignore[arg-type]
                            values[g] = min(values[g], row[n])
                    objective = float(self.fan(values))
                else:
                    self.sets[m] = candidate
                    objective = self._leaf_value()
                    self.sets[m] = hosts
                rows.append(((objective, tensors.module_names[m], names[n]), m, candidate, values))
        return rows

    def aware_greedy(self, base: Placement, max_copies: int) -> Tuple[Placement, float]:
        """:func:`replica_aware_greedy` from a checked ``base``, every
        candidate priced by this search's rows (:meth:`_candidates`).  The
        search is left empty.

        A host is priced only after the ``ConfigurationError`` check the
        placement-level objective makes (a device with no throughput entry
        for the module), in the same order: the base's hosts by model in
        request order, member and device name, then each candidate.
        """
        tensors = self.tensors
        names = tensors.device_names
        seed = base.as_dict()
        current = {
            tensors.module_idx(name): tuple(
                sorted((tensors.device_idx(host) for host in hosts), key=names.__getitem__)
            )
            for name, hosts in seed.items()
        }
        try:
            for classes in self.stacks:
                for idx in self.groups[classes[0]].member_idx:
                    self._check_hosts(idx, current[idx])
            self._fill(current)
            best_objective = self.total_bound()
            while True:
                # ``(objective, module name, device name)`` decides ties.
                best = None
                for row in self._candidates(current, max_copies):
                    if row[0][0] < best_objective and (best is None or row[0] < best[0]):
                        best = row
                if best is None:
                    break
                (best_objective, _, _), m, candidate, values = best
                self._occupy(m, current[m], -1)
                self._occupy(m, candidate, 1)
                if values is not None:
                    self.group_lb[:] = values
                current[m] = candidate
        finally:
            self.reset()
        return Placement(
            {name: tuple(names[n] for n in current[tensors.module_idx(name)]) for name in seed}
        ), best_objective

    def total_bound(self, values: Optional[Sequence[float]] = None) -> float:
        """Fanned per-request bound of the class ``values`` (default: the
        current ones), exact at leaves, request-order sum.

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
        total = self.fan(self.group_lb if values is None else values)
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
        return float(self.fan(self.class_values(self.bounds, lambda b: b.exact(sets, waits))))

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
    _, tensors = _prologue(problem, requests, network, parallel, tensors, "replica")
    search = _ReplicaSearch(tensors, requests, max_copies, congestion=congestion)
    # Attained incumbent: the replica-aware greedy from greedy Algorithm 1
    # (always a member of the search space: <= max_copies sorted host
    # tuples, memory-feasible), priced on this search's rows.
    best_value = float("inf")
    try:
        _, best_value = search.aware_greedy(greedy_placement(problem), max_copies)
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
