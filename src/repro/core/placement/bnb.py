"""Exact branch-and-bound placement — brute force's result beyond its scale.

The paper's "Upper" baseline enumerates all ``N^M`` single-copy assignments
(fine at 4 modules x 5 devices = 625, hopeless at 10 x 32 ≈ 10^15).  The
solvers here search the same space with admissible lower bounds and
residual memory pruning, and return **the identical placement and
objective** as brute force — including its deterministic tie-break toward
the lexicographically smallest assignment.

One search core serves every exact solver, the replica search in
:mod:`repro.core.placement.replicas` included:

- :func:`_dfs` — the single depth-first walk.  Each search supplies only a
  ``children(m)`` that yields ``(bound, choice)`` pairs in visit order,
  plus its ``descend``/``ascend`` undo pair, a prune rule and a leaf hook.
- :func:`_two_phase` — the latency and replica searches' two passes over
  that walk.  Eq. 2's max-over-paths creates large equal-objective
  plateaus (moving a non-bottleneck encoder changes nothing), so:

  1. **Value phase** — heads-first, best-bound-first DFS seeded with an
     attained (greedy) incumbent, pruning ``bound >= best``: a subtree
     whose bound ties the incumbent cannot *strictly* improve it, so
     plateaus die instantly.  Yields the optimal objective ``V``.
  2. **Tie-break phase** — DFS in the brute-force tie-key order (modules by
     sorted name, devices by sorted name), pruning ``bound > V``, stopping
     at the **first** leaf whose objective equals ``V`` — by construction
     the lexicographically-smallest optimal assignment, brute force's pick.
- :class:`_SearchState` — request classes (each (model, source) pair is
  priced once and fanned out in request order), memory residuals and the
  partial assignment.
- :class:`_GroupBound` — the per-class bound, for latency and energy alike.

Bound (per request class, fanned out in request order):

- an *assigned* encoder path costs exactly its prefix plus its output hop
  (latency: ``in + compute + out``, its true cost minus the non-negative
  same-device queue wait; energy: ``compute + input radio + embedding
  radio``);
- an *unassigned* encoder path is lower-bounded by the cheapest such cost
  over every device whose total memory fits the module (and the cheapest
  head host when the head is also unassigned);
- the head costs its own row, minimized over fitting devices while
  unassigned; the parallel encoder stage takes the max over path bounds,
  every other objective their sum.

Every term is a min/max/sum over the *same precomputed floats*
(:mod:`repro.core.placement.tensors`) the exact objective uses, and
IEEE-754 addition/min/max are monotonic, so the bound never exceeds the
true objective of any completion.

:func:`energy_branch_and_bound` is the **energy** counterpart (paper
Sec. VII): minimum total joules subject to the latency objective staying
within a budget.  Energy is additive (no max-plateaus), so it makes a
single pass: a budget-constrained energy-descent incumbent, strict
``bound > best`` pruning with the lexicographic tie-key compared at leaves,
and the latency budget enforced through the same admissible latency
bounds — again bit-identical to brute-force enumeration.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.placement.tensors import (
    CongestionModel,
    CostTensors,
    EnergyRequestGroup,
    EnergyTensors,
    RequestGroup,
    WaitTensors,
    _lpt_waits,
    group_joules,
    group_latency,
    request_classes,
)
from repro.utils.errors import PlacementError


class _GroupBound:
    """Admissible per-(model, source) bounds under partial assignment.

    One class for every single-copy objective; :class:`_LatencyBound` and
    :class:`_EnergyBound` supply the arrays and ``exact(assign)``, the
    class's true total once every member is placed.  ``A[e]`` is encoder
    path ``e``'s prefix cost per device (latency: input transfer + compute;
    energy: compute + input radio), stacked over paths as ``[E, N]``;
    ``group.out[e]`` is the path's ``[N, N]`` output hop and ``head`` the
    head's cost row.  ``parallel`` selects Eq. 2's max over paths (with
    slot contention and LPT queue waits, read from the latency rows);
    otherwise paths add up, and the plain formula is already exact at
    completion.

    Everything scalar is read from Python-float rows (the same doubles)
    built here once per search, in one stacked pass, and freed with the
    search: caching them on the request classes would keep them alive as
    long as the shared tensors.
    """

    def __init__(
        self, tensors: CostTensors, group, A: np.ndarray, head: np.ndarray, parallel: bool
    ) -> None:
        self.group = group
        self.tensors = tensors
        self.parallel = parallel
        self.encoder_idx = group.encoder_idx
        self.head_idx = group.head_idx
        self.members = tuple(set(group.encoder_idx) | {group.head_idx})
        fits = tensors.fits[[group.head_idx, *group.encoder_idx]]
        placeable = fits.any(axis=1)
        if not placeable.all():
            name = [group.head_name, *group.encoder_names][placeable.tolist().index(False)]
            raise PlacementError(
                f"module {name!r} fits on no device; apply compression or "
                "intra-module partitioning first (paper Sec. V-B)"
            )
        head_fit, fit = fits[0], fits[1:]  # [N], [E, N]
        out = np.array(group.out)  # [E, N, N], a set-up temporary
        # Per encoder path e (rows over the device axis):
        #   A[e][ne]          the path prefix with the encoder on ne
        #   enc_assigned[e]   A + (cheapest out over fitting head hosts)
        #   head_assigned[e]  cheapest (A + out[:, nh]) over fitting encoder hosts
        #   free[e]           cheapest over both endpoints
        #   out_min_rows[e]   cheapest out over fitting head hosts
        # Vector math over the device axis reads the numpy arrays.
        out_min = out.min(axis=2, where=head_fit, initial=np.inf)
        self.A = A
        self.out = group.out
        self.head = head
        self.head_min = float(head.min(where=head_fit, initial=np.inf))
        self.enc_assigned = A + out_min
        self.head_assigned = (A[:, :, None] + out).min(
            axis=1, where=fit[:, :, None], initial=np.inf
        )
        self.free: List[float] = self.enc_assigned.min(axis=1, where=fit, initial=np.inf).tolist()
        self.out_min_rows: List[List[float]] = out_min.tolist()
        self.head_row: List[float] = head.tolist()
        self.A_rows: List[List[float]] = A.tolist()
        self.out_rows: List[List[List[float]]] = out.tolist()
        self.enc_assigned_rows: List[List[float]] = self.enc_assigned.tolist()
        self.head_assigned_rows: List[List[float]] = self.head_assigned.tolist()

    # ------------------------------------------------------------------
    # Contention: Eq. 2's max is blind to ``parallel_slots`` until queue
    # waits appear, so co-locating encoders on the fastest device looks
    # free to the per-path bound.  For any device ``n`` hosting assigned
    # encoder set S_n, the LPT makespan of the final set S*_n ⊇ S_n is at
    # least ``sum(compute(S_n)) / slots_n``, and the last-finishing path
    # also pays its input and output transfers — at least the minimum over
    # S_n plus every still-unassigned encoder (any of which may join n).
    # The slack factor absorbs float-rounding differences (the true stage
    # is accumulated in a different operation order); it is ~1e5 times any
    # accumulated ulp error yet far below meaningful latency differences.
    # ------------------------------------------------------------------
    _CONTENTION_SLACK = 1.0 - 1e-9

    def _contention_state(self, assign: Sequence[int]):
        """Assigned per-device loads/members and the unassigned path list."""
        loads: Dict[int, float] = {}
        members: Dict[int, List[int]] = {}
        unassigned: List[int] = []
        for e, idx in enumerate(self.encoder_idx):
            ne = int(assign[idx])
            if ne >= 0:
                loads[ne] = loads.get(ne, 0.0) + self.enc_comp_rows[e][ne]
                members.setdefault(ne, []).append(e)
            else:
                unassigned.append(e)
        return loads, members, unassigned

    def _contention_term(self, n: int, pool: List[int], load: float, nh: int) -> float:
        """Admissible stage bound from slot pressure on device ``n``."""
        in_comm = self.in_comm_rows
        in_min = min(in_comm[e][n] for e in pool)
        if nh >= 0:
            out = self.out_rows
            out_floor = min(out[e][n][nh] for e in pool)
        else:
            out_min = self.out_min_rows
            out_floor = min(out_min[e][n] for e in pool)
        return (in_min + load / self.tensors.slots[n] + out_floor) * self._CONTENTION_SLACK

    def _contention(self, assign: Sequence[int], nh: int) -> float:
        """Max contention term over devices whose slots are oversubscribed."""
        if not self.parallel:
            return 0.0
        loads, members, unassigned = self._contention_state(assign)
        best = 0.0
        for n, here in members.items():
            if len(here) <= self.tensors.slots[n]:
                continue
            term = self._contention_term(n, here + unassigned, loads[n], nh)
            if term > best:
                best = term
        return best

    # ------------------------------------------------------------------
    def lower_bound(self, assign: Sequence[int]) -> float:
        """Scalar bound for the current partial assignment.

        **Exact** (queue waits included) once every member module is
        assigned — at that point the bound equals the group's true total,
        so the value phase's ``>=`` prune filters deep nodes exactly.
        """
        if all(assign[i] >= 0 for i in self.members):
            return float(self.exact(assign))
        nh = int(assign[self.head_idx])
        terms = []
        for e, idx in enumerate(self.encoder_idx):
            terms.append(self._path_term(e, int(assign[idx]), nh))
        if not terms:
            encoder = 0.0
        elif self.parallel:
            encoder = max(terms)
            contention = self._contention(assign, nh)
            if contention > encoder:
                encoder = contention
        else:
            encoder = reduce(operator.add, terms, 0.0)
        head = self.head_row[nh] if nh >= 0 else self.head_min
        return float(encoder + head)

    def _path_term(self, e: int, ne: int, nh: int) -> float:
        """Path ``e``'s bound with its encoder on ``ne`` and the head on
        ``nh`` (``-1`` for unassigned), read from the per-search rows."""
        if ne >= 0:
            if nh >= 0:
                return self.A_rows[e][ne] + self.out_rows[e][ne][nh]
            return self.enc_assigned_rows[e][ne]
        return self.head_assigned_rows[e][nh] if nh >= 0 else self.free[e]

    def bound_vector(self, assign: Sequence[int], module_index: int) -> np.ndarray:
        """Bound per candidate device if ``module_index`` were placed there.

        ``module_index`` must be used by this group (as an encoder, the
        head, or both roles at once).  When placing it *completes* the
        group, the vector holds exact (wait-inclusive) totals.
        """
        if self.parallel and all(assign[i] >= 0 for i in self.members if i != module_index):
            return self._exact_vector(assign, module_index)
        out = self.out
        nh = int(assign[self.head_idx])
        head_here = module_index == self.head_idx
        terms: List[object] = []  # scalars and [N] vectors, in path order
        for e, idx in enumerate(self.encoder_idx):
            ne = int(assign[idx])
            if idx == module_index:
                # This path's encoder is the module being placed.
                if head_here:
                    # Module doubles as the head: both endpoints co-locate.
                    terms.append(self.A[e] + np.diagonal(out[e]))
                elif nh >= 0:
                    terms.append(self.A[e] + out[e][:, nh])
                else:
                    terms.append(self.enc_assigned[e])
            elif head_here:
                # The head is being placed; encoder e is fixed or free.
                if ne >= 0:
                    terms.append(self.A_rows[e][ne] + out[e][ne, :])
                else:
                    terms.append(self.head_assigned[e])
            else:
                # Path untouched by this move: same scalar as lower_bound.
                terms.append(self._path_term(e, ne, nh))
        if not terms:
            encoder = 0.0
        elif self.parallel:
            encoder = reduce(np.maximum, terms)
        else:
            encoder = reduce(operator.add, terms, 0.0)
        if terms and self.parallel:
            # Base contention (moving module still unassigned) is admissible
            # for every candidate; candidates that oversubscribe a device's
            # slots with the newcomer get the tightened per-device term.
            base = self._contention(assign, -1 if head_here else nh)
            if base > 0.0:
                encoder = np.maximum(encoder, base)
            if not head_here:
                encoder = np.asarray(encoder, dtype=np.float64) + np.zeros(len(self.head))
                loads, members, unassigned = self._contention_state(assign)
                e0 = self.encoder_idx.index(module_index)
                joiners = [e for e in unassigned if e != e0]
                for n in range(len(self.head)):
                    here = members.get(n, ())
                    if len(here) + 1 <= self.tensors.slots[n]:
                        continue
                    load = loads.get(n, 0.0) + self.enc_comp_rows[e0][n]
                    term = self._contention_term(n, list(here) + [e0] + joiners, load, nh)
                    if term > encoder[n]:
                        encoder[n] = term
        head = self.head if head_here else (self.head_row[nh] if nh >= 0 else self.head_min)
        total = encoder + head
        if isinstance(total, np.ndarray):
            return total  # a fresh array: the sum allocated it
        return np.full(len(self.head_row), total)

    def _exact_vector(self, assign: Sequence[int], module_index: int) -> np.ndarray:
        """True parallel group latency per candidate device for the last
        free member.

        Queue waits are per-device: placing the last module on ``n`` can
        only change waits *on* ``n``, so the LPT recomputation is confined
        to candidates that would actually exceed their slots; every other
        entry is pure array math over the precomputed tensors (and uses the
        same float-operation order, so entries stay bit-exact).
        """
        slots = self.tensors.slots
        n_devices = len(self.head)
        n_encoders = len(self.encoder_idx)
        moving = [e for e in range(n_encoders) if self.encoder_idx[e] == module_index]
        head_moving = self.head_idx == module_index

        if head_moving and moving:  # dual-role module: rare, go scalar
            fixed_enc = [int(assign[i]) for i in self.encoder_idx]
            values = np.empty(n_devices, dtype=np.float64)
            for n in range(n_devices):
                hosts = [n if e in moving else fixed_enc[e] for e in range(n_encoders)]
                values[n] = self.total(hosts, n)
            return values

        in_comm, enc_comp, out = self.in_comm_rows, self.enc_comp_rows, self.out_rows
        if head_moving:
            # Encoder hosts (hence waits) are fixed; only out_comm varies.
            hosts = [int(assign[i]) for i in self.encoder_idx]
            comps = [enc_comp[e][hosts[e]] for e in range(n_encoders)]
            waits = _lpt_waits(hosts, comps, slots)
            paths = [
                (in_comm[e][hosts[e]] + waits[e] + comps[e]) + self.out[e][hosts[e], :]
                for e in range(n_encoders)
            ]
            return reduce(np.maximum, paths) + self.head

        # One encoder is moving; the head and all other encoders are fixed.
        e0 = moving[0]
        nh = int(assign[self.head_idx])
        hosts = [int(assign[self.encoder_idx[e]]) if e != e0 else -1 for e in range(n_encoders)]
        others = [e for e in range(n_encoders) if e != e0]
        counts: Dict[int, int] = {}
        for e in others:
            counts[hosts[e]] = counts.get(hosts[e], 0) + 1
        waits = _lpt_waits(
            [hosts[e] for e in others], [enc_comp[e][hosts[e]] for e in others], slots
        )
        stage = self.A[e0] + self.out[e0][:, nh]
        for pos, e in enumerate(others):
            ne = hosts[e]
            stage = np.maximum(
                stage, in_comm[e][ne] + waits[pos] + enc_comp[e][ne] + out[e][ne][nh]
            )
        values = stage + self.head_row[nh]
        # Candidates where the newcomer overflows the device's slots need
        # the true LPT schedule (waits change on that device only).
        for n in range(n_devices):
            if counts.get(n, 0) + 1 > slots[n]:
                full_hosts = [n if e == e0 else hosts[e] for e in range(n_encoders)]
                values[n] = self.total(full_hosts, nh)
        return values


class _LatencyBound(_GroupBound):
    """The latency bound of one request class: ``A = in + compute``, exact
    totals by Eq. 1-3 (:func:`~repro.core.placement.tensors.group_latency`)
    over the bound's rows, with queue waits when ``tensors.parallel``."""

    def __init__(self, tensors: CostTensors, group: RequestGroup) -> None:
        in_comm, enc_comp = np.array(group.in_comm), np.array(group.enc_comp)
        super().__init__(tensors, group, in_comm + enc_comp, group.head_comp, tensors.parallel)
        self.in_comm_rows: List[List[float]] = in_comm.tolist()
        self.enc_comp_rows: List[List[float]] = enc_comp.tolist()

    def total(self, enc_hosts: Sequence[int], head_host: int) -> float:
        """Eq. 1-3 latency with encoders on ``enc_hosts``, head on ``head_host``."""
        return group_latency(
            self.in_comm_rows, self.enc_comp_rows, self.out_rows, self.head_row,
            enc_hosts, head_host, self.tensors.slots, self.parallel,
        )

    def exact(self, assign: Sequence[int]) -> float:
        return self.total([assign[i] for i in self.encoder_idx], assign[self.head_idx])


class _EnergyBound(_GroupBound):
    """The energy bound of one request class: paths add up (never
    ``parallel``), exact totals by
    :func:`~repro.core.placement.tensors.group_joules` over the bound's rows."""

    def __init__(self, tensors: CostTensors, group: EnergyRequestGroup) -> None:
        super().__init__(tensors, group, np.array(group.A), group.head_joules, False)

    def exact(self, assign: Sequence[int]) -> float:
        return group_joules(
            self.A_rows, self.out_rows, self.head_row,
            [assign[i] for i in self.encoder_idx], assign[self.head_idx],
        )


@dataclass
class BnBStats:
    """Search accounting (exposed for the scaling benchmarks)."""

    nodes: int = 0
    leaves: int = 0
    pruned: int = 0


def _dfs(
    order: Sequence[int],
    children: Callable[[int], Iterable[Tuple[object, object]]],
    descend: Callable[[int, object], object],
    ascend: Callable[[int, object, object], None],
    prune: Callable[[object], bool],
    at_leaf: Callable[[object], object],
    stats: BnBStats,
):
    """The depth-first walk every exact search runs; modules in ``order``.

    At a node for module ``m``, ``children(m)`` yields ``(bound, choice)``
    pairs in visit order.  A child whose ``prune(bound)`` holds when the
    walk reaches it is skipped (asked then, so an incumbent improved by an
    earlier sibling prunes later ones).  Otherwise ``descend(m, choice)``
    applies it and returns an undo token — or ``None`` to reject it after
    all, having undone itself — and ``ascend(m, choice, token)`` reverts
    it.  At full depth ``at_leaf(bound)`` runs on the complete assignment;
    the first non-``None`` value it returns ends the walk and is returned.
    ``stats`` counts nodes expanded, leaves reached and children pruned.
    """
    last = len(order) - 1

    def walk(depth: int):
        stats.nodes += 1
        m = order[depth]
        for bound, choice in children(m):
            if prune(bound):
                stats.pruned += 1
                continue
            undo = descend(m, choice)
            if undo is None:
                stats.pruned += 1
                continue
            if depth == last:
                stats.leaves += 1
                found = at_leaf(bound)
            else:
                found = walk(depth + 1)
            ascend(m, choice, undo)
            if found is not None:
                return found
        return None

    try:
        return walk(0)
    finally:
        # ``walk`` sits in its own closure cell; left alone, that cycle
        # would keep the search (and its rows) alive until the cyclic
        # collector runs.
        del walk


def _two_phase(search, value_order: Sequence[int], best: float, stats: BnBStats):
    """Value phase, then tie-break phase: brute force's ``(argmin, V)``.

    ``best`` is an attained incumbent objective (or ``inf``).  ``search``
    provides ``value_children``/``tie_children`` (the per-phase child
    order), ``descend``/``ascend``, ``leaf_value(bound)`` (the exact
    objective at a leaf) and ``winner()`` (the placement at a leaf).
    """

    def improve(bound) -> None:
        nonlocal best
        value = search.leaf_value(bound)
        if value < best:
            best = value

    # ``best`` is always attained (the seed or a visited leaf), so a
    # subtree whose bound ties it cannot strictly improve — prune on >=,
    # which collapses Eq. 2's max-plateaus.
    _dfs(value_order, search.value_children, search.descend, search.ascend,
         lambda bound: bound >= best, improve, stats)
    if best == float("inf"):
        raise PlacementError("no memory-feasible placement exists for this instance")
    winner = _dfs(
        search.tie_order(), search.tie_children, search.descend, search.ascend,
        lambda bound: bound > best,
        lambda bound: search.winner() if search.leaf_value(bound) == best else None,
        stats,
    )
    if winner is None:  # pragma: no cover - phase 1 proved V is attained
        raise PlacementError("no memory-feasible placement exists for this instance")
    return winner, best


class _SearchState:
    """What every exact search tracks: request classes and memory.

    Requests sharing a (model, source) pair form one class, priced once
    and fanned out over the request list in request order (keeping the
    objective's left-to-right summation bit-identical to the scalar path).
    ``groups_using[m]`` lists the classes whose model uses module ``m``.
    """

    def __init__(self, tensors: CostTensors, requests: Sequence[InferenceRequest]) -> None:
        self.tensors = tensors
        self.requests = list(requests)
        self.n_modules = tensors.n_modules
        self.n_devices = tensors.n_devices
        self.memory = [int(b) for b in tensors.memory]
        self.residual = [int(b) for b in tensors.capacity]
        #: Module -> device index, ``-1`` while unplaced (a list: the bounds
        #: index Python rows with it).
        self.assign: List[int] = [-1] * self.n_modules
        firsts, self.group_of_request = request_classes(self.requests)
        self.groups: List[RequestGroup] = [
            tensors.group(request.model, request.source) for request in firsts
        ]
        self.groups_using: List[List[int]] = [[] for _ in range(self.n_modules)]
        for g, group in enumerate(self.groups):
            for idx in group.member_idx:
                self.groups_using[idx].append(g)
        #: Per-module class bound vectors from the latest node expansion,
        #: read back by ``descend`` (each module sits once on a DFS path).
        self.vectors: Dict[int, Dict[int, np.ndarray]] = {}

    def fan(self, values: Sequence, total=0.0):
        """Request-order sum of per-class ``values`` (scalars or vectors)."""
        for g in self.group_of_request:
            total = total + values[g]
        return total

    def node_vector(self, m: int, bounds: Sequence[_GroupBound], lbs: List[float]) -> np.ndarray:
        """Fanned per-device bound if module ``m`` went to each device."""
        vectors = {g: bounds[g].bound_vector(self.assign, m) for g in self.groups_using[m]}
        self.vectors[m] = vectors
        values = [vectors[g] if g in vectors else lb for g, lb in enumerate(lbs)]
        return self.fan(values, np.zeros(self.n_devices, dtype=np.float64))

    def place(self, m: int, n: int, lbs: List[float]) -> List[Tuple[int, float]]:
        """Put ``m`` on ``n``, taking its classes' bounds from the node's
        vectors; returns the undo list for :meth:`unplace`."""
        self.assign[m] = n
        self.residual[n] -= self.memory[m]
        vectors = self.vectors[m]
        saved = [(g, lbs[g]) for g in vectors]
        for g, vector in vectors.items():
            lbs[g] = float(vector[n])
        return saved

    def unplace(self, m: int, n: int, lbs: List[float], saved: List[Tuple[int, float]]) -> None:
        for g, value in saved:
            lbs[g] = value
        self.residual[n] += self.memory[m]
        self.assign[m] = -1

    def fitting(self, m: int, devices: Iterable[int]) -> List[int]:
        """``devices``, in order, that still have room for module ``m``."""
        return [n for n in devices if self.residual[n] >= self.memory[m]]

    def ranked(self, m: int, bound: np.ndarray) -> List[Tuple[float, int]]:
        """Devices with room for ``m`` as ``(bound, n)``, best bound first
        (stable: equal bounds keep device-index order)."""
        row = bound.tolist()
        devices = self.fitting(m, range(self.n_devices))
        devices.sort(key=row.__getitem__)
        return [(row[n], n) for n in devices]

    def value_order(self, bounds: Sequence[_GroupBound]) -> List[int]:
        """The value-phase branching order.

        Heads first (they pin every path's output endpoint, tightening all
        bounds at once), then encoders by descending best-case path cost
        from ``bounds`` — under Eq. 2's max the most expensive path decides
        the stage, so fixing critical encoders early moves the bound most —
        then by descending memory; modules no request uses go last.
        """
        head_modules = {g.head_idx for g in self.groups}
        criticality = [0.0] * self.n_modules
        for bound in bounds:
            for e, idx in enumerate(bound.encoder_idx):
                criticality[idx] = max(criticality[idx], bound.free[e])
        names = self.tensors.module_names

        def key(m: int) -> Tuple[int, int, float, int, str]:
            unused = 0 if self.groups_using[m] else 1
            is_head = 0 if m in head_modules else 1
            return (unused, is_head, -criticality[m], -self.memory[m], names[m])

        return sorted(range(self.n_modules), key=key)

    def tie_order(self) -> List[int]:
        """Modules by sorted name — brute force's enumeration order."""
        return sorted(range(self.n_modules), key=lambda m: self.tensors.module_names[m])

    def placement(self, assign: Sequence[int]) -> Placement:
        """The single-copy placement of a full assignment."""
        names = self.tensors.device_names
        return Placement(
            {
                self.tensors.module_names[m]: (names[int(assign[m])],)
                for m in range(self.n_modules)
            }
        )


#: What each exact solver solves, as its empty-request error words it.
_SOLVER_NAMES = {
    "latency": "optimal placement",
    "energy": "energy-optimal placement",
    "replica": "replica placement",
}


def _prologue(
    problem: PlacementProblem,
    requests: Sequence[InferenceRequest],
    network: Optional[Network],
    parallel: bool,
    tensors: Optional[CostTensors],
    kind: str,
) -> Tuple[Network, CostTensors]:
    """The entry checks shared by the exact solvers: ``(network, tensors)``."""
    if not requests:
        raise PlacementError(f"{_SOLVER_NAMES[kind]} needs at least one request to score")
    net = network if network is not None else Network()
    if tensors is None:
        tensors = CostTensors(problem, net, parallel=parallel)
    else:
        tensors.check_compatible(problem, net, parallel)
    return net, tensors


#: Slack on both searches' queue-wait bound terms: admissible in real
#: arithmetic (waits are monotone in load), it absorbs float-reordering
#: noise so bnb == brute stays bit-exact (as ``_CONTENTION_SLACK`` does).
_WAIT_SLACK = 1.0 - 1e-9


class _WaitState:
    """Incremental queue-wait bookkeeping for the congestion-aware searches.

    Maintains load sums over *assigned* members — utilization ``u[n]`` and
    residual ``r[n]`` per device — plus ``inf[n]``, the count of infinite
    (missing-throughput) loads on ``n``, kept apart so ascend undoes them
    exactly (``inf - inf`` would poison the sums with NaN), and ``vis[n]``,
    how many per-request member waits are already charged to ``n``.  Load
    rows are precomputed per (copy count ``k``, module): ``du[k - 1][m]`` /
    ``dr[k - 1][m]`` are the load every model using ``m`` adds to each of
    ``k`` hosts (its rate split evenly over the copies), summed in
    ``WaitTensors.entries`` order.  :meth:`descend`/:meth:`ascend` take
    host sets (one-device tuples in the single-copy search).

    The single-copy bound (:meth:`bound_vector`) re-prices only the
    candidate device at its increased load and charges the module's request
    visits there; other devices keep their partial waits.  The replica
    search charges each class the minimum of :meth:`waits` over its sets.
    Both never exceed the final wait surcharge in real arithmetic (waits
    are monotone in load; unassigned members only add load and visits) and
    are scaled by ``_WAIT_SLACK``.  Leaves are re-priced exactly by
    ``WaitTensors.device_waits``.
    """

    def __init__(self, wait: WaitTensors, search: _SearchState, max_copies: int = 1) -> None:
        tensors = wait.tensors
        shape = (tensors.n_modules, tensors.n_devices)
        copies = range(1, min(max_copies, tensors.n_devices) + 1)
        self.du = [np.zeros(shape, dtype=np.float64) for _ in copies]
        self.dr = [np.zeros(shape, dtype=np.float64) for _ in copies]
        for _model, lam, members, comp in wait.entries(search.requests):
            if lam == 0.0:
                continue  # zero-rate models add no load (and no 0 * inf NaNs)
            for k in copies:
                for m in members:
                    row = comp[m]
                    load = (lam / k) * row
                    self.du[k - 1][m] += load
                    self.dr[k - 1][m] += load * row
        self.wreq = np.zeros(tensors.n_modules, dtype=np.float64)
        for g in search.group_of_request:
            for idx in search.groups[g].member_idx:
                self.wreq[idx] += 1.0
        self.u = np.zeros(tensors.n_devices, dtype=np.float64)
        self.r = np.zeros(tensors.n_devices, dtype=np.float64)
        self.inf = np.zeros(tensors.n_devices, dtype=np.float64)
        self.vis = np.zeros(tensors.n_devices, dtype=np.float64)
        self.slots = np.array(tensors.slots, dtype=np.float64)
        self.rho_max = wait.congestion.rho_max

    def _waits(self, u: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The wait formula per device; ``inf`` where a load is infinite."""
        rho = np.minimum(u / self.slots, self.rho_max)
        waits = (r / self.slots) / (2.0 * (1.0 - rho))
        return np.where(self.inf > 0, np.inf, waits) if self.inf.any() else waits

    def waits(self) -> np.ndarray:
        """Per-device waits from the assigned members' load alone."""
        return self._waits(self.u, self.r)

    def bound_vector(self, m: int) -> np.ndarray:
        """Admissible wait-surcharge bound per candidate device for ``m``
        (single copy; an infinite row entry prices its device at ``inf``)."""
        waits = self.waits()
        charged = self.vis * waits
        base = float(charged.sum())
        new_waits = self._waits(self.u + self.du[0][m], self.r + self.dr[0][m])
        vec = base - charged + (self.vis + self.wreq[m]) * new_waits
        return vec * _WAIT_SLACK

    def descend(self, m: int, hosts: Sequence[int], sign: float = 1.0) -> None:
        du, dr = self.du[len(hosts) - 1][m], self.dr[len(hosts) - 1][m]
        for n in hosts:
            if dr[n] == np.inf:  # an infinite service time makes both rows inf
                self.inf[n] += sign
            else:
                self.u[n] += sign * du[n]
                self.r[n] += sign * dr[n]
            self.vis[n] += sign * self.wreq[m]

    def ascend(self, m: int, hosts: Sequence[int]) -> None:
        self.descend(m, hosts, -1.0)


class _Search(_SearchState):
    """The latency search: per-class bounds plus the optional wait add-on."""

    def __init__(
        self,
        tensors: CostTensors,
        requests: Sequence[InferenceRequest],
        congestion: Optional[CongestionModel] = None,
    ) -> None:
        super().__init__(tensors, requests)
        self.bounds = [_LatencyBound(tensors, group) for group in self.groups]
        self.lbs = [bound.lower_bound(self.assign) for bound in self.bounds]
        self.wait_tensors = WaitTensors(tensors, congestion) if congestion is not None else None
        self.wait = _WaitState(self.wait_tensors, self) if self.wait_tensors is not None else None
        self.tie_devices = sorted(range(self.n_devices), key=lambda n: tensors.device_names[n])

    def leaf_value(self, bound=None) -> float:
        """Exact objective of the full assignment, from the bounds' rows
        (request-order summation, bit-identical to ``CostTensors.objective``
        — or, queue-aware, to ``WaitTensors.objective`` — on the same
        placement).  Queue-aware, each class adds its members' waits in
        member order onto ``0.0``, then onto its Eq. 1-3 total."""
        assign = self.assign
        if self.wait_tensors is None:
            return float(self.fan([b.exact(assign) for b in self.bounds]))
        waits = self.wait_tensors.device_waits(self.requests, lambda m: (assign[m],))
        values = []
        for bound in self.bounds:
            wait = 0.0
            for idx in bound.group.member_idx:
                wait = wait + waits[assign[idx]]
            values.append(bound.exact(assign) + wait)
        return float(self.fan(values))

    def node_bounds(self, m: int) -> np.ndarray:
        """Per-device total bound if module ``m`` went to each device."""
        total = self.node_vector(m, self.bounds, self.lbs)
        if self.wait is not None:
            total = total + self.wait.bound_vector(m)
        return total

    def value_children(self, m: int) -> List[Tuple[float, int]]:
        return self.ranked(m, self.node_bounds(m))

    def tie_children(self, m: int) -> List[Tuple[float, int]]:
        row = self.node_bounds(m).tolist()
        return [(row[n], n) for n in self.fitting(m, self.tie_devices)]

    def descend(self, m: int, n: int) -> List[Tuple[int, float]]:
        saved = self.place(m, n, self.lbs)
        if self.wait is not None:
            self.wait.descend(m, (n,))
        return saved

    def ascend(self, m: int, n: int, saved: List[Tuple[int, float]]) -> None:
        if self.wait is not None:
            self.wait.ascend(m, (n,))
        self.unplace(m, n, self.lbs, saved)

    def winner(self) -> Placement:
        return self.placement(self.assign)


def branch_and_bound_placement(
    problem: PlacementProblem,
    requests: Sequence[InferenceRequest],
    network: Optional[Network] = None,
    parallel: bool = True,
    tensors: Optional[CostTensors] = None,
    stats: Optional[BnBStats] = None,
    congestion: Optional[CongestionModel] = None,
) -> Tuple[Placement, float]:
    """The latency-optimal single-copy placement and its objective.

    Identical to brute force (same argmin, same tie-break toward the
    lexicographically smallest assignment, same float objective) — verified
    property-style in ``tests/test_placement_tensors.py``.

    With ``congestion`` set, the objective becomes queue-aware — base
    latency plus each class's expected waits (see
    :class:`~repro.core.placement.tensors.WaitTensors`) — and the bounds
    gain an admissible wait term; the brute-vs-bnb identity then holds
    against ``LatencyModel.congestion_objective`` (property-tested in
    ``tests/test_placement_wait.py``).  ``congestion=None`` leaves the
    historical solver bit-identical.
    """
    _, tensors = _prologue(problem, requests, network, parallel, tensors, "latency")
    stats = stats if stats is not None else BnBStats()
    search = _Search(tensors, requests, congestion=congestion)
    best_value = float("inf")
    # Seed the incumbent with greedy Algorithm 1 (a member of the search
    # space) so deep subtrees prune early; exactness does not depend on it.
    try:
        from repro.core.placement.greedy import greedy_placement

        seed = greedy_placement(problem)
        for name, hosts in seed.as_dict().items():
            search.assign[tensors.module_idx(name)] = tensors.device_idx(hosts[0])
        best_value = search.leaf_value()
    except PlacementError:
        pass
    finally:
        search.assign[:] = [-1] * search.n_modules
    return _two_phase(search, search.value_order(search.bounds), best_value, stats)


# ======================================================================
# Energy-under-latency-budget branch-and-bound (paper Sec. VII made real)
# ======================================================================

class _EnergySearch(_SearchState):
    """The energy search's state.

    Tracks **two** admissible bound families per request class — joules
    (the objective being minimized) and latency (the Eq. 4a budget
    constraint) — both :class:`_GroupBound`\\ s fanned out in request order
    so leaf values are bit-identical to the scalar oracles.  Energy paths
    add up, so its bounds run ``parallel=False`` over the energy arrays.
    """

    def __init__(
        self,
        tensors: CostTensors,
        energy: EnergyTensors,
        requests: Sequence[InferenceRequest],
        latency_budget: float,
    ) -> None:
        super().__init__(tensors, requests)
        self.latency_budget = latency_budget
        self.lat_bounds = [_LatencyBound(tensors, group) for group in self.groups]
        self.en_bounds = [
            _EnergyBound(tensors, energy.group(group.model, group.source))
            for group in self.groups
        ]
        self.lat_lb = [bound.lower_bound(self.assign) for bound in self.lat_bounds]
        self.en_lb = [bound.lower_bound(self.assign) for bound in self.en_bounds]

    def leaf_energy(self) -> float:
        """Exact joules of the full assignment (request-order summation,
        bit-identical to ``EnergyTensors.objective`` on the same placement)."""
        return float(self.fan([b.exact(self.assign) for b in self.en_bounds]))

    def children(self, m: int) -> List[Tuple[float, int]]:
        """Candidates by ascending energy bound.

        Latency is deliberately not vectorized here: its bound (with the
        per-candidate contention tightening) costs an order of magnitude
        more than the additive energy bound, and the energy prune discards
        most candidates first — the survivors get a scalar latency check in
        :meth:`descend` instead.
        """
        return self.ranked(m, self.node_vector(m, self.en_bounds, self.en_lb))

    def descend(self, m: int, n: int):
        """Place ``m`` on ``n`` and refresh the latency bounds of its
        classes; ``None`` (undone) when the latency bound breaks the budget.

        ``_GroupBound.lower_bound`` on the updated assignment is admissible
        at interior nodes and **exact** once a class is complete, so at a
        leaf the fanned total is the true latency objective, bit-identical
        to ``CostTensors.objective``.
        """
        saved = self.place(m, n, self.en_lb)
        lat_saved = []
        for g in self.groups_using[m]:
            lat_saved.append((g, self.lat_lb[g]))
            self.lat_lb[g] = self.lat_bounds[g].lower_bound(self.assign)
        undo = (saved, lat_saved)
        if float(self.fan(self.lat_lb)) > self.latency_budget:
            self.ascend(m, n, undo)
            return None
        return undo

    def ascend(self, m: int, n: int, undo) -> None:
        saved, lat_saved = undo
        for g, value in lat_saved:
            self.lat_lb[g] = value
        self.unplace(m, n, self.en_lb, saved)


def _any_memory_feasible(search: _SearchState) -> bool:
    """Whether any assignment satisfies the memory constraints alone.

    First-fit backtracking over modules by descending memory — only called
    when the bounded search found no leaf, to decide between the
    ``(None, inf)`` over-budget result and the memory-infeasibility error.
    """
    order = sorted(range(search.n_modules), key=lambda m: -search.memory[m])
    residual = list(search.residual)

    def fit(depth: int) -> bool:
        if depth == len(order):
            return True
        need = search.memory[order[depth]]
        for n in range(search.n_devices):
            if residual[n] >= need:
                residual[n] -= need
                if fit(depth + 1):
                    return True
                residual[n] += need
        return False

    return fit(0)


def _energy_incumbent(search: _EnergySearch) -> Optional[List[int]]:
    """A strong attained incumbent: greedy Algorithm 1, then a steepest
    energy descent over single-module moves that keep the latency objective
    within budget.

    Each module's moves are priced by the search itself: with every other
    module placed, one ``node_vector`` over ``en_bounds`` holds the exact
    joules of every candidate device, and one over ``lat_bounds`` the exact
    latency objective — taken only once some candidate's joules beat the
    running best.  Both are the leaf values' doubles, so the incumbent is
    directly comparable to leaves.  The search's assignment is left empty.

    Returns ``None`` when greedy itself is infeasible or over budget — the
    search then runs incumbent-less and discovers feasibility on its own.
    """
    tensors = search.tensors
    try:
        from repro.core.placement.greedy import greedy_placement

        seed = greedy_placement(tensors.problem)
    except PlacementError:
        return None
    assign, memory, residual = search.assign, search.memory, list(search.residual)
    for name, hosts in seed.as_dict().items():
        m, n = tensors.module_idx(name), tensors.device_idx(hosts[0])
        assign[m] = n
        residual[n] -= memory[m]
    try:
        lat_lb = [bound.lower_bound(assign) for bound in search.lat_bounds]
        if float(search.fan(lat_lb)) > search.latency_budget:
            return None
        en_lb = [bound.lower_bound(assign) for bound in search.en_bounds]
        for _ in range(32):  # steepest descent; passes bounded for safety
            improved = False
            for m in range(search.n_modules):
                current = best_n = assign[m]
                assign[m] = -1  # every other module is placed: the vectors are exact
                joules = search.node_vector(m, search.en_bounds, en_lb).tolist()
                priced = [(en_lb, search.vectors[m])]
                latency = None
                for n in range(search.n_devices):
                    if n == current or residual[n] < memory[m] or not joules[n] < joules[best_n]:
                        continue
                    if latency is None:
                        latency = search.node_vector(m, search.lat_bounds, lat_lb).tolist()
                        priced.append((lat_lb, search.vectors[m]))
                    if latency[n] <= search.latency_budget:
                        best_n = n
                assign[m] = best_n
                if best_n != current:
                    for lbs, vectors in priced:  # the moved classes' exact totals
                        for g, vector in vectors.items():
                            lbs[g] = float(vector[best_n])
                    residual[current] += memory[m]
                    residual[best_n] -= memory[m]
                    improved = True
            if not improved:
                break
        return assign.copy()
    finally:
        assign[:] = [-1] * search.n_modules


def energy_branch_and_bound(
    problem: PlacementProblem,
    requests: Sequence[InferenceRequest],
    network: Optional[Network] = None,
    latency_budget: float = float("inf"),
    parallel: bool = True,
    tensors: Optional[CostTensors] = None,
    energy: Optional[EnergyTensors] = None,
    stats: Optional[BnBStats] = None,
) -> Tuple[Optional[Placement], float]:
    """The minimum-energy single-copy placement within a latency budget.

    Minimizes total joules (:mod:`repro.profiles.energy` semantics) subject
    to the latency objective (Problem 4a) not exceeding ``latency_budget``
    — identical result (same argmin, same joules, same tie-break toward the
    lexicographically smallest assignment) as brute-force enumeration with
    a budget filter, verified property-style in ``tests/test_energy.py``.

    Returns ``(None, inf)`` when memory-feasible placements exist but none
    meets the budget (the budget is inclusive: ``latency == budget`` is
    feasible); raises :class:`PlacementError` when no memory-feasible
    placement exists at all — the same contract as the brute oracle.
    ``+inf`` means no budget; a NaN budget raises :class:`ValueError`.
    """
    if math.isnan(latency_budget):
        raise ValueError("latency_budget must be a number (inf for no budget), got nan")
    _, tensors = _prologue(problem, requests, network, parallel, tensors, "energy")
    if energy is None:
        energy = EnergyTensors(tensors)
    elif energy.tensors is not tensors:
        raise PlacementError(
            "shared energy tensors were built on a different cost-tensor "
            "cache; pass the matching tensors= they were built with"
        )
    stats = stats if stats is not None else BnBStats()
    search = _EnergySearch(tensors, energy, requests, latency_budget)

    def tie_key(assign: Sequence[int]) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """Brute force's deterministic tie-break key for a full assignment."""
        return tuple(
            sorted(
                (tensors.module_names[m], (tensors.device_names[int(assign[m])],))
                for m in range(search.n_modules)
            )
        )

    # Incumbent: greedy Algorithm 1 (budget-feasible whenever the budget is
    # a >= 1 multiple of greedy's own latency, as energy_aware_placement
    # builds it), improved by a budget-constrained energy descent.  A tight
    # attained incumbent is what keeps the frontier small: the search only
    # has to certify optimality, not discover it.
    best_energy = float("inf")
    best_key: Optional[Tuple] = None
    best_assign: Optional[List[int]] = None
    seed_assign = _energy_incumbent(search)
    if seed_assign is not None:
        search.assign[:] = seed_assign
        best_energy = search.leaf_energy()
        best_key = tie_key(search.assign)
        best_assign = search.assign.copy()
        search.assign[:] = [-1] * search.n_modules

    # A single pass.  Pruning is ``energy bound > best`` (strictly:
    # equal-bound subtrees may still hold an equal-joule leaf with a
    # smaller tie-key) and ``latency bound > budget`` (in descend); at a
    # leaf both bounds are exact, so the incumbent update compares the true
    # (joules, tie-key) pair exactly as brute force's argmin does.  Energy
    # is additive, so exact-tie plateaus are rare and the strict prune
    # stays sharp (unlike Eq. 2's max-plateaus in the latency search).
    def at_leaf(bound) -> None:
        nonlocal best_energy, best_key, best_assign
        leaf = float(bound)
        key = tie_key(search.assign) if leaf <= best_energy else None
        if leaf < best_energy or (leaf == best_energy and (best_key is None or key < best_key)):
            best_energy, best_key, best_assign = leaf, key, search.assign.copy()

    _dfs(search.value_order(search.en_bounds), search.children, search.descend,
         search.ascend, lambda bound: bound > best_energy, at_leaf, stats)
    if best_assign is None:
        # Distinguish "over budget" from "memory-infeasible outright" so
        # both solvers keep the same contract: the brute oracle raises when
        # enumeration yields nothing at all.
        if not _any_memory_feasible(search):
            raise PlacementError("no memory-feasible placement exists for this instance")
        return None, float("inf")
    return search.placement(best_assign), best_energy
