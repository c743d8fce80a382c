"""Vectorized cost tensors under the analytic latency model.

Every placement solver in this repo prices candidates with the same three
oracles: per-(model, module, device) compute seconds, device-pair transfer
costs, and the Eq. 2/3 head/encoder topology of each model.  Re-deriving
them per candidate through :class:`~repro.core.routing.latency.LatencyModel`
Python calls dominates brute-force enumeration, branch-and-bound, and
re-placement under serving faults alike.

:class:`CostTensors` precomputes them **once per problem** as numpy arrays:

- ``compute[k][m, n]`` — noise-scaled compute seconds of module ``m`` on
  device ``n`` under model ``k``'s work scale (lazy per model);
- ``in_comm[(source, payload)][n]`` — request-input transfer seconds from a
  source device to each candidate encoder host;
- ``out_comm[m][n_e, n_h]`` — embedding-shipping seconds for encoder ``m``
  between every (encoder host, head host) device pair;
- static masks: per-module memory, per-device capacity and parallel slots,
  and the ``fits[m, n]`` memory-feasibility matrix.

Every entry comes from the *existing scalar oracles*
(``DeviceProfile.compute_seconds``, and ``Network.route`` priced by the same
``transfer_time`` formula as ``Network.transfer_seconds``), and the
reductions below replay the scalar code's float-operation order exactly, so
tensorized prices are **bit-identical** to the scalar path — the property
tests in ``tests/test_placement_tensors.py`` assert ``==`` on the floats.
Eq. 1-3's order lives once, in :func:`group_latency`, the energy order
once, in :func:`group_joules`, and the cheapest-replica argmin once, in
:func:`cheapest_hosts`; all take any row containers (numpy arrays here,
the solvers' per-search Python lists in :mod:`repro.core.placement.bnb`
and :mod:`~repro.core.placement.replicas`).  Every objective sums its
per-class prices in request order through :func:`fan_out`.

The layer is invalidated when the network topology changes (see
``Network.version``).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.network import Network, transfer_time
from repro.cluster.requests import InferenceRequest
from repro.core.models import ModelSpec
from repro.core.placement.problem import Placement, PlacementProblem
from repro.utils.checks import is_finite_real
from repro.utils.errors import ConfigurationError, PlacementError, RoutingError


def _lpt_waits(device_idx: Sequence[int], computes: Sequence[float], slots_of: Sequence[int]) -> List[float]:
    """Same-device serialization waits, replaying the scalar LPT exactly.

    Mirrors ``LatencyModel._charge_same_device_serialization``: encoders
    sharing a device beyond its ``parallel_slots`` are list-scheduled
    longest-compute-first and charged the busy time of their slot.
    Callers skip it when the devices are distinct (every slot count is at
    least 1, so nothing would wait).
    """
    by_device: Dict[int, List[int]] = {}
    for index, dev in enumerate(device_idx):
        by_device.setdefault(dev, []).append(index)
    waits = [0.0] * len(device_idx)
    for dev, indices in by_device.items():
        slots = slots_of[dev]
        if len(indices) <= slots:
            continue
        # Longest first, ties in index order (``reverse`` keeps sort
        # stability); each job takes the first least-busy slot.
        slot_busy = [0.0] * slots
        for i in sorted(indices, key=computes.__getitem__, reverse=True):
            slot = slot_busy.index(min(slot_busy))
            wait = slot_busy[slot]
            slot_busy[slot] += computes[i]
            if wait > 0:
                waits[i] = wait
    return waits


def encoder_waits(
    comp_rows, enc_hosts: Sequence[int], slots: Sequence[int], parallel: bool
) -> Optional[List[float]]:
    """The LPT waits of encoders on ``enc_hosts``, or ``None`` when none
    can wait.

    Only encoders that share a device can wait (every device has at least
    one slot), so the LPT runs only for a parallel class with a repeated
    host.  The waits depend on compute alone, so every request class of a
    model shares them.
    """
    if parallel and len(set(enc_hosts)) < len(enc_hosts):
        return _lpt_waits(enc_hosts, [comp_rows[e][ne] for e, ne in enumerate(enc_hosts)], slots)
    return None


def group_latency(
    in_rows, comp_rows, out_rows, head_row,
    enc_hosts: Sequence[int], head_host: int, slots: Sequence[int], parallel: bool,
    waits: Optional[Sequence[float]] = None,
):
    """Eq. 1-3 latency of one request class, read from row containers.

    ``in_rows[e][n]``, ``comp_rows[e][n]`` and ``out_rows[e][n][h]`` are
    encoder path ``e``'s input transfer, compute and embedding transfer
    with its encoder on ``n`` (and the head on ``h``); ``head_row[h]`` is the
    head's compute.  Per path: in-transfer + LPT wait + compute +
    out-transfer; then the max over paths (``parallel``) or their
    left-to-right sum; then the head.  Any indexable rows work — numpy
    arrays or Python lists of the same doubles price identically.

    ``waits`` are :func:`encoder_waits` of the same hosts, for a caller
    that prices several classes of one model; otherwise they are scheduled
    here.  Where no encoder can wait the wait term is dropped
    (``x + 0.0 == x``).
    """
    if waits is None and parallel and len(set(enc_hosts)) < len(enc_hosts):
        waits = encoder_waits(comp_rows, enc_hosts, slots, parallel)
    if waits is not None:
        totals = [
            in_rows[e][ne] + waits[e] + comp_rows[e][ne] + out_rows[e][ne][head_host]
            for e, ne in enumerate(enc_hosts)
        ]
    else:
        totals = [
            in_rows[e][ne] + comp_rows[e][ne] + out_rows[e][ne][head_host]
            for e, ne in enumerate(enc_hosts)
        ]
    if not totals:
        encoder = 0.0
    elif parallel:
        encoder = max(totals)
    else:
        # Not ``sum``: from Python 3.12 it compensates rounding for exact
        # ``float`` items only, so list rows and numpy rows would part.
        encoder = reduce(operator.add, totals)
    return encoder + head_row[head_host]


def cheapest_hosts(
    in_stack, comp_rows, out_rows, head_row,
    enc_pos: Sequence[int], head_pos: int, candidates: Sequence[Sequence[int]],
    slots: Sequence[int], parallel: bool, waits: Optional[Sequence[float]] = None,
) -> List[Tuple[float, Tuple[int, ...]]]:
    """Cheapest-replica routing of a model's request classes, from row
    containers.

    ``in_stack[i]`` is class ``i``'s input rows (the classes of one model
    differ only there).  ``candidates[i]`` lists the allowed device indices
    of member ``i`` (encoders first in path order, then the head); encoder
    path ``e`` sits at member ``enc_pos[e]`` and the head at ``head_pos``.
    Host combos are enumerated lexicographically over the candidate order,
    each priced per class by :func:`group_latency` (its LPT waits scheduled
    once for every class), and only a **strictly** smaller value replaces
    a class's incumbent — so candidates in sorted-device-name order break
    ties toward the lexicographically smallest combo.  With ``waits``
    (per-device expected queue waits), each combo also pays its hosts'
    waits, added in member order onto ``0.0`` and then onto the Eq. 1-3
    total.

    Returns ``(value, combo)`` per class, ``combo[i]`` member ``i``'s device.
    """
    best: List[Tuple[float, Optional[Tuple[int, ...]]]] = [(float("inf"), None)] * len(in_stack)
    for combo in itertools.product(*candidates):
        enc_hosts = [combo[p] for p in enc_pos]
        lpt = encoder_waits(comp_rows, enc_hosts, slots, parallel)
        wait = None
        if waits is not None:
            wait = 0.0
            for n in combo:
                wait = wait + waits[n]
        for i, in_rows in enumerate(in_stack):
            value = group_latency(
                in_rows, comp_rows, out_rows, head_row,
                enc_hosts, combo[head_pos], slots, parallel, lpt,
            )
            if wait is not None:
                value = value + wait
            if best[i][1] is None or value < best[i][0]:
                best[i] = (value, combo)
    assert all(combo is not None for _, combo in best), "every member's candidates must be non-empty"
    return best  # type: ignore[return-value]


def request_classes(
    requests: Sequence[InferenceRequest],
) -> Tuple[List[InferenceRequest], List[int]]:
    """Requests grouped into (model, source) classes: each class's first
    request, in first-appearance order, and every request's class index.

    Requests of one class have identical isolated prices under any
    placement, so solvers and objectives price each class once.
    """
    index_of: Dict[Tuple[int, str], int] = {}
    firsts: List[InferenceRequest] = []
    classes: List[int] = []
    for request in requests:
        key = (id(request.model), request.source)
        g = index_of.get(key)
        if g is None:
            g = index_of[key] = len(firsts)
            firsts.append(request)
        classes.append(g)
    return firsts, classes


def fan_out(
    requests: Sequence[InferenceRequest], price: Callable[[InferenceRequest], float]
) -> float:
    """Request-order sum of per-class prices (Problem 4a's order).

    ``price`` runs once per (model, source) class, at its first request;
    the class's value is then re-added per request, left to right from
    ``0.0``, so the float result matches the scalar per-request ``sum``.
    """
    firsts, classes = request_classes(requests)
    values = [price(request) for request in firsts]
    total = 0.0
    for g in classes:
        total = total + values[g]
    return float(total)


def group_joules(A_rows, out_rows, head_row, enc_hosts: Sequence[int], head_host: int):
    """Request joules of one class, read from row containers: per encoder
    path ``(A + out)`` — ``A`` the compute + input-radio prefix, ``out`` the
    embedding radio — accumulated left to right from ``0.0``, then the
    head's joules (the order of ``request_energy_joules``)."""
    total = 0.0
    for e, ne in enumerate(enc_hosts):
        total = total + (A_rows[e][ne] + out_rows[e][ne][head_host])
    return total + head_row[head_host]


class RequestGroup:
    """Cached pricing arrays for one (model, source) request class.

    Requests sharing a model spec and a source device have identical
    isolated latency under any placement, so solvers price each class once
    and fan the result out over the request list (in request order, to keep
    the objective's left-to-right summation bit-identical).
    """

    __slots__ = (
        "model", "source", "encoder_names", "head_name",
        "encoder_idx", "head_idx", "in_comm", "enc_comp", "head_comp", "out",
        "member_idx", "enc_pos", "head_pos",
    )

    def __init__(self, tensors: "CostTensors", model: ModelSpec, source: str) -> None:
        self.model = model
        self.source = source
        self.encoder_names: Tuple[str, ...] = model.encoders
        self.head_name: str = model.head
        self.encoder_idx = [tensors.module_idx(name) for name in model.encoders]
        self.head_idx = tensors.module_idx(model.head)
        comp = tensors.model_compute(model)
        self.enc_comp = [comp[i] for i in self.encoder_idx]
        self.head_comp = comp[self.head_idx]
        self.in_comm = []
        for idx in self.encoder_idx:
            module = tensors.modules[idx]
            modality = module.modality or "image"
            payload = model.payload_bytes(modality)
            self.in_comm.append(tensors.in_comm(source, payload))
        self.out = [tensors.out_comm(idx) for idx in self.encoder_idx]
        #: Distinct member module indices, encoders first (in path order),
        #: then the head — the enumeration axis of replica routing — and
        #: where each encoder path's host and the head's sit in a host combo.
        self.member_idx: List[int] = list(dict.fromkeys([*self.encoder_idx, self.head_idx]))
        self.enc_pos = [self.member_idx.index(idx) for idx in self.encoder_idx]
        self.head_pos = self.member_idx.index(self.head_idx)

    def total(self, tensors: "CostTensors", enc_hosts: Sequence[int], head_host: int) -> float:
        """Eq. 1-3 latency with encoders on ``enc_hosts`` and the head on
        ``head_host`` (device indices) — bit-identical to the scalar path."""
        return group_latency(
            self.in_comm, self.enc_comp, self.out, self.head_comp,
            enc_hosts, head_host, tensors.slots, tensors.parallel,
        )

    def best_hosts(
        self,
        tensors: "CostTensors",
        candidates: Sequence[Sequence[int]],
        device_waits: Optional[Sequence[float]] = None,
    ) -> Tuple[float, Tuple[int, ...]]:
        """Cheapest-replica routing over per-member candidate device lists
        (``candidates[i]`` for ``member_idx[i]``), optionally charging each
        combo its hosts' ``device_waits``: :func:`cheapest_hosts` over this
        class's arrays.  Returns ``(total_seconds, chosen host per member)``.
        """
        return cheapest_hosts(
            [self.in_comm], self.enc_comp, self.out, self.head_comp,
            self.enc_pos, self.head_pos, candidates, tensors.slots, tensors.parallel,
            device_waits,
        )[0]


class CostTensors:
    """Shared, precomputed cost arrays for one (problem, network) pair."""

    def __init__(self, problem: PlacementProblem, network: Network, parallel: bool = True) -> None:
        self.problem = problem
        self.network = network
        self.parallel = parallel
        self.modules = problem.modules
        self.module_names: List[str] = [m.name for m in problem.modules]
        self._module_index: Dict[str, int] = {n: i for i, n in enumerate(self.module_names)}
        self.device_names: List[str] = [d.name for d in problem.devices]
        self._device_index: Dict[str, int] = {n: i for i, n in enumerate(self.device_names)}
        self.n_modules = len(self.module_names)
        self.n_devices = len(self.device_names)
        #: Per-module weight bytes (Eq. 4d's ``r_m``) and per-device budgets.
        self.memory = np.array([m.memory_bytes for m in problem.modules], dtype=np.int64)
        self.capacity = np.array([d.memory_bytes for d in problem.devices], dtype=np.int64)
        self.slots: List[int] = [d.parallel_slots for d in problem.devices]
        #: ``fits[m, n]`` — module ``m``'s weights fit on an *empty* device ``n``.
        self.fits = self.memory[:, None] <= self.capacity[None, :]
        self.network_version = network.version
        self._model_compute: Dict[int, Tuple[ModelSpec, np.ndarray]] = {}
        self._routes: Optional[np.ndarray] = None
        self._in_comm: Dict[Tuple[str, int], np.ndarray] = {}
        self._out_comm: Dict[int, np.ndarray] = {}
        self._groups: Dict[Tuple[int, str], RequestGroup] = {}

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------
    def module_idx(self, name: str) -> int:
        try:
            return self._module_index[name]
        except KeyError:
            raise RoutingError(f"module {name!r} is not part of this problem") from None

    def device_idx(self, name: str) -> int:
        try:
            return self._device_index[name]
        except KeyError:
            raise ConfigurationError(f"unknown device {name!r} in problem") from None

    # ------------------------------------------------------------------
    # Tensor builders (lazy; every entry comes from the scalar oracles)
    # ------------------------------------------------------------------
    def model_compute(self, model: ModelSpec) -> np.ndarray:
        """``compute[m, n]`` under ``model``'s work scale (lazy per model).

        Keyed by object identity: cloned specs (no-sharing deployments) get
        their own rows, and holding the spec in the cache pins its id.
        """
        hit = self._model_compute.get(id(model))
        if hit is not None:
            return hit[1]
        noise = self.problem.compute_noise
        arr = np.empty((self.n_modules, self.n_devices), dtype=np.float64)
        for i, module in enumerate(self.modules):
            scale = model.scale_for(module.name)
            for j, device in enumerate(self.problem.devices):
                try:
                    base = device.compute_seconds(module, work_scale=scale)
                except ConfigurationError:
                    arr[i, j] = np.inf  # _checked raises if ever priced
                    continue
                arr[i, j] = base * noise.get((module.name, device.name), 1.0)
        self._model_compute[id(model)] = (model, arr)
        return arr

    def _routes_from(self, source: str) -> np.ndarray:
        """``Network.route`` from ``source`` to every device, as a ``[2, N]``
        (latency, bottleneck) array — ``(0.0, inf)`` at the source itself.

        Device sources read the per-tensors ``[2, N, N]`` route table, built
        on first use (every request class needs all of it for ``out_comm``).
        """
        index = self._device_index.get(source)
        if index is not None:
            return self._route_table()[:, index]
        return np.array([self.network.route(source, name) for name in self.device_names]).T

    def _route_table(self) -> np.ndarray:
        if self._routes is None:
            names = self.device_names
            pairs = [[self.network.route(a, b) for b in names] for a in names]
            self._routes = np.array(pairs, dtype=np.float64).transpose(2, 0, 1)
        return self._routes

    def in_comm(self, source: str, payload_bytes: int) -> np.ndarray:
        """Transfer seconds of a ``payload_bytes`` input from ``source`` to
        every device (zero where the device *is* the source)."""
        key = (source, payload_bytes)
        arr = self._in_comm.get(key)
        if arr is None:
            arr = transfer_time(self._routes_from(source), payload_bytes)
            self._in_comm[key] = arr
        return arr

    def out_comm(self, module_index: int) -> np.ndarray:
        """Embedding transfer seconds ``[encoder host, head host]`` for one module."""
        arr = self._out_comm.get(module_index)
        if arr is None:
            arr = transfer_time(self._route_table(), self.modules[module_index].output_bytes)
            self._out_comm[module_index] = arr
        return arr

    def group(self, model: ModelSpec, source: str) -> RequestGroup:
        key = (id(model), source)
        group = self._groups.get(key)
        if group is None:
            group = RequestGroup(self, model, source)
            self._groups[key] = group
        return group

    # ------------------------------------------------------------------
    # Scalar lookups (LatencyModel delegates here)
    # ------------------------------------------------------------------
    def compute_value(self, model: ModelSpec, module_name: str, device_name: str) -> float:
        """``t^comp`` for one (model, module, device) from the cached tensor."""
        m = self.module_idx(module_name)
        row = self.model_compute(model)[m]
        return float(self._checked(model, row, m, self.device_idx(device_name)))

    def check_compatible(self, problem: PlacementProblem, network: Network, parallel: bool) -> None:
        """Refuse use against a different problem/network/mode.

        A shared tensor cache silently deciding the parallel mode, problem,
        or (possibly since-mutated) network would change results without an
        error, so mismatches fail loudly instead.
        """
        if self.problem is not problem:
            raise PlacementError("shared cost tensors were built for a different problem")
        if self.network is not network:
            raise PlacementError(
                "shared cost tensors were built for a different network; pass "
                "the same network= they were built with"
            )
        if self.parallel != parallel:
            raise PlacementError(
                f"shared cost tensors were built with parallel={self.parallel}, "
                f"but the caller asked for parallel={parallel}"
            )
        if self.network_version != network.version:
            raise PlacementError(
                "shared cost tensors are stale: the network topology changed "
                "after they were built; rebuild them (or let the caller build "
                "its own by omitting tensors=)"
            )

    # ------------------------------------------------------------------
    # Routing and objective (Eq. 7 + Problem 4a), bit-identical
    # ------------------------------------------------------------------
    def _checked(self, model: ModelSpec, row: np.ndarray, module_index: int, device_index: int) -> float:
        """One compute entry; re-raises the scalar path's error on the inf
        sentinel (a device with no throughput entry for the module's kind)."""
        value = row[device_index]
        if value == np.inf:
            # Price through the device oracle so the caller gets its
            # ConfigurationError naming the missing throughput entry.
            module = self.modules[module_index]
            self.problem.devices[device_index].compute_seconds(
                module, work_scale=model.scale_for(module.name)
            )
        return value

    def route_hosts(self, request: InferenceRequest, placement: Placement) -> Dict[str, str]:
        """Fastest-host routing (Eq. 7) against the cached compute tensor."""
        comp = self.model_compute(request.model)
        hosts: Dict[str, str] = {}
        for module_name in request.model.module_names:
            candidates = placement.hosts(module_name)
            if not candidates:
                raise RoutingError(f"module {module_name!r} has no hosts")
            module_index = self.module_idx(module_name)
            row = comp[module_index]
            best = None
            for device in candidates:  # same scan order as the scalar min()
                key = (
                    self._checked(request.model, row, module_index, self.device_idx(device)),
                    device,
                )
                if best is None or key < best:
                    best = key
            hosts[module_name] = best[1]
        return hosts

    def total_latency(self, request: InferenceRequest, placement: Placement) -> float:
        """Single-request Eq. 1 latency under fastest-host routing."""
        hosts = self.route_hosts(request, placement)
        return self._priced_total(request, hosts)

    def _priced_total(self, request: InferenceRequest, hosts: Mapping[str, str]) -> float:
        group = self.group(request.model, request.source)
        enc_hosts = [self.device_idx(hosts[name]) for name in group.encoder_names]
        return float(group.total(self, enc_hosts, self.device_idx(hosts[group.head_name])))

    def objective(self, requests: Sequence[InferenceRequest], placement: Placement) -> float:
        """Problem (4a)'s total latency, summed in request order
        (:func:`fan_out`: each (model, source) class priced once)."""
        return fan_out(requests, lambda request: self.total_latency(request, placement))

    # ------------------------------------------------------------------
    # Cheapest-replica routing (the replica solvers' pricing rule)
    # ------------------------------------------------------------------
    def _replica_candidates(
        self, request: InferenceRequest, placement: Placement
    ) -> Tuple[RequestGroup, List[List[int]]]:
        """``request``'s class and its per-member candidate hosts: device
        indices in sorted device-name order, every one checked for the
        scalar path's missing-throughput error."""
        group = self.group(request.model, request.source)
        comp = self.model_compute(request.model)
        candidates: List[List[int]] = []
        for idx in group.member_idx:
            name = self.modules[idx].name
            hosts = placement.hosts(name)
            if not hosts:
                raise RoutingError(f"module {name!r} has no hosts")
            row = comp[idx]
            ordered: List[int] = []
            for device in sorted(hosts):
                ordered.append(self.device_idx(device))
                self._checked(request.model, row, idx, ordered[-1])
            candidates.append(ordered)
        return group, candidates

    def replica_route_hosts(self, request: InferenceRequest, placement: Placement) -> Dict[str, str]:
        """Joint cheapest-replica routing for one request.

        Unlike Eq. 7 (fastest *compute* host per module, which picks the
        same replica for every request), this minimizes the request's full
        Eq. 1-3 latency — input transfer + compute + embedding shipping —
        over every combination of hosts, so requests from different sources
        spread across replicas.  Ties break toward the lexicographically
        smallest host combination (members in encoders-then-head order,
        candidates in sorted device-name order).
        """
        group, candidates = self._replica_candidates(request, placement)
        combo = group.best_hosts(self, candidates)[1]
        return {
            self.modules[idx].name: self.device_names[combo[i]]
            for i, idx in enumerate(group.member_idx)
        }

    def replica_total_latency(self, request: InferenceRequest, placement: Placement) -> float:
        """Single-request Eq. 1 latency under cheapest-replica routing
        (see :meth:`replica_route_hosts`)."""
        group, candidates = self._replica_candidates(request, placement)
        return group.best_hosts(self, candidates)[0]

    def replica_objective(self, requests: Sequence[InferenceRequest], placement: Placement) -> float:
        """Total latency under cheapest-replica routing, in request order.

        The replica-aware counterpart of :meth:`objective` — the objective
        the solvers in :mod:`repro.core.placement.replicas` minimize,
        fanned out by :func:`fan_out`.  A model's candidate hosts are the
        same for every source, so each model's are looked up once.
        """
        hosts: Dict[int, List[List[int]]] = {}

        def price(request: InferenceRequest) -> float:
            key = id(request.model)
            if key not in hosts:
                hosts[key] = self._replica_candidates(request, placement)[1]
            return self.group(request.model, request.source).best_hosts(self, hosts[key])[0]

        return fan_out(requests, price)


class EnergyRequestGroup:
    """Cached energy-pricing arrays for one (model, source) request class.

    Mirrors :class:`RequestGroup` for the energy objective: per-encoder
    compute-joule rows, input-radio vectors, and ``[N, N]`` embedding-radio
    matrices, combined in the same float-operation order as the scalar
    :func:`repro.profiles.energy.request_energy_joules` — per encoder path
    ``(compute + input radio) + embedding radio``, then the head's joules —
    so tensorized energy is **bit-identical** to the scalar reference.
    """

    __slots__ = (
        "model", "source", "encoder_names", "head_name",
        "encoder_idx", "head_idx", "enc_joules", "head_joules",
        "A", "out",
    )

    def __init__(self, energy: "EnergyTensors", model: ModelSpec, source: str) -> None:
        tensors = energy.tensors
        self.model = model
        self.source = source
        self.encoder_names: Tuple[str, ...] = model.encoders
        self.head_name: str = model.head
        self.encoder_idx = [tensors.module_idx(name) for name in model.encoders]
        self.head_idx = tensors.module_idx(model.head)
        comp = energy.compute_joules(model)
        self.enc_joules = [comp[i] for i in self.encoder_idx]
        self.head_joules = comp[self.head_idx]
        #: ``A[e][ne]`` — compute + input-radio joules with encoder ``e`` on
        #: device ``ne`` (the per-path prefix of the scalar accumulation).
        self.A: List[np.ndarray] = []
        self.out: List[np.ndarray] = []
        for pos, idx in enumerate(self.encoder_idx):
            module = tensors.modules[idx]
            modality = module.modality or "image"
            payload = model.payload_bytes(modality)
            self.A.append(self.enc_joules[pos] + energy.input_radio(source, payload))
            self.out.append(energy.embed_radio(idx))

    def total(self, enc_hosts: Sequence[int], head_host: int) -> float:
        """Request joules with encoders on ``enc_hosts`` and the head on
        ``head_host`` (device indices) — bit-identical to the scalar path."""
        return float(group_joules(self.A, self.out, self.head_joules, enc_hosts, head_host))


class EnergyTensors:
    """Per-problem energy cost arrays, layered on a :class:`CostTensors`.

    Every entry comes from the scalar oracles in
    :mod:`repro.profiles.energy` (``EnergyProfile.compute_joules`` /
    ``transfer_joules`` and the co-location rule of ``hop_radio_joules``),
    so tensorized joules are bit-identical to the scalar reference path:

    - ``compute_joules(model)[m, n]`` — active joules of module ``m`` on
      device ``n`` (active watts x noise-scaled compute seconds);
    - ``input_radio(source, payload)[n]`` — sender + receiver radio joules
      of the modality input hop, **zero where device ``n`` is the source**;
    - ``embed_radio(m)[n_e, n_h]`` — sender + receiver radio joules of the
      embedding hop for encoder ``m``, zero on the diagonal.

    Every device's profile comes from
    :func:`repro.profiles.energy.resolve_energy_profile`, which derives a
    deterministic profile from the name for synthetic scaling devices.
    """

    def __init__(self, tensors: CostTensors) -> None:
        self.tensors = tensors
        #: Each device's profile, resolved once per tensors.
        self.profiles = [self.profile_of(name) for name in tensors.device_names]
        self.active_watts = np.array([p.active_watts for p in self.profiles], dtype=np.float64)
        self.idle_watts = np.array([p.idle_watts for p in self.profiles], dtype=np.float64)
        self._compute_joules: Dict[int, Tuple[ModelSpec, np.ndarray]] = {}
        self._input_radio: Dict[Tuple[str, int], np.ndarray] = {}
        self._embed_radio: Dict[int, np.ndarray] = {}
        self._groups: Dict[Tuple[int, str], EnergyRequestGroup] = {}

    def profile_of(self, name: str):
        """The device's :class:`~repro.profiles.energy.EnergyProfile`."""
        from repro.profiles.energy import resolve_energy_profile

        return resolve_energy_profile(name)

    def _radio(self, payload_bytes: int) -> List[float]:
        """One endpoint's radio joules for ``payload_bytes``, per device."""
        return [profile.transfer_joules(payload_bytes) for profile in self.profiles]

    # ------------------------------------------------------------------
    # Tensor builders (lazy; every entry comes from the scalar oracles)
    # ------------------------------------------------------------------
    def compute_joules(self, model: ModelSpec) -> np.ndarray:
        """``joules[m, n]`` — active-power compute energy under ``model``."""
        hit = self._compute_joules.get(id(model))
        if hit is not None:
            return hit[1]
        arr = self.tensors.model_compute(model) * self.active_watts[None, :]
        self._compute_joules[id(model)] = (model, arr)
        return arr

    def input_radio(self, source: str, payload_bytes: int) -> np.ndarray:
        """Radio joules of a ``payload_bytes`` input hop from ``source`` to
        each device (zero where the device *is* the source)."""
        key = (source, payload_bytes)
        arr = self._input_radio.get(key)
        if arr is None:
            # ``hop_radio_joules``' formula and order (sender TX + receiver
            # RX, free when co-located), from the resolved profiles.
            radio = self._radio(payload_bytes)
            index = self.tensors._device_index.get(source)
            if index is not None:
                tx = radio[index]
            else:
                tx = self.profile_of(source).transfer_joules(payload_bytes)
            values = [0.0 if n == index else tx + rx for n, rx in enumerate(radio)]
            arr = np.array(values, dtype=np.float64)
            self._input_radio[key] = arr
        return arr

    def embed_radio(self, module_index: int) -> np.ndarray:
        """Embedding-hop radio joules ``[encoder host, head host]`` for one
        module (zero on the diagonal — co-located hops are free)."""
        arr = self._embed_radio.get(module_index)
        if arr is None:
            payload = self.tensors.modules[module_index].output_bytes
            # ``hop_radio_joules``' formula and order, as in input_radio.
            radio = self._radio(payload)
            arr = np.array(
                [[0.0 if a == b else tx + rx for b, rx in enumerate(radio)]
                 for a, tx in enumerate(radio)],
                dtype=np.float64,
            )
            self._embed_radio[module_index] = arr
        return arr

    def group(self, model: ModelSpec, source: str) -> EnergyRequestGroup:
        key = (id(model), source)
        group = self._groups.get(key)
        if group is None:
            group = EnergyRequestGroup(self, model, source)
            self._groups[key] = group
        return group

    # ------------------------------------------------------------------
    # Objective (bit-identical to the scalar energy_objective)
    # ------------------------------------------------------------------
    def request_energy(self, request: InferenceRequest, placement: Placement) -> float:
        """Single-request joules under fastest-host routing (Eq. 7)."""
        hosts = self.tensors.route_hosts(request, placement)
        group = self.group(request.model, request.source)
        enc_hosts = [self.tensors.device_idx(hosts[name]) for name in group.encoder_names]
        return group.total(enc_hosts, self.tensors.device_idx(hosts[group.head_name]))

    def objective(self, requests: Sequence[InferenceRequest], placement: Placement) -> float:
        """Total joules over a request set, summed in request order
        (:func:`fan_out`: each (model, source) class priced once)."""
        return fan_out(requests, lambda request: self.request_energy(request, placement))


@dataclass(frozen=True)
class CongestionModel:
    """Offered load for queue-aware placement: per-model arrival rates.

    ``rates`` maps model names to Poisson arrival rates in requests per
    second of simulated time; models absent from the mapping contribute no
    load.  ``rho_max`` caps the utilization fed into the wait formula so an
    overloaded device prices a large-but-finite wait instead of a pole (the
    steady-state M/G/1 wait diverges at ``rho == 1``; the solver only needs
    the ordering, not the divergence).
    """

    rates: Mapping[str, float]
    rho_max: float = 0.95

    def __post_init__(self) -> None:
        if not (is_finite_real(self.rho_max) and 0.0 < self.rho_max < 1.0):
            raise ConfigurationError(
                f"rho_max must be in (0, 1), got {self.rho_max!r}"
            )
        for name, rate in self.rates.items():
            if not (is_finite_real(rate) and rate >= 0.0):
                raise ConfigurationError(
                    f"arrival rate for {name!r} must be a finite, non-negative number, got {rate!r}"
                )
        object.__setattr__(self, "rates", dict(self.rates))

    def rate_for(self, model_name: str) -> float:
        """Arrival rate (req/s) for ``model_name``; 0 when untracked."""
        return self.rates.get(model_name, 0.0)

    @classmethod
    def from_trace(cls, trace, rho_max: float = 0.95) -> "CongestionModel":
        """Empirical rates from an :class:`~repro.serving.workload.ArrivalTrace`.

        Each model's rate is its arrival count divided by the trace window —
        exactly the traffic the serving runtime is about to replay, so the
        solver prices the congestion that ``serve`` will measure.  The rates
        keep the trace's first-appearance order, which fixes the order of
        :class:`WaitTensors`' float sums.
        """
        counts = trace.model_counts()
        duration = float(trace.duration_s)
        if duration <= 0:
            raise ConfigurationError(f"trace duration must be positive, got {duration}")
        return cls(
            rates={name: count / duration for name, count in counts.items()},
            rho_max=rho_max,
        )


class WaitTensors:
    """Expected queue-wait pricing layered on :class:`CostTensors`.

    The analytic objective prices each request on an empty cluster; serving
    measures queueing.  This layer closes that gap with an M/G/1-style
    expected-wait model: every deployed model ``k`` offers Poisson load
    ``lam_k`` (from :class:`CongestionModel`), split evenly across the
    replicas of each of its member modules.  A device ``n`` with ``c_n``
    parallel executor slots then accumulates

    - utilization ``u_n   = sum lam * s`` (busy seconds per second), and
    - residual    ``R_n   = sum lam * s^2`` (second moment of offered work),

    over every (model, member, replica) contribution with service time
    ``s = comp[k][m, n]``, and charges each visit the Pollaczek–Khinchine
    style expected wait

        ``W_n = (R_n / c_n) / (2 * (1 - min(u_n / c_n, rho_max)))``

    in seconds.  ``W_n`` is monotone in the load placed on ``n``, zero when
    arrival rates are zero (so queue-aware objectives reduce **bit-exactly**
    to the base objective — ``t + 0.0 == t`` in IEEE arithmetic), and finite
    under overload thanks to the ``rho_max`` clamp.

    A request's queue-aware value is its base Eq. 1-3 latency plus the sum
    of ``W`` over the hosts its member modules route to (one wait per
    distinct member, in member order).  Accumulation orders are fixed —
    models in request first-appearance order, members in ``member_idx``
    order, replica hosts in sorted-device-name order — so the tensorized
    waits are **bit-identical** to the scalar oracle
    (``congestion_waits_scalar`` in ``tests/scalar_reference.py``).
    """

    def __init__(self, tensors: CostTensors, congestion: CongestionModel) -> None:
        self.tensors = tensors
        self.congestion = congestion
        self._entry_cache: Dict[Tuple[int, ...], List[Tuple[ModelSpec, float, List[int], np.ndarray]]] = {}

    def entries(
        self, requests: Sequence[InferenceRequest]
    ) -> List[Tuple[ModelSpec, float, List[int], np.ndarray]]:
        """Distinct deployed models in request first-appearance order.

        Each entry is ``(model, rate, member_idx, compute)`` — the model's
        arrival rate, its distinct member module indices (encoders first,
        then the head), and its compute tensor.  Load is keyed by *model*,
        not (model, source) class: a model's traffic must be counted once
        no matter how many sources request it.
        """
        key = tuple(id(request.model) for request in requests)
        cached = self._entry_cache.get(key)
        if cached is not None:
            return cached
        entries: List[Tuple[ModelSpec, float, List[int], np.ndarray]] = []
        seen = set()
        for request in requests:
            model = request.model
            if id(model) in seen:
                continue
            seen.add(id(model))
            members: List[int] = []
            for name in list(model.encoders) + [model.head]:
                idx = self.tensors.module_idx(name)
                if idx not in members:
                    members.append(idx)
            entries.append(
                (model, self.congestion.rate_for(model.name), members,
                 self.tensors.model_compute(model))
            )
        self._entry_cache[key] = entries
        return entries

    def device_waits(
        self,
        requests: Sequence[InferenceRequest],
        hosts_of: Callable[[int], Optional[Sequence[int]]],
    ) -> List[float]:
        """Canonical per-device expected waits ``W_n`` (Python floats).

        ``hosts_of(m)`` returns the device indices hosting module ``m`` (in
        sorted-device-name order), or ``None`` to skip an unassigned module
        — partial-assignment waits from the canonical prefix of the load
        sums are what the branch-and-bound bounds build on.
        """
        n_devices = self.tensors.n_devices
        u = [0.0] * n_devices
        r = [0.0] * n_devices
        for model, lam, members, comp in self.entries(requests):
            for m in members:
                hosts = hosts_of(m)
                if hosts is None:
                    continue
                share = lam / len(hosts)
                row = comp[m]
                for n in hosts:
                    s = float(self.tensors._checked(model, row, m, n))
                    load = share * s
                    u[n] = u[n] + load
                    r[n] = r[n] + load * s
        return self.waits_from(u, r)

    def waits_from(self, u: Sequence[float], r: Sequence[float]) -> List[float]:
        """The wait formula applied per device, in device order."""
        slots = self.tensors.slots
        rho_max = self.congestion.rho_max
        waits = []
        for n in range(self.tensors.n_devices):
            rho = u[n] / slots[n]
            if rho > rho_max:
                rho = rho_max
            waits.append((r[n] / slots[n]) / (2.0 * (1.0 - rho)))
        return waits

    def _placement_hosts(self, placement: Placement) -> Callable[[int], Tuple[int, ...]]:
        tensors = self.tensors
        cache: Dict[int, Tuple[int, ...]] = {}

        def hosts_of(m: int) -> Tuple[int, ...]:
            got = cache.get(m)
            if got is None:
                name = tensors.modules[m].name
                hosts = placement.hosts(name)
                if not hosts:
                    raise RoutingError(f"module {name!r} has no hosts")
                got = tuple(tensors.device_idx(device) for device in sorted(hosts))
                cache[m] = got
            return got

        return hosts_of

    def waits_for_placement(
        self, requests: Sequence[InferenceRequest], placement: Placement
    ) -> List[float]:
        """Per-device waits with each model's load split over its replicas."""
        return self.device_waits(requests, self._placement_hosts(placement))

    # ------------------------------------------------------------------
    # Queue-aware objectives (base Eq. 1-3 latency + routed waits)
    # ------------------------------------------------------------------
    def objective(self, requests: Sequence[InferenceRequest], placement: Placement) -> float:
        """Queue-aware Problem (4a): per-class base latency plus the waits
        of the hosts Eq. 7 routing picks, fanned out in request order."""
        tensors = self.tensors
        waits = self.waits_for_placement(requests, placement)

        def price(request: InferenceRequest) -> float:
            hosts = tensors.route_hosts(request, placement)
            base = tensors._priced_total(request, hosts)
            wait = 0.0
            for idx in tensors.group(request.model, request.source).member_idx:
                wait = wait + waits[tensors.device_idx(hosts[tensors.modules[idx].name])]
            return base + wait

        return fan_out(requests, price)

    def replica_objective(
        self, requests: Sequence[InferenceRequest], placement: Placement
    ) -> float:
        """Queue-aware cheapest-replica objective: routing itself minimizes
        base latency *plus* the chosen hosts' waits, then classes fan out in
        request order (the replica solvers' congestion objective)."""
        tensors = self.tensors
        waits = self.waits_for_placement(requests, placement)

        def price(request: InferenceRequest) -> float:
            group, candidates = tensors._replica_candidates(request, placement)
            return group.best_hosts(tensors, candidates, device_waits=waits)[0]

        return fan_out(requests, price)
