"""Analytic end-to-end latency (paper Eq. 1-3) and routing rule (Eq. 7).

For a request ``q`` for model ``k(q)`` from source ``n_q``:

- each encoder path costs input transmission + encoding + output
  transmission to the head's device (Eq. 2's three terms);
- with parallel processing, the encoder stage is the **max** over encoder
  paths; without it (the Table VII ablation), the sum;
- the head adds its pure compute time (Eq. 3).

The analytic model prices a single request in isolation — queueing from
concurrent requests is the executor's job.  Both consult the same compute
and network oracles, so they agree on an idle cluster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.modules import ModuleSpec
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.placement.tensors import CostTensors, WaitTensors
from repro.utils.errors import RoutingError


@dataclass(frozen=True)
class RoutingDecision:
    """Chosen host per module for one request (the ``y^q_{m,n}``)."""

    request: InferenceRequest
    hosts: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hosts", MappingProxyType(dict(self.hosts)))

    def host_of(self, module_name: str) -> str:
        try:
            return self.hosts[module_name]
        except KeyError:
            raise RoutingError(
                f"request {self.request.request_id}: module {module_name!r} unrouted"
            ) from None


@dataclass(frozen=True)
class EncoderPath:
    """Latency breakdown of one encoder path (Eq. 2's bracketed term).

    ``queue_wait`` is the same-device serialization delay: when several of
    the request's encoders land on one device with fewer compute slots than
    encoders, they cannot actually overlap — the analytic model charges the
    wait so it agrees with the discrete-event executor.
    """

    module_name: str
    device: str
    input_comm: float
    compute: float
    output_comm: float
    queue_wait: float = 0.0

    @property
    def total(self) -> float:
        return self.input_comm + self.queue_wait + self.compute + self.output_comm


@dataclass(frozen=True)
class LatencyBreakdown:
    """Full Eq. 1 decomposition for one request."""

    request: InferenceRequest
    routing: RoutingDecision
    encoder_paths: Tuple[EncoderPath, ...]
    head_compute: float
    parallel: bool

    @property
    def encoder_latency(self) -> float:
        """``t_enc`` of Eq. 2: max over paths when parallel, else their sum."""
        totals = [path.total for path in self.encoder_paths]
        if not totals:
            return 0.0
        return max(totals) if self.parallel else sum(totals)

    @property
    def total(self) -> float:
        """``t_total`` of Eq. 1."""
        return self.encoder_latency + self.head_compute

    @property
    def bottleneck_encoder(self) -> Optional[str]:
        """The slowest encoder path's module (drives parallel latency)."""
        if not self.encoder_paths:
            return None
        return max(self.encoder_paths, key=lambda path: path.total).module_name


class LatencyModel:
    """Prices requests against a placement on a network of devices.

    Routing, single-request pricing, and the objective run on the shared
    :class:`~repro.core.placement.tensors.CostTensors` layer (precomputed
    per-problem numpy arrays, bit-identical to the scalar formulas).  The
    ``*_scalar`` methods keep the original loop implementations as the
    independent reference the tensor path is tested against; no pricing
    path reaches them.
    """

    def __init__(
        self,
        problem: PlacementProblem,
        network: Network,
        parallel: bool = True,
        tensors=None,
    ) -> None:
        self.problem = problem
        self.network = network
        self.parallel = parallel
        self._modules: Dict[str, ModuleSpec] = {m.name: m for m in problem.modules}
        if tensors is not None:
            # Adopt a caller-shared CostTensors (e.g. one tensor build priced
            # both greedy and the exact solver); validated, never trusted.
            tensors.check_compatible(problem, network, parallel)
        self._tensors = tensors

    @property
    def tensors(self) -> CostTensors:
        """The shared cost-tensor layer, rebuilt lazily whenever the
        network's topology version moves."""
        if (
            self._tensors is None
            or self._tensors.network is not self.network
            or self._tensors.network_version != self.network.version
        ):
            self._tensors = CostTensors(self.problem, self.network, parallel=self.parallel)
        return self._tensors

    # ------------------------------------------------------------------
    # Timing oracles (request-scaled, unlike the problem's planning scale)
    # ------------------------------------------------------------------
    def compute_seconds(self, request: InferenceRequest, module_name: str, device_name: str) -> float:
        """``t^comp_{m,n}`` in seconds with the requesting model's work scale.

        Raises :class:`RoutingError` for a module outside the problem, and
        :class:`ConfigurationError` for an unknown device or one with no
        throughput entry for the module's kind.
        """
        return self.tensors.compute_value(request.model, module_name, device_name)

    def compute_seconds_scalar(self, request: InferenceRequest, module_name: str, device_name: str) -> float:
        """``t^comp`` in seconds through the device oracle directly — never
        the tensor cache, so the ``*_scalar`` reference paths stay fully
        independent."""
        module = self._module(module_name)
        device = self.problem.device(device_name)
        base = device.compute_seconds(module, work_scale=request.model.scale_for(module_name))
        return base * self.problem.compute_noise.get((module_name, device_name), 1.0)

    def _module(self, name: str) -> ModuleSpec:
        try:
            return self._modules[name]
        except KeyError:
            raise RoutingError(f"module {name!r} is not part of this problem") from None

    def module(self, name: str) -> ModuleSpec:
        """Public module lookup against this problem's (possibly cloned) table."""
        return self._module(name)

    # ------------------------------------------------------------------
    # Eq. 7: route each required module to its fastest hosting device
    # ------------------------------------------------------------------
    def route(self, request: InferenceRequest, placement: Placement) -> RoutingDecision:
        return RoutingDecision(
            request=request, hosts=self.tensors.route_hosts(request, placement)
        )

    def route_scalar(self, request: InferenceRequest, placement: Placement) -> RoutingDecision:
        """Reference implementation of Eq. 7 (no tensor cache)."""
        hosts: Dict[str, str] = {}
        for module_name in request.model.module_names:
            candidates = placement.hosts(module_name)
            if not candidates:
                raise RoutingError(f"module {module_name!r} has no hosts")
            hosts[module_name] = min(
                candidates,
                key=lambda device: (
                    self.compute_seconds_scalar(request, module_name, device),
                    device,
                ),
            )
        return RoutingDecision(request=request, hosts=hosts)

    # ------------------------------------------------------------------
    # Cheapest-replica routing (transfer-aware; the replica solvers' rule)
    # ------------------------------------------------------------------
    def _replica_best_scalar(
        self, request: InferenceRequest, placement: Placement
    ) -> Tuple[float, RoutingDecision]:
        """Reference cheapest-replica routing: joint min of Eq. 1-3 latency.

        Eq. 7 routes every module to its fastest *compute* host, which is
        the same device for every request — replicas never change it.  The
        replica rule instead minimizes the request's full latency (input
        transfer + compute + embedding shipping) over every combination of
        hosts drawn from each module's replica set, so requests from
        different sources pick different replicas.  Ties break toward the
        lexicographically smallest host combination (modules in
        encoders-then-head order, hosts in sorted device-name order) —
        identical to the tensorized path, property-tested with ``==``.
        """
        members: List[str] = []
        for name in request.model.module_names:
            if name not in members:
                members.append(name)
        candidate_lists: List[List[str]] = []
        for name in members:
            hosts = placement.hosts(name)
            if not hosts:
                raise RoutingError(f"module {name!r} has no hosts")
            candidate_lists.append(sorted(hosts))
        best: Optional[Tuple[float, RoutingDecision]] = None
        for combo in itertools.product(*candidate_lists):
            decision = RoutingDecision(request=request, hosts=dict(zip(members, combo)))
            total = self._breakdown(
                request, placement, decision, self.compute_seconds_scalar
            ).total
            if best is None or total < best[0]:
                best = (total, decision)
        assert best is not None  # candidate_lists are all non-empty
        return best

    def replica_route(self, request: InferenceRequest, placement: Placement) -> RoutingDecision:
        """Cheapest-replica hosts for one request (see `_replica_best_scalar`)."""
        return RoutingDecision(
            request=request, hosts=self.tensors.replica_route_hosts(request, placement)
        )

    def replica_route_scalar(self, request: InferenceRequest, placement: Placement) -> RoutingDecision:
        """Reference cheapest-replica routing (no tensor cache)."""
        return self._replica_best_scalar(request, placement)[1]

    def replica_total_latency(self, request: InferenceRequest, placement: Placement) -> float:
        """``t_total`` (seconds) under cheapest-replica routing."""
        return self.tensors.replica_total_latency(request, placement)

    def replica_total_latency_scalar(self, request: InferenceRequest, placement: Placement) -> float:
        """Reference scalar ``t_total`` under cheapest-replica routing."""
        return self._replica_best_scalar(request, placement)[0]

    def replica_objective(self, requests: Sequence[InferenceRequest], placement: Placement) -> float:
        """Total latency (seconds) over ``requests`` under cheapest-replica
        routing — the objective the replica-aware solvers minimize."""
        return self.tensors.replica_objective(requests, placement)

    def replica_objective_scalar(self, requests: Sequence[InferenceRequest], placement: Placement) -> float:
        """Reference scalar replica objective: per-request loops, no tensors."""
        return sum(
            self.replica_total_latency_scalar(request, placement) for request in requests
        )

    # ------------------------------------------------------------------
    # Queue-aware pricing (expected waits from offered load; see
    # repro.core.placement.tensors.WaitTensors for the model)
    # ------------------------------------------------------------------
    @staticmethod
    def _member_names(model) -> List[str]:
        """Distinct member modules, encoders first then head (``M_k``)."""
        members: List[str] = []
        for name in model.module_names:
            if name not in members:
                members.append(name)
        return members

    def congestion_waits_scalar(
        self, requests: Sequence[InferenceRequest], placement: Placement, congestion
    ) -> Dict[str, float]:
        """Per-device expected wait ``W_n`` in seconds — scalar reference.

        M/G/1-style: each distinct model (request first-appearance order)
        splits its arrival rate evenly over each member module's replicas
        (sorted-device-name order) and contributes utilization
        ``u_n += lam * s`` and residual ``R_n += lam * s^2`` per visit with
        service time ``s``; a device with ``c_n`` parallel slots then
        charges ``W_n = (R_n / c_n) / (2 * (1 - min(u_n / c_n, rho_max)))``.
        Zero arrival rates give ``W_n == 0.0`` exactly.  The tensorized
        :class:`~repro.core.placement.tensors.WaitTensors` replays this
        float-operation order bit-for-bit.
        """
        u: Dict[str, float] = {}
        r: Dict[str, float] = {}
        seen = set()
        for request in requests:
            model = request.model
            if id(model) in seen:
                continue
            seen.add(id(model))
            lam = congestion.rate_for(model.name)
            for name in self._member_names(model):
                hosts = placement.hosts(name)
                if not hosts:
                    raise RoutingError(f"module {name!r} has no hosts")
                ordered = sorted(hosts)
                share = lam / len(ordered)
                for device in ordered:
                    s = self.compute_seconds_scalar(request, name, device)
                    load = share * s
                    u[device] = u.get(device, 0.0) + load
                    r[device] = r.get(device, 0.0) + load * s
        waits: Dict[str, float] = {}
        rho_max = congestion.rho_max
        for device in self.problem.devices:
            slots = device.parallel_slots
            rho = u.get(device.name, 0.0) / slots
            if rho > rho_max:
                rho = rho_max
            waits[device.name] = (r.get(device.name, 0.0) / slots) / (2.0 * (1.0 - rho))
        return waits

    def congestion_waits(
        self, requests: Sequence[InferenceRequest], placement: Placement, congestion
    ) -> Dict[str, float]:
        """Per-device expected waits ``W_n`` in seconds."""
        tensors = self.tensors
        waits = WaitTensors(tensors, congestion).waits_for_placement(requests, placement)
        return {tensors.device_names[n]: waits[n] for n in range(len(waits))}

    def congestion_objective(
        self, requests: Sequence[InferenceRequest], placement: Placement, congestion
    ) -> float:
        """Queue-aware Problem (4a): base latency plus routed-host waits."""
        return WaitTensors(self.tensors, congestion).objective(requests, placement)

    def congestion_objective_scalar(
        self, requests: Sequence[InferenceRequest], placement: Placement, congestion
    ) -> float:
        """Reference scalar queue-aware objective.

        Per (model, source) class: the base Eq. 1-3 total under Eq. 7
        routing plus one wait per distinct member module at its routed host
        (member order), fanned out in request order — the float-operation
        order :class:`~repro.core.placement.tensors.WaitTensors` mirrors.
        """
        waits = self.congestion_waits_scalar(requests, placement, congestion)
        cache: Dict[Tuple[int, str], float] = {}
        total = 0.0
        for request in requests:
            key = (id(request.model), request.source)
            value = cache.get(key)
            if value is None:
                decision = self.route_scalar(request, placement)
                base = self._breakdown(
                    request, placement, decision, self.compute_seconds_scalar
                ).total
                wait = 0.0
                for name in self._member_names(request.model):
                    wait = wait + waits[decision.host_of(name)]
                value = base + wait
                cache[key] = value
            total = total + value
        return float(total)

    def _congestion_replica_best_scalar(
        self,
        request: InferenceRequest,
        placement: Placement,
        waits: Mapping[str, float],
    ) -> Tuple[float, RoutingDecision]:
        """Wait-aware cheapest-replica routing (scalar reference).

        Identical enumeration and tie-break to :meth:`_replica_best_scalar`,
        but each host combination is charged its hosts' expected waits on
        top of the Eq. 1-3 total, so routing itself avoids hot devices.
        """
        members = self._member_names(request.model)
        candidate_lists: List[List[str]] = []
        for name in members:
            hosts = placement.hosts(name)
            if not hosts:
                raise RoutingError(f"module {name!r} has no hosts")
            candidate_lists.append(sorted(hosts))
        best: Optional[Tuple[float, RoutingDecision]] = None
        for combo in itertools.product(*candidate_lists):
            decision = RoutingDecision(request=request, hosts=dict(zip(members, combo)))
            total = self._breakdown(
                request, placement, decision, self.compute_seconds_scalar
            ).total
            wait = 0.0
            for device in combo:
                wait = wait + waits[device]
            value = total + wait
            if best is None or value < best[0]:
                best = (value, decision)
        assert best is not None  # candidate_lists are all non-empty
        return best

    def congestion_replica_objective(
        self, requests: Sequence[InferenceRequest], placement: Placement, congestion
    ) -> float:
        """Queue-aware cheapest-replica objective (the replica solvers'
        congestion objective): routing minimizes latency *plus* waits."""
        return WaitTensors(self.tensors, congestion).replica_objective(requests, placement)

    def congestion_replica_objective_scalar(
        self, requests: Sequence[InferenceRequest], placement: Placement, congestion
    ) -> float:
        """Reference scalar queue-aware replica objective."""
        waits = self.congestion_waits_scalar(requests, placement, congestion)
        cache: Dict[Tuple[int, str], float] = {}
        total = 0.0
        for request in requests:
            key = (id(request.model), request.source)
            value = cache.get(key)
            if value is None:
                value = self._congestion_replica_best_scalar(
                    request, placement, waits
                )[0]
                cache[key] = value
            total = total + value
        return float(total)

    # ------------------------------------------------------------------
    # Eq. 1-3
    # ------------------------------------------------------------------
    def breakdown(
        self, request: InferenceRequest, placement: Placement,
        routing: Optional[RoutingDecision] = None,
    ) -> LatencyBreakdown:
        """Price one request (single-request, no queueing)."""
        return self._breakdown(request, placement, routing, self.compute_seconds)

    def _breakdown(
        self,
        request: InferenceRequest,
        placement: Placement,
        routing: Optional[RoutingDecision],
        compute_seconds,
    ) -> LatencyBreakdown:
        decision = routing if routing is not None else self.route(request, placement)
        # Resolve modules from the problem's table (NOT the global catalog):
        # the no-sharing deployment uses per-model cloned module names that
        # exist only in this problem.
        encoders = [self._module(name) for name in request.model.encoders]
        head = self._module(request.model.head)
        head_device = decision.host_of(head.name)
        paths = []
        for encoder in encoders:
            device = decision.host_of(encoder.name)
            modality = encoder.modality or "image"
            input_comm = self.network.transfer_seconds(
                request.source, device, request.model.payload_bytes(modality)
            )
            compute = compute_seconds(request, encoder.name, device)
            output_comm = self.network.transfer_seconds(device, head_device, encoder.output_bytes)
            paths.append(
                EncoderPath(encoder.name, device, input_comm, compute, output_comm)
            )
        if self.parallel:
            paths = self._charge_same_device_serialization(paths)
        head_compute = compute_seconds(request, head.name, head_device)
        return LatencyBreakdown(
            request=request,
            routing=decision,
            encoder_paths=tuple(paths),
            head_compute=head_compute,
            parallel=self.parallel,
        )

    def _charge_same_device_serialization(self, paths):
        """Add queue waits where co-located encoders exceed a device's slots.

        Encoders on one device are scheduled longest-compute-first (matching
        the executor's send heuristic) onto the device's ``parallel_slots``
        via LPT list scheduling; each path is charged the busy time of the
        slot it lands on.
        """
        by_device: Dict[str, list] = {}
        for index, path in enumerate(paths):
            by_device.setdefault(path.device, []).append(index)
        adjusted = list(paths)
        for device_name, indices in by_device.items():
            slots = self.problem.device(device_name).parallel_slots
            if len(indices) <= slots:
                continue
            ordered = sorted(indices, key=lambda i: -paths[i].compute)
            slot_busy = [0.0] * slots
            for i in ordered:
                slot = min(range(slots), key=lambda s: slot_busy[s])
                wait = slot_busy[slot]
                slot_busy[slot] += paths[i].compute
                if wait > 0:
                    path = paths[i]
                    adjusted[i] = EncoderPath(
                        path.module_name, path.device, path.input_comm,
                        path.compute, path.output_comm, queue_wait=wait,
                    )
        return adjusted

    def total_latency(self, request: InferenceRequest, placement: Placement) -> float:
        """``t_total(y^q)`` for one request."""
        return self.tensors.total_latency(request, placement)

    def total_latency_scalar(self, request: InferenceRequest, placement: Placement) -> float:
        """Reference scalar ``t_total``: Eq. 1-3 priced entirely through the
        device/network oracles — no tensor-cache reads anywhere."""
        return self._breakdown(
            request,
            placement,
            self.route_scalar(request, placement),
            self.compute_seconds_scalar,
        ).total

    def objective(self, requests: Sequence[InferenceRequest], placement: Placement) -> float:
        """Problem (4a)'s objective: total latency over all requests."""
        return self.tensors.objective(requests, placement)

    def objective_scalar(self, requests: Sequence[InferenceRequest], placement: Placement) -> float:
        """Reference scalar objective: per-request loops, no tensor reads.

        Kept (and exercised by the property tests) as the independent ground
        truth the tensorized path must match bit-for-bit.
        """
        return sum(self.total_latency_scalar(request, placement) for request in requests)
