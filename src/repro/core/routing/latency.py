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

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple

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


class LatencyModel:
    """Prices requests against a placement on a network of devices.

    Routing, single-request pricing, and the objective run on the shared
    :class:`~repro.core.placement.tensors.CostTensors` layer (precomputed
    per-problem numpy arrays, bit-identical to the scalar formulas), and the
    queue-aware prices on :class:`~repro.core.placement.tensors.WaitTensors`.
    The loop-based references they are tested against with ``==`` live in
    ``tests/scalar_reference.py``; they price through :meth:`_breakdown`
    with their own ``compute_seconds``.
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

    # ------------------------------------------------------------------
    # Cheapest-replica routing (transfer-aware; the replica solvers' rule)
    # ------------------------------------------------------------------
    def replica_route(self, request: InferenceRequest, placement: Placement) -> RoutingDecision:
        """Cheapest-replica hosts for one request: the host combination, one
        host from each module's replica set, with the least Eq. 1-3 latency
        (input transfer + compute + embedding shipping), so requests from
        different sources pick different replicas.  Ties break toward the
        lexicographically smallest combination (modules in
        encoders-then-head order, hosts in sorted device-name order)."""
        return RoutingDecision(
            request=request, hosts=self.tensors.replica_route_hosts(request, placement)
        )

    def replica_total_latency(self, request: InferenceRequest, placement: Placement) -> float:
        """``t_total`` (seconds) under cheapest-replica routing."""
        return self.tensors.replica_total_latency(request, placement)

    def replica_objective(self, requests: Sequence[InferenceRequest], placement: Placement) -> float:
        """Total latency (seconds) over ``requests`` under cheapest-replica
        routing — the objective the replica-aware solvers minimize."""
        return self.tensors.replica_objective(requests, placement)

    # ------------------------------------------------------------------
    # Queue-aware pricing (expected waits from offered load; see
    # repro.core.placement.tensors.WaitTensors for the model)
    # ------------------------------------------------------------------
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

    def congestion_replica_objective(
        self, requests: Sequence[InferenceRequest], placement: Placement, congestion
    ) -> float:
        """Queue-aware cheapest-replica objective (the replica solvers'
        congestion objective): routing minimizes latency *plus* waits."""
        return WaitTensors(self.tensors, congestion).replica_objective(requests, placement)

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

    def objective(self, requests: Sequence[InferenceRequest], placement: Placement) -> float:
        """Problem (4a)'s objective: total latency over all requests."""
        return self.tensors.objective(requests, placement)
