"""Discrete-event execution of routed requests (Algorithm 1, lines 13-19).

For each request:

1. route every required module to its fastest hosting device (Eq. 7);
2. start all encoder paths; the requester's uplink sends modality inputs in
   **descending order of expected encode time** (the paper's "send the data
   with a modality that takes longer in the encoding first");
3. each path: input transmission -> FIFO-queued encoding on its device ->
   embedding transmission to the head's device;
4. join all encoder paths (the max of Eq. 2), then run the head.

Requests are spawned at their arrival times, so a stream of requests
pipelines naturally: the next request starts encoding as soon as the shared
encoder frees up — including the queueing delay Table X reports for shared
modules.

The run is continuation-passing on the cluster's
:class:`~repro.sim.FlatEventLoop`.  Each hand-off between steps (a
request's start, a slot grant, the end of an encoder path, the join) is one
zero-delay push, so same-instant ties always resolve in one FIFO order;
``tests/golden/executor_digests.json`` pins that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cluster.requests import InferenceRequest
from repro.cluster.topology import EdgeCluster
from repro.core.placement.problem import Placement
from repro.core.routing.latency import LatencyModel, RoutingDecision
from repro.sim import FlatEventLoop, SlotPool, TraceRecorder
from repro.sim.trace import CATEGORY_HEAD, CATEGORY_TRANSMISSION
from repro.utils.errors import CapacityError, ConfigurationError, RoutingError


class UplinkPool:
    """Per-source uplink NICs (one-slot pools), created lazily.

    Concurrent modality input sends from the same requester serialize on its
    NIC.  The FIFO executor and the burst micro-batcher each build one per
    run; the serving engine keeps its own uplink queue.
    """

    def __init__(self, sim: FlatEventLoop) -> None:
        self._sim = sim
        self._nics: Dict[str, SlotPool] = {}

    def get(self, source: str) -> SlotPool:
        if source not in self._nics:
            self._nics[source] = SlotPool(self._sim, capacity=1)
        return self._nics[source]


def transfer(cluster: EdgeCluster, src: str, dst: str, payload_bytes: int, label: str,
             request_id: Optional[int], then: Callable[..., None], *args: Any) -> None:
    """One ``src -> dst`` network transfer of ``payload_bytes`` **bytes**,
    recorded on the cluster trace; calls ``then(*args)`` when it lands
    (at once when the hop costs nothing)."""
    seconds = cluster.network.transfer_seconds(src, dst, payload_bytes)
    if seconds > 0:
        cluster.sim.push(
            seconds, _landed, cluster, src, label, cluster.sim.now, request_id, then, args
        )
    else:
        then(*args)


def check_run(cluster: EdgeCluster, placement: Placement,
              requests: Sequence[InferenceRequest], latency_model: LatencyModel) -> None:
    """Refuse a run before its first push if it could not finish cleanly.

    The cluster's loop must be empty: entries an earlier, failed run left
    there would be dispatched inside this one.  Every request's source must
    be a network node, and every module of its model part of the problem
    with at least one host, each of which has the module loaded on this
    cluster, so a bad request raises here instead of stranding the rest of
    the run on the shared loop.
    """
    stale = len(cluster.sim)
    if stale:
        raise ConfigurationError(
            f"the cluster's event loop still holds {stale} entries from an "
            "earlier run; execute on a fresh cluster"
        )
    for request in requests:
        if not cluster.network.has_node(request.source):
            raise ConfigurationError(
                f"request {request.request_id}: source {request.source!r} is "
                "not a network node"
            )
        for name in request.model.module_names:
            latency_model.module(name)
            hosts = placement.hosts(name)
            if not hosts:
                raise RoutingError(f"module {name!r} has no hosts")
            for host in hosts:
                if not cluster.device(host).hosts(name):
                    raise CapacityError(
                        f"device {host!r} does not host {name!r}; deploy the "
                        "placement on this cluster first"
                    )


def _landed(cluster, src, label, start, request_id, then, args) -> None:
    if cluster.trace is not None:
        cluster.trace.record(
            src, CATEGORY_TRANSMISSION, label, start, cluster.sim.now, request_id
        )
    then(*args)


@dataclass(frozen=True)
class RequestOutcome:
    """Completion record for one executed request.

    ``start_time`` and ``finish_time`` are simulated clock readings in
    **seconds**; ``start_time`` is when the request began executing (its
    arrival time, unless it arrived mid-simulation).
    """

    request: InferenceRequest
    routing: RoutingDecision
    start_time: float
    finish_time: float

    @property
    def latency(self) -> float:
        """Arrival-to-completion latency in **seconds** (includes queueing)."""
        return self.finish_time - self.request.arrival_time


@dataclass
class ExecutionResult:
    """Outcomes plus the recorded timeline for a batch of requests.

    Every latency-flavoured accessor (``latencies``, ``mean_latency``,
    ``max_latency``, ``makespan``) is in **seconds** of simulated time.

    ``outputs`` optionally carries *real* per-request inference results
    (answer indices, class predictions, ...) keyed by request id when the
    executor ran with a compute backend (see
    :mod:`repro.core.routing.batched`).
    """

    outcomes: List[RequestOutcome] = field(default_factory=list)
    trace: Optional[TraceRecorder] = None
    outputs: Dict[int, object] = field(default_factory=dict)

    @property
    def latencies(self) -> List[float]:
        return [outcome.latency for outcome in self.outcomes]

    @property
    def mean_latency(self) -> float:
        latencies = self.latencies
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    @property
    def max_latency(self) -> float:
        return max(self.latencies, default=0.0)

    @property
    def makespan(self) -> float:
        """Completion time of the last request."""
        return max((outcome.finish_time for outcome in self.outcomes), default=0.0)


def execute_requests(
    cluster: EdgeCluster,
    placement: Placement,
    requests: Sequence[InferenceRequest],
    latency_model: LatencyModel,
    parallel: bool = True,
    service_noise: Optional[Callable[[str, str], float]] = None,
    router: Optional[Callable[[InferenceRequest], RoutingDecision]] = None,
) -> ExecutionResult:
    """Run ``requests`` to completion on the cluster; returns outcomes + trace.

    Request ``arrival_time`` values are **seconds** on the cluster's
    simulated clock; all produced latencies are **seconds** too.
    ``service_noise(module, device) -> factor`` optionally perturbs service
    times with a dimensionless multiplier (used by the randomized
    optimality trials).  ``router`` overrides the default fastest-host rule
    (Eq. 7) — e.g. the queue-aware router of
    :mod:`repro.core.routing.queue_aware`.  The cluster's modules must
    already be loaded (see the engine's ``deploy``).  Inputs are checked
    before anything is scheduled (see :func:`check_run`).
    """
    check_run(cluster, placement, requests, latency_model)
    result = ExecutionResult(trace=cluster.trace)
    sim = cluster.sim
    nics = UplinkPool(sim)

    def encoder_path(request: InferenceRequest, encoder, device_name: str, head_device: str,
                     then: Callable[..., None], *args: Any) -> None:
        """Send the input, encode, ship the embedding, then call ``then(*args)``."""
        modality = encoder.modality or "image"
        payload = request.model.payload_bytes(modality)
        nic = nics.get(request.source)

        def sent() -> None:
            nic.release()
            device = cluster.device(device_name)
            scale = service_noise(encoder.name, device_name) if service_noise else 1.0
            device.execute(encoder, encoded, model=request.model, request_id=request.request_id,
                           label=f"encode {encoder.name}", service_scale=scale)

        def encoded(_service: float) -> None:
            transfer(cluster, device_name, head_device, encoder.output_bytes,
                     f"emb->{head_device}", request.request_id, then, *args)

        # Serialize input sends on the requester's uplink.
        nic.acquire(
            transfer, cluster, request.source, device_name, payload,
            f"{modality}->{device_name}", request.request_id, sent,
        )

    def arrive(request: InferenceRequest) -> None:
        if request.arrival_time > sim.now:
            sim.push(request.arrival_time - sim.now, begin, request)
        else:
            begin(request)

    def begin(request: InferenceRequest) -> None:
        start = sim.now
        routing = router(request) if router is not None else latency_model.route(request, placement)
        # Resolve modules against the problem's table (handles the cloned
        # names of no-sharing deployments, which the catalog cannot).
        encoders = [latency_model.module(name) for name in request.model.encoders]
        head = latency_model.module(request.model.head)
        head_device_name = routing.host_of(head.name)
        # Longest-encoding-first send order (paper Sec. V-B).
        ordered = sorted(
            encoders,
            key=lambda enc: -latency_model.compute_seconds(
                request, enc.name, routing.host_of(enc.name)
            ),
        )

        def run_head() -> None:
            head_device = cluster.device(head_device_name)
            scale = service_noise(head.name, head_device_name) if service_noise else 1.0
            head_device.execute(head, finished, model=request.model, request_id=request.request_id,
                                label=f"head {head.name}", category=CATEGORY_HEAD,
                                service_scale=scale)

        def finished(_service: float) -> None:
            result.outcomes.append(
                RequestOutcome(request=request, routing=routing, start_time=start,
                               finish_time=sim.now)
            )

        if parallel and ordered:
            # Each path starts one hop after the request, and its end is one
            # more hop (``sim.push(0.0, joined)``); the join (the max of
            # Eq. 2) runs the head one hop after the last path's end.
            pending = [len(ordered)]

            def joined() -> None:
                pending[0] -= 1
                if not pending[0]:
                    sim.push(0.0, run_head)

            for encoder in ordered:
                sim.push(0.0, encoder_path, request, encoder, routing.host_of(encoder.name),
                         head_device_name, sim.push, 0.0, joined)
        else:
            def run_path(index: int) -> None:
                if index == len(ordered):
                    run_head()
                else:
                    encoder = ordered[index]
                    encoder_path(request, encoder, routing.host_of(encoder.name),
                                 head_device_name, run_path, index + 1)

            run_path(0)

    for request in sorted(requests, key=lambda r: (r.arrival_time, r.request_id)):
        sim.push(0.0, arrive, request)
    sim.run()
    result.outcomes.sort(key=lambda outcome: outcome.request.request_id)
    return result
