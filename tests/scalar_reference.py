"""Loop-based reference pricing the vectorized paths are tested against.

Every function here is the independent ground truth of one fast path in
``src/``, compared with ``==`` (bit identity, not ``pytest.approx``):

- :class:`~repro.core.routing.latency.LatencyModel`'s pricing, which runs on
  :class:`~repro.core.placement.tensors.CostTensors` and
  :class:`~repro.core.placement.tensors.WaitTensors` — Eq. 7 routing, the
  Eq. 1-3 latency, Problem (4a)'s objective, cheapest-replica routing and
  the queue-aware (M/G/1) objectives.  The references take the model as
  their first argument, price each request through the device and network
  oracles directly (``LatencyModel._breakdown`` with
  :func:`compute_seconds_scalar`), and never read a tensor cache.
- :class:`~repro.serving.workload.WorkloadGenerator`'s batched samplers,
  checked against the one-draw-per-arrival samplers below (same RNG stream,
  same times).

Each reference keeps the float-operation order its fast path mirrors, so a
change to either side's summation order shows up as an ulp mismatch.
``tests/test_analysis_lint.py`` checks that every public function here is
used by some test and that ``src/`` defines no ``*_scalar`` function.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.requests import InferenceRequest
from repro.core.placement.problem import Placement
from repro.core.routing.latency import LatencyModel, RoutingDecision
from repro.utils.errors import RoutingError


# ----------------------------------------------------------------------
# Eq. 1-3 and Eq. 7 (LatencyModel.compute_seconds / route / total_latency
# / objective)
# ----------------------------------------------------------------------
def compute_seconds_scalar(
    model: LatencyModel, request: InferenceRequest, module_name: str, device_name: str
) -> float:
    """``t^comp`` in seconds through the device oracle directly — never
    the tensor cache, so every reference below stays fully independent."""
    module = model.module(module_name)
    device = model.problem.device(device_name)
    base = device.compute_seconds(module, work_scale=request.model.scale_for(module_name))
    return base * model.problem.compute_noise.get((module_name, device_name), 1.0)


def route_scalar(
    model: LatencyModel, request: InferenceRequest, placement: Placement
) -> RoutingDecision:
    """Reference implementation of Eq. 7 (no tensor cache)."""
    hosts: Dict[str, str] = {}
    for module_name in request.model.module_names:
        candidates = placement.hosts(module_name)
        if not candidates:
            raise RoutingError(f"module {module_name!r} has no hosts")
        hosts[module_name] = min(
            candidates,
            key=lambda device: (
                compute_seconds_scalar(model, request, module_name, device),
                device,
            ),
        )
    return RoutingDecision(request=request, hosts=hosts)


def _price(
    model: LatencyModel,
    request: InferenceRequest,
    placement: Placement,
    decision: RoutingDecision,
) -> float:
    """Eq. 1-3 ``t_total`` of ``request`` under ``decision``, every compute
    time from :func:`compute_seconds_scalar`."""
    return model._breakdown(
        request, placement, decision, partial(compute_seconds_scalar, model)
    ).total


def total_latency_scalar(
    model: LatencyModel, request: InferenceRequest, placement: Placement
) -> float:
    """Reference scalar ``t_total``: Eq. 1-3 priced entirely through the
    device/network oracles — no tensor-cache reads anywhere."""
    return _price(model, request, placement, route_scalar(model, request, placement))


def objective_scalar(
    model: LatencyModel, requests: Sequence[InferenceRequest], placement: Placement
) -> float:
    """Reference scalar objective: per-request loops, no tensor reads."""
    return sum(total_latency_scalar(model, request, placement) for request in requests)


# ----------------------------------------------------------------------
# Cheapest-replica routing (LatencyModel.replica_*)
# ----------------------------------------------------------------------
def _member_names(spec) -> List[str]:
    """Distinct member modules of a model spec, encoders first then head
    (``M_k``)."""
    members: List[str] = []
    for name in spec.module_names:
        if name not in members:
            members.append(name)
    return members


def _host_lists(members: Sequence[str], placement: Placement) -> List[List[str]]:
    candidate_lists: List[List[str]] = []
    for name in members:
        hosts = placement.hosts(name)
        if not hosts:
            raise RoutingError(f"module {name!r} has no hosts")
        candidate_lists.append(sorted(hosts))
    return candidate_lists


def _replica_best_scalar(
    model: LatencyModel, request: InferenceRequest, placement: Placement
) -> Tuple[float, RoutingDecision]:
    """Reference cheapest-replica routing: joint min of Eq. 1-3 latency.

    Eq. 7 routes every module to its fastest *compute* host, which is the
    same device for every request — replicas never change it.  The replica
    rule instead minimizes the request's full latency (input transfer +
    compute + embedding shipping) over every combination of hosts drawn
    from each module's replica set, so requests from different sources
    pick different replicas.  Ties break toward the lexicographically
    smallest host combination (modules in encoders-then-head order, hosts
    in sorted device-name order).
    """
    members = _member_names(request.model)
    best: Optional[Tuple[float, RoutingDecision]] = None
    for combo in itertools.product(*_host_lists(members, placement)):
        decision = RoutingDecision(request=request, hosts=dict(zip(members, combo)))
        total = _price(model, request, placement, decision)
        if best is None or total < best[0]:
            best = (total, decision)
    assert best is not None  # the host lists are all non-empty
    return best


def replica_route_scalar(
    model: LatencyModel, request: InferenceRequest, placement: Placement
) -> RoutingDecision:
    """Reference cheapest-replica routing (no tensor cache)."""
    return _replica_best_scalar(model, request, placement)[1]


def replica_total_latency_scalar(
    model: LatencyModel, request: InferenceRequest, placement: Placement
) -> float:
    """Reference scalar ``t_total`` under cheapest-replica routing."""
    return _replica_best_scalar(model, request, placement)[0]


def replica_objective_scalar(
    model: LatencyModel, requests: Sequence[InferenceRequest], placement: Placement
) -> float:
    """Reference scalar replica objective: per-request loops, no tensors."""
    return sum(
        replica_total_latency_scalar(model, request, placement) for request in requests
    )


# ----------------------------------------------------------------------
# Queue-aware pricing (LatencyModel.congestion_*)
# ----------------------------------------------------------------------
def congestion_waits_scalar(
    model: LatencyModel, requests: Sequence[InferenceRequest], placement: Placement, congestion
) -> Dict[str, float]:
    """Per-device expected wait ``W_n`` in seconds.

    M/G/1-style: each distinct model (request first-appearance order) splits
    its arrival rate evenly over each member module's replicas
    (sorted-device-name order) and contributes utilization ``u_n += lam *
    s`` and residual ``R_n += lam * s^2`` per visit with service time
    ``s``; a device with ``c_n`` parallel slots then charges ``W_n = (R_n /
    c_n) / (2 * (1 - min(u_n / c_n, rho_max)))``.  Zero arrival rates give
    ``W_n == 0.0`` exactly.
    """
    u: Dict[str, float] = {}
    r: Dict[str, float] = {}
    seen = set()
    for request in requests:
        spec = request.model
        if id(spec) in seen:
            continue
        seen.add(id(spec))
        lam = congestion.rate_for(spec.name)
        for name in _member_names(spec):
            hosts = placement.hosts(name)
            if not hosts:
                raise RoutingError(f"module {name!r} has no hosts")
            ordered = sorted(hosts)
            share = lam / len(ordered)
            for device in ordered:
                s = compute_seconds_scalar(model, request, name, device)
                load = share * s
                u[device] = u.get(device, 0.0) + load
                r[device] = r.get(device, 0.0) + load * s
    waits: Dict[str, float] = {}
    rho_max = congestion.rho_max
    for device in model.problem.devices:
        slots = device.parallel_slots
        rho = u.get(device.name, 0.0) / slots
        if rho > rho_max:
            rho = rho_max
        waits[device.name] = (r.get(device.name, 0.0) / slots) / (2.0 * (1.0 - rho))
    return waits


def congestion_objective_scalar(
    model: LatencyModel, requests: Sequence[InferenceRequest], placement: Placement, congestion
) -> float:
    """Reference scalar queue-aware objective.

    Per (model, source) class: the base Eq. 1-3 total under Eq. 7 routing
    plus one wait per distinct member module at its routed host (member
    order), fanned out in request order.
    """
    waits = congestion_waits_scalar(model, requests, placement, congestion)
    cache: Dict[Tuple[int, str], float] = {}
    total = 0.0
    for request in requests:
        key = (id(request.model), request.source)
        value = cache.get(key)
        if value is None:
            decision = route_scalar(model, request, placement)
            base = _price(model, request, placement, decision)
            wait = 0.0
            for name in _member_names(request.model):
                wait = wait + waits[decision.host_of(name)]
            value = base + wait
            cache[key] = value
        total = total + value
    return float(total)


def _congestion_replica_best_scalar(
    model: LatencyModel,
    request: InferenceRequest,
    placement: Placement,
    waits: Mapping[str, float],
) -> Tuple[float, RoutingDecision]:
    """Wait-aware cheapest-replica routing.

    Identical enumeration and tie-break to :func:`_replica_best_scalar`,
    but each host combination is charged its hosts' expected waits on top
    of the Eq. 1-3 total, so routing itself avoids hot devices.
    """
    members = _member_names(request.model)
    best: Optional[Tuple[float, RoutingDecision]] = None
    for combo in itertools.product(*_host_lists(members, placement)):
        decision = RoutingDecision(request=request, hosts=dict(zip(members, combo)))
        total = _price(model, request, placement, decision)
        wait = 0.0
        for device in combo:
            wait = wait + waits[device]
        value = total + wait
        if best is None or value < best[0]:
            best = (value, decision)
    assert best is not None  # the host lists are all non-empty
    return best


def congestion_replica_objective_scalar(
    model: LatencyModel, requests: Sequence[InferenceRequest], placement: Placement, congestion
) -> float:
    """Reference scalar queue-aware replica objective."""
    waits = congestion_waits_scalar(model, requests, placement, congestion)
    cache: Dict[Tuple[int, str], float] = {}
    total = 0.0
    for request in requests:
        key = (id(request.model), request.source)
        value = cache.get(key)
        if value is None:
            value = _congestion_replica_best_scalar(model, request, placement, waits)[0]
            cache[key] = value
        total = total + value
    return float(total)


# ----------------------------------------------------------------------
# Arrival samplers (WorkloadGenerator._poisson_times / _bursty_times)
# ----------------------------------------------------------------------
# The original one-draw-per-arrival samplers.  The vectorized paths must
# consume the identical RNG stream and return bit-identical times; keep
# these in sync with any distributional change.

def _poisson_times_scalar(gen, rng) -> List[float]:
    times: List[float] = []
    now = 0.0
    while True:
        now += float(rng.exponential(1.0 / gen.rate_rps))
        if now >= gen.duration_s:
            return times
        times.append(now)


def _bursty_times_scalar(gen, rng) -> List[float]:
    times: List[float] = []
    now = 0.0
    in_burst = False
    state_ends = float(rng.exponential(gen.base_dwell_s))
    while now < gen.duration_s:
        rate = gen.rate_rps * (gen.burst_factor if in_burst else 1.0)
        gap = float(rng.exponential(1.0 / rate))
        if now + gap >= state_ends:
            now = state_ends
            in_burst = not in_burst
            dwell = gen.burst_dwell_s if in_burst else gen.base_dwell_s
            state_ends = now + float(rng.exponential(dwell))
            continue
        now += gap
        if now >= gen.duration_s:
            break
        times.append(now)
    return times
