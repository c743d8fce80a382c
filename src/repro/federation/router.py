"""Geo-aware admission and WAN spillover routing for the federation.

The router is a **deterministic admission-time planner**: before any
cluster simulates, it looks at every cluster's local arrival stream, its
fault schedule, and the WAN graph, and decides which arrivals are served
locally and which are forwarded to a remote cluster.  Deciding up front —
instead of with a feedback loop during execution — is what lets the
per-cluster simulations run as fully independent worker processes whose
merged result is bit-identical to the sequential oracle: the routing plan
is a pure function of ``(topology, traces, fault plans)``, so the same
seeds always produce the same forwarding decisions no matter how the
cluster simulations are scheduled.

Mechanics (windowed capacity pricing):

1. Time is cut into ``window_s``-second windows.  A cluster's budget in a
   window is ``capacity_rps * window_s``, scaled by the fraction of its
   device pool alive under its fault plan at the window midpoint — a
   cluster mid-outage offers less and sheds more.
2. Arrivals beyond the budget in a window are *overflow*.  Each overflow
   request is offered to the linked cluster with the most spare budget in
   the window where the request would land (tie-break: smallest WAN
   delay, then name); the forward is charged
   ``latency_s + payload_mb * 8 / bandwidth_mbps`` on the way out and the
   link latency on the response's way back
   (see :mod:`repro.federation.topology`).
3. A forward happens only when the destination has at least one request of
   spare budget and the shifted arrival still lands inside the arrival
   window; otherwise the request stays home and takes its chances in the
   local queue.

The output is one :class:`ClusterRoute` per cluster: the merged arrival
trace (kept locals plus forwarded-ins, time-sorted) with a parallel
per-arrival WAN penalty column, plus the forwarded-in/out accounting that
the federation conservation contract checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.federation.topology import FederationTopology
from repro.profiles.devices import edge_device_names
from repro.serving.faults import FAIL, RECOVER, FaultPlan
from repro.serving.workload import ArrivalTrace

#: Default spillover request payload in megabytes (the input an edge
#: cluster ships to a remote peer: an image or audio clip plus metadata).
SPILLOVER_PAYLOAD_MB = 2.0

#: Default capacity-pricing window in seconds.
SPILLOVER_WINDOW_S = 1.0


@dataclass(frozen=True)
class SpilloverDecision:
    """One forwarded request: origin trace index and the WAN price paid.

    ``departure_s`` is the arrival time at the origin; ``arrival_s`` the
    (later) arrival time at the destination after the forward delay;
    ``extra_s`` the full end-to-end WAN penalty (forward + response
    return) added to the request's latency.
    """

    origin: str
    destination: str
    index: int
    departure_s: float
    arrival_s: float
    extra_s: float


@dataclass(frozen=True)
class ClusterRoute:
    """The routed arrival stream of one cluster.

    ``trace`` merges the kept local arrivals with the forwarded-in ones,
    sorted by time; ``wan_extra_s[i]`` is the end-to-end WAN penalty in
    seconds of the trace's arrival ``i`` (0.0 for local arrivals).  The
    counters feed the federation conservation contract:
    ``len(trace) == local_arrivals - forwarded_out + forwarded_in``.
    """

    name: str
    trace: ArrivalTrace
    wan_extra_s: Tuple[float, ...]
    local_arrivals: int
    forwarded_out: int
    forwarded_in: int
    decisions: Tuple[SpilloverDecision, ...] = ()

    def __post_init__(self) -> None:
        if len(self.wan_extra_s) != len(self.trace):
            raise ValueError(
                f"wan_extra_s has {len(self.wan_extra_s)} entries for "
                f"{len(self.trace)} arrivals"
            )
        if len(self.trace) != (
            self.local_arrivals - self.forwarded_out + self.forwarded_in
        ):
            raise ValueError(
                f"cluster {self.name!r} routing lost work: "
                f"{len(self.trace)} routed != {self.local_arrivals} "
                f"local - {self.forwarded_out} out + {self.forwarded_in} in"
            )


def live_fraction(
    plan: Optional[FaultPlan], device_names: Sequence[str], at_s: float
) -> float:
    """Fraction of the device pool alive at simulated time ``at_s`` under
    the plan's fail/recover events (slowdowns and link faults do not
    remove capacity here — they degrade it, which the serving run prices).
    """
    if plan is None or not plan.events:
        return 1.0
    pool = list(device_names)
    down = []
    for event in plan.events:
        if event.time > at_s:
            break
        if event.kind == FAIL and event.device in pool and event.device not in down:
            down.append(event.device)
        elif event.kind == RECOVER and event.device in down:
            down.remove(event.device)
    if not pool:
        return 1.0
    return max(0.0, (len(pool) - len(down)) / len(pool))


def _window_budgets(
    topology: FederationTopology,
    traces: Mapping[str, ArrivalTrace],
    fault_plans: Mapping[str, Optional[FaultPlan]],
    window_s: float,
    n_windows: int,
) -> Dict[str, List[float]]:
    """Per-cluster, per-window serving budget in requests (fault-scaled)."""
    budgets: Dict[str, List[float]] = {}
    for name in sorted(traces):
        spec = topology.cluster(name)
        devices = (
            list(spec.device_names) if spec.device_names is not None
            else edge_device_names()
        )
        plan = fault_plans.get(name)
        budgets[name] = [
            spec.capacity_rps * window_s
            * live_fraction(plan, devices, (w + 0.5) * window_s)
            for w in range(n_windows)
        ]
    return budgets


def plan_spillover(
    topology: FederationTopology,
    traces: Mapping[str, ArrivalTrace],
    fault_plans: Optional[Mapping[str, Optional[FaultPlan]]] = None,
    *,
    spillover: bool = True,
    window_s: float = SPILLOVER_WINDOW_S,
    payload_mb: float = SPILLOVER_PAYLOAD_MB,
) -> Dict[str, ClusterRoute]:
    """Compute the federation routing plan: one :class:`ClusterRoute` per
    cluster, a pure deterministic function of its inputs.

    ``traces`` maps every cluster name to its *local* arrival trace (all
    traces must share one duration).  ``spillover=False`` short-circuits
    to identity routes — the isolated-clusters baseline the benchmark
    gates against.  Returns a dict keyed by cluster name (iterate it
    sorted; insertion order is already sorted-name order).
    """
    if window_s <= 0 or not math.isfinite(window_s):
        raise ValueError(f"window_s must be positive and finite, got {window_s}")
    names = sorted(traces)
    if set(names) != set(topology.names()):
        raise ValueError(
            f"traces cover {names}, topology declares {sorted(topology.names())}"
        )
    fault_plans = dict(fault_plans or {})
    for name in sorted(fault_plans):
        if name not in traces:
            raise ValueError(f"fault plan for unknown cluster {name!r}")
    durations = {traces[name].duration_s for name in names}
    if len(durations) != 1:
        raise ValueError(f"all cluster traces must share one duration, got {durations}")
    duration_s = durations.pop()

    if not spillover:
        return {
            name: ClusterRoute(
                name=name,
                trace=traces[name],
                wan_extra_s=(0.0,) * len(traces[name]),
                local_arrivals=len(traces[name]),
                forwarded_out=0,
                forwarded_in=0,
            )
            for name in names
        }

    n_windows = max(1, int(math.ceil(duration_s / window_s)))
    budgets = _window_budgets(topology, traces, fault_plans, window_s, n_windows)
    # Each cluster's arrival indices bucketed by window once, in trace order.
    # Occupancy starts as the bucket sizes and is updated as forwards
    # leave/land, so later decisions see earlier ones.
    local_times = {name: traces[name].times.tolist() for name in names}
    buckets: Dict[str, List[List[int]]] = {}
    for name in names:
        buckets[name] = [[] for _ in range(n_windows)]
        for index, t in enumerate(local_times[name]):
            buckets[name][min(n_windows - 1, int(t / window_s))].append(index)
    occupancy = {name: [len(b) for b in buckets[name]] for name in names}

    decisions: Dict[str, List[SpilloverDecision]] = {name: [] for name in names}
    forwarded_out_idx: Dict[str, set] = {name: set() for name in names}
    # Window-major, cluster-minor (sorted): the deterministic decision order.
    for w in range(n_windows):
        for name in names:
            budget = int(math.floor(budgets[name][w] + 1e-9))
            overflow = occupancy[name][w] - budget
            if overflow <= 0:
                continue
            # The *latest* arrivals of the window overflow (the earliest
            # fill the local budget).  None of them has left yet: only this
            # (window, cluster) step forwards its bucket's arrivals.
            for index in buckets[name][w][-overflow:]:
                departure_s = local_times[name][index]
                choice = None
                for peer in topology.neighbors(name):
                    delay = topology.wan_delay_s(name, peer, payload_mb)
                    lands_at = departure_s + delay
                    if lands_at >= duration_s:
                        continue
                    peer_w = min(n_windows - 1, int(lands_at / window_s))
                    spare = (
                        int(math.floor(budgets[peer][peer_w] + 1e-9))
                        - occupancy[peer][peer_w]
                    )
                    if spare < 1:
                        continue
                    candidate = (-spare, delay, peer, peer_w, lands_at)
                    if choice is None or candidate < choice:
                        choice = candidate
                if choice is None:
                    continue
                _neg_spare, delay, peer, peer_w, lands_at = choice
                occupancy[name][w] -= 1
                occupancy[peer][peer_w] += 1
                forwarded_out_idx[name].add(index)
                decisions[name].append(
                    SpilloverDecision(
                        origin=name,
                        destination=peer,
                        index=index,
                        departure_s=departure_s,
                        arrival_s=lands_at,
                        extra_s=delay + topology.return_delay_s(name, peer),
                    )
                )

    # Assemble the merged per-cluster routes.
    routes: Dict[str, ClusterRoute] = {}
    inbound: Dict[str, List[SpilloverDecision]] = {name: [] for name in names}
    for name in names:
        for decision in decisions[name]:
            inbound[decision.destination].append(decision)
    for name in names:
        kept = [
            (t, model, 0.0)
            for index, (t, model) in enumerate(
                zip(local_times[name], traces[name].model_names)
            )
            if index not in forwarded_out_idx[name]
        ]
        landed = [
            (
                decision.arrival_s,
                traces[decision.origin].model_names[decision.index],
                decision.extra_s,
            )
            for decision in sorted(
                inbound[name], key=lambda d: (d.arrival_s, d.origin, d.index)
            )
        ]
        # Stable sort over a deterministic pre-order (locals in trace order,
        # then inbound by arrival) keeps exact-tie ordering reproducible.
        merged = sorted(kept + landed, key=lambda row: row[0])
        routes[name] = ClusterRoute(
            name=name,
            trace=ArrivalTrace(
                times=[t for t, _, _ in merged],
                model_names=tuple(m for _, m, _ in merged),
                duration_s=duration_s,
                kind=traces[name].kind,
                seed=traces[name].seed,
            ),
            wan_extra_s=tuple(extra for _, _, extra in merged),
            local_arrivals=len(traces[name]),
            forwarded_out=len(decisions[name]),
            forwarded_in=len(inbound[name]),
            decisions=tuple(decisions[name]),
        )
    return routes
