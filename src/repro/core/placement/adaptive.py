"""Adaptive placement under device churn (paper Sec. VI-C, "Dynamic network
conditions").

The paper: short-term network variation barely moves latency, but long-term
changes such as device availability call for *reallocation with some
switching costs*, "further optimized through adaptive placement".  This
module implements that controller:

- on a device-set change, recompute the greedy placement for the new pool;
- price the migration (reloading every module that moves — the paper's
  footnote 1 shows a single load can dwarf an inference);
- migrate only when the per-request latency gain amortizes the switching
  cost over the expected remaining request volume (hysteresis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.routing.latency import LatencyModel
from repro.profiles.compute import ComputeModel, DEFAULT_COMPUTE_MODEL
from repro.utils.checks import is_count
from repro.utils.errors import PlacementError


@dataclass(frozen=True)
class MigrationDecision:
    """Outcome of one adaptation round.

    ``old_latency``/``new_latency`` are mean per-request latencies in
    **seconds** (``inf`` when the old placement is unservable);
    ``switching_cost_seconds`` is the module re-loading time in **seconds**.
    """

    migrate: bool
    reason: str
    old_latency: float
    new_latency: float
    switching_cost_seconds: float
    new_placement: Optional[Placement] = None


class AdaptivePlacementController:
    """Decides whether to re-place modules when the device pool changes.

    ``expected_requests`` is the volume (a request count) over which a
    migration must pay for itself: migrate iff
    ``gain_seconds_per_request * expected_requests > switching_cost_seconds``.
    All latencies and switching costs the controller computes are in
    **seconds**; the gains in :class:`MigrationDecision` are seconds per
    request.
    """

    def __init__(
        self,
        network: Network,
        compute_model: ComputeModel = DEFAULT_COMPUTE_MODEL,
        expected_requests: int = 20,
    ) -> None:
        if not is_count(expected_requests) or expected_requests < 1:
            raise ValueError(f"expected_requests must be an int >= 1, got {expected_requests!r}")
        self.network = network
        self.compute_model = compute_model
        self.expected_requests = expected_requests
        self._model_cache: Dict[Tuple[str, ...], Tuple[PlacementProblem, LatencyModel]] = {}

    # ------------------------------------------------------------------
    def latency_model_for(self, problem: PlacementProblem) -> LatencyModel:
        """A :class:`LatencyModel` (with its cost tensors) for ``problem``.

        Churn traces oscillate over a handful of device pools; rebuilding
        the model — and re-deriving its per-(module, device) tensors — on
        every assessment made re-placement cost scale with churn rate.  The
        cache is keyed on the device-name tuple and verified against the
        full problem (frozen dataclass equality), so a pool that comes back
        with different modules, models, or noise misses and rebuilds.
        """
        key = tuple(device.name for device in problem.devices)
        hit = self._model_cache.get(key)
        if hit is not None and (hit[0] is problem or hit[0] == problem):
            return hit[1]
        model = LatencyModel(problem, self.network)
        self._model_cache[key] = (problem, model)
        return model

    def switching_cost(
        self, old: Placement, new: Placement, problem: PlacementProblem
    ) -> float:
        """Seconds of model (re)loading the migration incurs.

        A module costs a load on every host that did not already have it;
        loads on different devices overlap, so the cost is the per-device
        maximum — the same accounting as initial deployment.
        """
        modules = {module.name: module for module in problem.modules}
        per_device: Dict[str, float] = {}
        for module_name, new_hosts in new.as_dict().items():
            old_hosts = set(old.as_dict().get(module_name, ()))
            for host in new_hosts:
                if host in old_hosts:
                    continue
                device = problem.device(host)
                per_device[host] = per_device.get(host, 0.0) + self.compute_model.load_seconds(
                    modules[module_name], device
                )
        return max(per_device.values(), default=0.0)

    def evaluate(
        self,
        problem_now: PlacementProblem,
        current: Placement,
        requests: Sequence[InferenceRequest],
    ) -> MigrationDecision:
        """Assess migrating from ``current`` to a fresh greedy placement.

        ``problem_now`` reflects the CURRENT device pool.  If the current
        placement references departed devices, migration is forced (the
        modules must be re-hosted regardless of cost).
        """
        if not requests:
            raise ValueError("need at least one request to price the placements")
        model = self.latency_model_for(problem_now)
        candidate = greedy_placement(problem_now)
        new_latency = model.objective(requests, candidate) / len(requests)

        live = {device.name for device in problem_now.devices}
        stranded = [
            name
            for name, hosts in current.as_dict().items()
            if any(host not in live for host in hosts)
        ]
        cost = self.switching_cost(current, candidate, problem_now)
        if stranded:
            return MigrationDecision(
                migrate=True,
                reason=f"forced: modules stranded on departed devices ({', '.join(sorted(stranded))})",
                old_latency=float("inf"),
                new_latency=new_latency,
                switching_cost_seconds=cost,
                new_placement=candidate,
            )

        old_latency = model.objective(requests, current) / len(requests)
        gain = old_latency - new_latency
        if gain * self.expected_requests > cost:
            return MigrationDecision(
                migrate=True,
                reason=(
                    f"gain {gain:.2f}s/request over {self.expected_requests} requests "
                    f"amortizes the {cost:.2f}s switching cost"
                ),
                old_latency=old_latency,
                new_latency=new_latency,
                switching_cost_seconds=cost,
                new_placement=candidate,
            )
        return MigrationDecision(
            migrate=False,
            reason=(
                f"gain {max(gain, 0):.2f}s/request does not cover the "
                f"{cost:.2f}s switching cost"
            ),
            old_latency=old_latency,
            new_latency=new_latency,
            switching_cost_seconds=cost,
        )


@dataclass(frozen=True)
class ChurnEvent:
    """One availability change: the device pool becomes ``device_names``.

    ``time`` is in **seconds** on the experiment's clock (informational —
    the batch churn replay is epoch-based, not discrete-event driven).
    """

    time: float
    device_names: Tuple[str, ...]
    description: str = ""


def simulate_churn(
    models: Sequence[str],
    events: Sequence[ChurnEvent],
    requests_per_epoch: int,
    controller: Optional[AdaptivePlacementController] = None,
) -> List[Tuple[ChurnEvent, MigrationDecision]]:
    """Replay a churn trace, letting the controller adapt after each event.

    Returns the per-event decisions; the placement carries over between
    epochs unless the controller migrates.
    """
    if not events:
        raise ValueError("need at least one churn event")
    network = Network()
    controller = controller if controller is not None else AdaptivePlacementController(network)

    first = PlacementProblem.from_models(models, list(events[0].device_names))
    placement = greedy_placement(first)
    requests = [
        InferenceRequest.for_model(model, "jetson-a")
        for model in models
        for _ in range(max(1, requests_per_epoch // max(1, len(models))))
    ]
    outcomes: List[Tuple[ChurnEvent, MigrationDecision]] = []
    for event in events[1:]:
        problem = PlacementProblem.from_models(models, list(event.device_names))
        try:
            decision = controller.evaluate(problem, placement, requests)
        except PlacementError:
            raise
        if decision.migrate and decision.new_placement is not None:
            placement = decision.new_placement
        outcomes.append((event, decision))
    return outcomes
