"""Energy model (paper Sec. VII future work).

"The power consumption is still one of the key factors for the battery life
of edge devices" — the paper defers it; we provide the model and an
energy-aware placement objective so the trade-off can be studied.

Per device: active power while computing, idle power otherwise, plus a
per-byte radio cost for transfers.  Per-request energy of a placement is
the sum over routed modules of ``active_power * t_comp`` plus the radio
energy of every **actual** transfer:

- the modality input hop ``source -> encoder host``, charged to both radio
  endpoints, and **zero when the encoder is hosted on the source device** —
  the same semantics as :meth:`Network.transfer_seconds`, which returns 0
  for ``src == dst`` (the paper only transmits "if the requester device and
  the device to encode the data are different");
- the embedding hop ``encoder host -> head host`` (Eq. 2's output
  transmission), also charged to both endpoints and free when co-located —
  priced consistently with the latency tensors' ``[N, N]`` embedding
  matrices.

The solvers (:func:`energy_aware_placement`) run on the vectorized energy
tensors (:class:`repro.core.placement.tensors.EnergyTensors`), which replay
these scalar formulas in the same float-operation order, so tensorized
joules are bit-identical to this module's reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.routing.latency import LatencyModel
from repro.utils.checks import is_limit
from repro.utils.errors import ConfigurationError
from repro.utils.seeding import rng_for


@dataclass(frozen=True)
class EnergyProfile:
    """Power characteristics of one device."""

    name: str
    active_watts: float
    idle_watts: float
    radio_nj_per_byte: float  # nanojoules per transmitted/received byte

    def compute_joules(self, seconds: float) -> float:
        """Active-compute energy in joules for ``seconds`` of busy time."""
        return self.active_watts * seconds

    def transfer_joules(self, payload_bytes: int) -> float:
        """Radio energy in joules to move ``payload_bytes`` over the air."""
        return self.radio_nj_per_byte * payload_bytes * 1e-9


#: Typical figures: Jetson Nano ~10 W active; the M3 laptop ~25 W; a desktop
#: i7 ~95 W under load; the P40 server ~250 W; Wi-Fi radios ~100 nJ/B,
#: wired NICs far less.
ENERGY_PROFILES: Dict[str, EnergyProfile] = {
    profile.name: profile
    for profile in [
        EnergyProfile("server", active_watts=250.0, idle_watts=60.0, radio_nj_per_byte=20.0),
        EnergyProfile("server-cpu", active_watts=150.0, idle_watts=50.0, radio_nj_per_byte=20.0),
        EnergyProfile("desktop", active_watts=95.0, idle_watts=20.0, radio_nj_per_byte=25.0),
        EnergyProfile("laptop", active_watts=25.0, idle_watts=3.0, radio_nj_per_byte=100.0),
        EnergyProfile("jetson-a", active_watts=10.0, idle_watts=1.5, radio_nj_per_byte=100.0),
        EnergyProfile("jetson-b", active_watts=10.0, idle_watts=1.5, radio_nj_per_byte=60.0),
        EnergyProfile("l40s", active_watts=350.0, idle_watts=80.0, radio_nj_per_byte=20.0),
    ]
}


def get_energy_profile(name: str) -> EnergyProfile:
    try:
        return ENERGY_PROFILES[name]
    except KeyError:
        raise ConfigurationError(f"no energy profile for device {name!r}") from None


#: Device-name prefix of the synthetic scaling instances
#: (``repro.experiments.scaling`` names its fleet ``dev-00``, ``dev-01``, ...).
SYNTHETIC_DEVICE_PREFIX = "dev-"

#: Derived profiles for the synthetic fleet; cached so repeated resolution
#: returns one object.
_DERIVED_PROFILES: Dict[str, EnergyProfile] = {}


def resolve_energy_profile(name: str) -> EnergyProfile:
    """The device's energy profile.

    The calibrated table covers the paper's testbed; the synthetic scaling
    fleet (:data:`SYNTHETIC_DEVICE_PREFIX` names only) gets a profile
    seeded deterministically from the device *name*, so the same instance
    always prices to the same joules regardless of call order or process.
    Any other unknown name raises :class:`ConfigurationError` — a typo'd
    or stale device name must not silently price against a fabricated
    profile.
    """
    profile = ENERGY_PROFILES.get(name)
    if profile is not None:
        return profile
    if not name.startswith(SYNTHETIC_DEVICE_PREFIX):
        return get_energy_profile(name)  # raises ConfigurationError
    derived = _DERIVED_PROFILES.get(name)
    if derived is None:
        rng = rng_for("energy-profile", name)
        active = float(rng.uniform(8.0, 120.0))
        derived = EnergyProfile(
            name,
            active_watts=active,
            idle_watts=0.15 * active,
            radio_nj_per_byte=float(rng.uniform(20.0, 100.0)),
        )
        _DERIVED_PROFILES[name] = derived
    return derived


def hop_radio_joules(src: str, dst: str, payload_bytes: int) -> float:
    """Radio joules to move ``payload_bytes`` from ``src`` to ``dst``.

    Charged to **both** endpoints (sender TX + receiver RX); zero when the
    endpoints coincide, matching :meth:`Network.transfer_seconds`.
    """
    if src == dst:
        return 0.0
    return resolve_energy_profile(src).transfer_joules(payload_bytes) + (
        resolve_energy_profile(dst).transfer_joules(payload_bytes)
    )


def request_energy_joules(
    request: InferenceRequest,
    placement: Placement,
    latency_model: LatencyModel,
) -> float:
    """Total cluster energy to serve one request under ``placement``.

    Accumulation order (the energy tensors replay it exactly): for each
    encoder path, ``(compute + input radio) + embedding radio``; then the
    head's compute joules.
    """
    routing = latency_model.route(request, placement)
    total = 0.0
    # Resolve against the problem's table so no-sharing clones work too.
    modules = [latency_model.module(name) for name in request.model.module_names]
    head_host = routing.host_of(request.model.head)
    for module in modules:
        host = routing.host_of(module.name)
        profile = resolve_energy_profile(host)
        compute = profile.compute_joules(
            latency_model.compute_seconds(request, module.name, host)
        )
        if module.is_encoder:
            modality = module.modality or "image"
            payload = request.model.payload_bytes(modality)
            path = compute + hop_radio_joules(request.source, host, payload)
            path = path + hop_radio_joules(host, head_host, module.output_bytes)
            total = total + path
        else:
            total = total + compute
    return total


def energy_objective(
    requests: Sequence[InferenceRequest],
    placement: Placement,
    latency_model: LatencyModel,
) -> float:
    """Total joules across a request set — the energy-aware objective."""
    return sum(request_energy_joules(r, placement, latency_model) for r in requests)


def energy_aware_placement(
    problem: PlacementProblem,
    requests: Sequence[InferenceRequest],
    network: Optional[Network] = None,
    latency_budget_factor: float = 1.5,
    solver: str = "bnb",
    tensors=None,
) -> Placement:
    """Pick the lowest-energy placement within a latency budget.

    The budget is ``latency_budget_factor`` times the greedy placement's
    latency objective — the battery-life optimization the paper defers to
    future work, made concrete.  Dispatches to
    :func:`repro.core.placement.optimal.energy_optimal_placement`:
    branch-and-bound by default (exact, scales to ~10 modules x ~32
    devices), brute-force enumeration as the oracle (``solver="brute"``).
    Falls back to the greedy baseline when no placement fits the budget.
    """
    from repro.core.placement.greedy import greedy_placement
    from repro.core.placement.optimal import energy_optimal_placement

    if not (is_limit(latency_budget_factor) and latency_budget_factor > 0):
        raise ConfigurationError(
            "latency_budget_factor must be a positive real number, "
            f"got {latency_budget_factor!r}"
        )
    net = network if network is not None else Network()
    model = LatencyModel(problem, net, tensors=tensors)
    baseline = greedy_placement(problem)
    budget = latency_budget_factor * model.objective(requests, baseline)
    best, _ = energy_optimal_placement(
        problem,
        requests,
        network=net,
        latency_budget=budget,
        solver=solver,
        tensors=model.tensors,
    )
    return best if best is not None else baseline
