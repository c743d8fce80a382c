"""Synthetic beyond-paper-scale placement instances.

The paper's instances top out at 4 modules x 5 devices.  The scaling
benchmarks (``benchmarks/test_placement_scaling.py`` and the solver
sweeps of ``tests/test_study_gates.py``) need instances up to ~10 modules x ~32
devices to exercise the cost-tensor layer and the branch-and-bound solver,
so this module fabricates deterministic ones: a multi-modal model whose
encoders cycle through the vision/text/audio kinds, a fleet of heterogeneous
devices (one anchor device is always big enough for the largest module, so
greedy placement stays feasible), and a star network behind one router.

Everything is seeded through :func:`repro.utils.seeding.rng_for`, so the
same ``(n_modules, n_devices, seed)`` triple always produces the same
instance — benchmark runs are comparable across commits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.models import ModelSpec
from repro.core.modules import FAMILY_ANALYTIC, FAMILY_TRANSFORMER, ModuleKind, ModuleSpec
from repro.core.placement.problem import PlacementProblem
from repro.core.tasks import Task
from repro.profiles.communication import LinkProfile
from repro.profiles.devices import DeviceProfile
from repro.utils.seeding import rng_for
from repro.utils.units import GB, MB

#: Hub node of the synthetic star topology.
SCALING_ROUTER = "scale-router"

_ENCODER_KINDS = (
    ModuleKind.VISION_ENCODER,
    ModuleKind.TEXT_ENCODER,
    ModuleKind.AUDIO_ENCODER,
)


@dataclass(frozen=True)
class ScalingInstance:
    """One synthetic placement instance plus the requests that score it."""

    problem: PlacementProblem
    network: Network
    model: ModelSpec
    requests: Tuple[InferenceRequest, ...]

    @property
    def n_modules(self) -> int:
        return len(self.problem.modules)

    @property
    def n_devices(self) -> int:
        return len(self.problem.devices)


def _throughput(rng) -> dict:
    """A full per-kind throughput table around a device-wide speed grade."""
    grade = float(rng.uniform(5.0, 120.0))
    return {
        (ModuleKind.VISION_ENCODER, "*"): grade * float(rng.uniform(0.8, 1.2)),
        (ModuleKind.TEXT_ENCODER, "*"): grade * float(rng.uniform(0.5, 1.0)),
        (ModuleKind.AUDIO_ENCODER, "*"): grade * float(rng.uniform(0.6, 1.1)),
        (ModuleKind.LANGUAGE_MODEL, "*"): grade * float(rng.uniform(0.05, 0.2)),
        (ModuleKind.DISTANCE, "*"): grade * 30.0,
        (ModuleKind.CLASSIFIER, "*"): grade * 30.0,
    }


def synthetic_instance(
    n_modules: int,
    n_devices: int,
    seed: int = 0,
    n_requests: int = 4,
) -> ScalingInstance:
    """Build a deterministic ``n_modules x n_devices`` placement instance.

    ``n_modules`` counts the task head, so the model gets ``n_modules - 1``
    encoders; ``n_requests`` requests arrive from sources rotating over the
    first few devices (distinct sources keep the transfer tensors honest).
    """
    if n_modules < 2:
        raise ValueError(f"need >= 2 modules (encoder + head), got {n_modules}")
    if n_devices < 2:
        raise ValueError(f"need >= 2 devices, got {n_devices}")
    rng = rng_for("placement-scaling", n_modules, n_devices, seed)

    modules: List[ModuleSpec] = []
    for i in range(n_modules - 1):
        modules.append(
            ModuleSpec(
                name=f"enc-{i:02d}",
                kind=_ENCODER_KINDS[i % len(_ENCODER_KINDS)],
                params=int(rng.integers(20, 400)) * 1_000_000,
                work=float(rng.uniform(5.0, 60.0)),
                family=FAMILY_TRANSFORMER,
                output_bytes=2 * 1024,
            )
        )
    head = ModuleSpec(
        name="synth-head",
        kind=ModuleKind.CLASSIFIER,
        params=0,
        work=0.05,
        family=FAMILY_ANALYTIC,
    )
    modules.append(head)

    model = ModelSpec(
        name=f"synthetic-{n_modules}x{n_devices}",
        display_name=f"Synthetic {n_modules}x{n_devices}",
        task=Task.IMAGE_CLASSIFICATION,
        encoders=tuple(module.name for module in modules[:-1]),
        head=head.name,
    )

    largest = max(module.memory_bytes for module in modules)
    devices: List[DeviceProfile] = []
    links: List[LinkProfile] = []
    for i in range(n_devices):
        if i == 0:
            # Anchor: always fits the largest module, so greedy never fails.
            memory = max(int(8.0 * GB), 2 * largest)
        else:
            memory = int(float(rng.uniform(0.3, 6.0)) * GB)
        devices.append(
            DeviceProfile(
                name=f"dev-{i:02d}",
                description="synthetic scaling device",
                memory_bytes=memory,
                throughput=_throughput(rng),
                load_throughput_bps=float(rng.uniform(20.0, 300.0)) * MB,
                parallel_slots=int(rng.integers(1, 3)),
            )
        )
        links.append(
            LinkProfile(
                devices[-1].name,
                SCALING_ROUTER,
                bandwidth_bps=float(rng.uniform(40.0, 1000.0)) * 1_000_000,
                latency_s=float(rng.uniform(0.001, 0.005)),
            )
        )

    problem = PlacementProblem(
        modules=tuple(modules), devices=tuple(devices), models=(model,)
    )
    network = Network(links=links)
    requests = tuple(
        InferenceRequest(model=model, source=devices[q % min(4, n_devices)].name)
        for q in range(n_requests)
    )
    return ScalingInstance(problem=problem, network=network, model=model, requests=requests)
