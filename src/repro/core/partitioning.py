"""Intra-module pipeline partitioning — the paper's last-resort fallback.

When a module fits on no device even after compression, the paper's remedy
is DNN/LLM partitioning: split the module itself into sequential stages and
"search the devices for partitioned modules (as one module) using our greedy
placement approach" (Sec. V-B).

A partitioned module is a chain of stage specs; stages execute sequentially
(a layer pipeline), each adding an inter-stage activation transfer when
adjacent stages sit on different devices — precisely the transmission
overhead the paper warns intra-module partitioning pays (Sec. II).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.network import Network
from repro.core.modules import ModuleSpec
from repro.profiles.devices import DeviceProfile
from repro.utils.errors import PlacementError

#: Bytes of activations handed from one pipeline stage to the next.
STAGE_ACTIVATION_BYTES = 100_000
#: Don't partition beyond this many stages (diminishing returns, exploding
#: transfer overhead).
MAX_STAGES = 8


@dataclass(frozen=True)
class PartitionedModule:
    """A module split into a sequential stage chain."""

    source: ModuleSpec
    stages: Tuple[ModuleSpec, ...]

    @property
    def stage_count(self) -> int:
        return len(self.stages)


def partition_module(module: ModuleSpec, stages: int) -> PartitionedModule:
    """Split ``module`` into ``stages`` equal sequential stages.

    Stage names are ``<name>#0 .. <name>#k-1``; memory and work divide
    evenly (transformer layers partition cleanly); every stage ships
    :data:`STAGE_ACTIVATION_BYTES` to its successor.
    """
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    if stages == 1:
        return PartitionedModule(source=module, stages=(module,))
    per_stage_params = module.params // stages
    per_stage_work = module.work / stages
    stage_specs = []
    for index in range(stages):
        # Give the last stage the rounding remainder so totals are exact.
        params = per_stage_params
        if index == stages - 1:
            params = module.params - per_stage_params * (stages - 1)
        stage_specs.append(
            dataclasses.replace(
                module,
                name=f"{module.name}#{index}",
                params=params,
                work=per_stage_work,
                output_bytes=STAGE_ACTIVATION_BYTES
                if index < stages - 1
                else module.output_bytes,
            )
        )
    return PartitionedModule(source=module, stages=tuple(stage_specs))


@dataclass(frozen=True)
class StagePlacement:
    """Stage name -> host device, for one partitioned module."""

    partitioned: PartitionedModule
    hosts: Tuple[str, ...]

    def host_of(self, index: int) -> str:
        return self.hosts[index]


def place_stages(
    partitioned: PartitionedModule,
    devices: Sequence[DeviceProfile],
    residual_bytes: Dict[str, int],
) -> StagePlacement:
    """Greedy stage placement: each stage to the fastest device with room.

    Mirrors Algorithm 1's spirit (fastest completion first) but chains are
    sequential, so accumulation does not apply across stages — a stage only
    starts when its predecessor finishes anyway.
    """
    hosts: List[str] = []
    for stage in partitioned.stages:
        ranked = sorted(
            devices,
            key=lambda device: (device.compute_seconds(stage), device.name),
        )
        chosen = None
        for device in ranked:
            if residual_bytes.get(device.name, 0) >= stage.memory_bytes:
                chosen = device.name
                break
        if chosen is None:
            raise PlacementError(
                f"stage {stage.name!r} ({stage.memory_bytes} B) fits on no device"
            )
        residual_bytes[chosen] -= stage.memory_bytes
        hosts.append(chosen)
    return StagePlacement(partitioned=partitioned, hosts=tuple(hosts))


def chain_seconds(
    placement: StagePlacement,
    network: Network,
    work_scale: float = 1.0,
    devices: Dict[str, DeviceProfile] = None,
) -> float:
    """End-to-end time of the sequential stage chain, in seconds.

    Sum of per-stage compute plus inter-stage activation transfers where
    adjacent stages sit on different devices.
    """
    if devices is None:
        raise ValueError("devices mapping is required")
    total = 0.0
    stages = placement.partitioned.stages
    for index, stage in enumerate(stages):
        host = placement.host_of(index)
        total += devices[host].compute_seconds(stage, work_scale=work_scale)
        if index < len(stages) - 1:
            next_host = placement.host_of(index + 1)
            total += network.transfer_seconds(host, next_host, stage.output_bytes)
    return total


def fit_oversized_module(
    module: ModuleSpec,
    devices: Sequence[DeviceProfile],
    network: Network,
    residual_bytes: Dict[str, int] = None,
    work_scale: float = 1.0,
) -> Tuple[StagePlacement, float]:
    """One-call fallback: partition minimally, place stages, price the chain.

    Returns the stage placement and its end-to-end seconds.  This is the
    paper's "apply compression or DNN/LLM partitioning ... then search the
    devices" path, packaged for the engine and experiments.
    """
    base_residual = (
        dict(residual_bytes)
        if residual_bytes is not None
        else {device.name: device.memory_bytes for device in devices}
    )
    if module.memory_bytes > sum(base_residual.values()):
        raise PlacementError(
            f"module {module.name!r} ({module.memory_bytes} B) exceeds the pool's "
            f"total free memory ({sum(base_residual.values())} B); partitioning "
            "cannot create capacity"
        )
    device_map = {device.name: device for device in devices}
    largest_free = max(base_residual.values())
    start = max(1, math.ceil(module.memory_bytes / max(1, largest_free)))
    # The naive per-stage bound can still fail bin-packing (a device may not
    # hold two stages); search upward until the stages place.
    last_error: Optional[PlacementError] = None
    for stages in range(start, MAX_STAGES + 1):
        partitioned = partition_module(module, stages)
        try:
            placement = place_stages(partitioned, devices, dict(base_residual))
        except PlacementError as error:
            last_error = error
            continue
        seconds = chain_seconds(placement, network, work_scale=work_scale, devices=device_map)
        return placement, seconds
    raise PlacementError(
        f"module {module.name!r} cannot be pipeline-partitioned onto this pool "
        f"within {MAX_STAGES} stages"
    ) from last_error
