"""Module-level batch scaling (paper Sec. VI-C, "Multiple requests").

The paper's remedy for shared-module queueing is to aggregate requests that
target the same module — from the same task or from different tasks — and
process them as one batch, with the near-linear batch scaling of footnote 4.
:func:`~repro.core.routing.batched.execute_batched_burst` does the grouping;
this module prices a batch and its throughput gain.
"""

from __future__ import annotations

from repro.core.models import ModelSpec
from repro.core.modules import ModuleSpec
from repro.profiles.compute import ComputeModel
from repro.profiles.devices import DeviceProfile


def batched_service_time(
    compute_model: ComputeModel,
    module: ModuleSpec,
    device: DeviceProfile,
    model: ModelSpec,
    batch_size: int,
) -> float:
    """Service time for a batch on one module (footnote 4's scaling)."""
    return compute_model.seconds(module, device, model=model, batch_size=batch_size)


def batch_speedup(
    compute_model: ComputeModel,
    module: ModuleSpec,
    device: DeviceProfile,
    model: ModelSpec,
    batch_size: int,
) -> float:
    """Throughput gain of batching vs. one-at-a-time processing."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    single = compute_model.seconds(module, device, model=model, batch_size=1)
    batched = batched_service_time(compute_model, module, device, model, batch_size)
    if batched <= 0:
        return 1.0
    return single * batch_size / batched
