"""Footnote 4: batch-inference scaling of the LLM head.

The paper measures LLaVA-Next-7B at batch sizes 1/10/20 taking
1.28/4.90/9.16 s — near-linear beyond a fixed setup cost.  This experiment
regenerates the series from our batch-scaling model and reports the
module-level batching speedup that motivates the Sec. VI-C queueing remedy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.catalog import get_model, get_module
from repro.core.routing.batching import batch_speedup, batched_service_time
from repro.profiles.calibration import BATCH_ANCHORS
from repro.profiles.compute import DEFAULT_COMPUTE_MODEL
from repro.profiles.devices import get_device_profile

MODEL = "llava-next-7b"
#: Footnote 4 measured on an NVIDIA L40S, not the testbed's P40.
DEVICE = "l40s"


@dataclass(frozen=True)
class BatchPoint:
    batch_size: int
    seconds: float
    paper_seconds: Optional[float]
    throughput_speedup: float


def run_batching(batch_sizes: Optional[List[int]] = None) -> List[BatchPoint]:
    model = get_model(MODEL)
    module = get_module(model.head)
    device = get_device_profile(DEVICE)
    paper = dict(BATCH_ANCHORS)
    points = []
    for batch in batch_sizes if batch_sizes is not None else [1, 10, 20]:
        seconds = batched_service_time(DEFAULT_COMPUTE_MODEL, module, device, model, batch)
        speedup = batch_speedup(DEFAULT_COMPUTE_MODEL, module, device, model, batch)
        points.append(
            BatchPoint(
                batch_size=batch,
                seconds=seconds,
                paper_seconds=paper.get(batch),
                throughput_speedup=speedup,
            )
        )
    return points


def render_batching(points: Optional[List[BatchPoint]] = None) -> str:
    points = points if points is not None else run_batching()
    lines = ["Footnote 4: LLM-head batch scaling (LLaVA-Next-7B class head)"]
    for point in points:
        paper = f" (paper {point.paper_seconds:.2f}s)" if point.paper_seconds else ""
        lines.append(
            f"batch {point.batch_size:>3}: {point.seconds:.2f}s{paper}, "
            f"throughput x{point.throughput_speedup:.1f}"
        )
    return "\n".join(lines)
