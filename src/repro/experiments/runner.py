"""Shared experiment plumbing: single-shot latency on a fresh cluster."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.topology import build_testbed
from repro.core.engine import S2M3Engine
from repro.profiles.devices import edge_device_names

DEFAULT_REQUESTER = "jetson-a"


def s2m3_single_request_latency(
    model_name: str,
    device_names: Optional[Sequence[str]] = None,
    requester: str = DEFAULT_REQUESTER,
    parallel: bool = True,
) -> float:
    """Deploy one model on a fresh cluster and serve one request (simulated)."""
    cluster = build_testbed(
        list(device_names) if device_names is not None else edge_device_names(),
        requester=requester,
    )
    engine = S2M3Engine(cluster, [model_name], parallel=parallel)
    engine.deploy()
    result = engine.serve([engine.request(model_name)])
    return result.outcomes[0].latency
