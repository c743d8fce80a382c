#!/usr/bin/env python
"""Decoder-only VQA under changing device availability (paper Table IX).

LLM task heads dominate VQA latency and cannot be parallelized (paper
Sec. VI-C), so WHERE the head lands matters enormously.  This example sweeps
device subsets for Flint-v0.5-1B (ViT-L/14@336 + TinyLlama-1.1B), shows how
placement adapts, and demonstrates module-level request batching as the
queueing remedy.

Run:  python examples/vqa_degraded_cluster.py
"""

from repro.cluster.topology import build_testbed
from repro.core.catalog import get_model, get_module
from repro.core.engine import S2M3Engine
from repro.core.routing.batching import batch_speedup, batched_service_time
from repro.profiles.compute import DEFAULT_COMPUTE_MODEL
from repro.profiles.devices import get_device_profile

MODEL = "flint-v0.5-1b"

SCENARIOS = [
    ("full testbed", ["server", "desktop", "laptop", "jetson-b", "jetson-a"]),
    ("server offline", ["desktop", "laptop", "jetson-b", "jetson-a"]),
    ("laptop also gone", ["desktop", "jetson-b", "jetson-a"]),
]


def main() -> None:
    print(f"model: {get_model(MODEL).display_name}\n")
    for label, devices in SCENARIOS:
        cluster = build_testbed(devices, requester="jetson-a")
        engine = S2M3Engine(cluster, [MODEL])
        engine.deploy()
        latency = engine.serve([engine.request(MODEL)]).outcomes[0].latency
        hosts = {
            name: "/".join(hosts)
            for name, hosts in engine.placement.as_dict().items()
        }
        print(f"--- {label} ({len(devices)} devices) ---")
        for module_name, host in hosts.items():
            print(f"  {module_name:28s} -> {host}")
        print(f"  single-request latency: {latency:.2f}s\n")

    # --- Batching: the Sec. VI-C remedy for LLM-head queueing -----------
    model = get_model(MODEL)
    head = get_module(model.head)
    device = get_device_profile("server")
    print("LLM-head batching on the GPU server (footnote 4's scaling):")
    for batch in [1, 4, 8, 16]:
        seconds = batched_service_time(DEFAULT_COMPUTE_MODEL, head, device, model, batch)
        speedup = batch_speedup(DEFAULT_COMPUTE_MODEL, head, device, model, batch)
        print(
            f"  batch {batch:>2}: {seconds:6.2f}s total, "
            f"{seconds / batch:5.2f}s/request (throughput x{speedup:.1f})"
        )


if __name__ == "__main__":
    main()
