"""Shared fixtures and seeded instance generators for the test suite."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.topology import build_testbed
from repro.core.placement.problem import PlacementProblem
from repro.federation import ClusterSpec, FederationTopology, WanLink
from repro.datasets.latent import _TEXT_BINS
from repro.models.zoo import DEFAULT_ZOO
from repro.profiles.devices import edge_device_names, testbed_device_names
from repro.serving.workload import ArrivalTrace
from repro.sim.trace import CATEGORY_COMPUTE
from repro.utils.seeding import rng_for

#: The two-model mix and four-device pool shared by the serving and
#: federation suites (formerly duplicated per test module).
SERVING_MODELS = ["clip-vit-b16", "encoder-vqa-small"]
TESTBED_DEVICES = ["desktop", "laptop", "jetson-b", "jetson-a"]


#: Report digests recorded with the retired generator-process serving
#: engine, after checking that it and the flat engine digested each case
#: equal; the ``attempt:`` keys were recorded by the flat engine alone.
#: Keys name the case (see ``tests/test_serving_golden.py``).
SERVING_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "serving_digests.json").read_text()
)


def assert_matches_golden(report, key):
    """Widened conservation, then ``report.digest()`` against the golden."""
    assert report.completed + report.rejected + report.timed_out == report.arrivals
    assert report.digest() == SERVING_GOLDEN[key], f"digest changed for {key}"


def burst_trace(count, spacing_s=0.1, model="clip-vit-b16", duration_s=10.0):
    """A hand-built trace (bypasses the generator) for targeted scenarios.

    The single definition of the helper formerly duplicated in
    ``tests/test_serving_runtime.py``; arrivals land every ``spacing_s``
    seconds starting at ``spacing_s``.
    """
    return ArrivalTrace(
        times=[spacing_s * (i + 1) for i in range(count)],
        model_names=(model,) * count,
        duration_s=duration_s,
        kind="poisson",
        seed=0,
    )


def small_federation(rate_rps=1.2, capacity_rps=1.8, period_s=60.0):
    """A three-cluster full-mesh federation with thirds-of-a-period
    timezone offsets — the shape the federation suites exercise."""
    return FederationTopology(
        clusters=(
            ClusterSpec("us-west", rate_rps=rate_rps, capacity_rps=capacity_rps,
                        phase_offset_s=0.0),
            ClusterSpec("eu-central", rate_rps=rate_rps, capacity_rps=capacity_rps,
                        phase_offset_s=period_s / 3.0),
            ClusterSpec("ap-south", rate_rps=rate_rps, capacity_rps=capacity_rps,
                        phase_offset_s=2.0 * period_s / 3.0),
        ),
        links=(
            WanLink("us-west", "eu-central", latency_s=0.07, bandwidth_mbps=200.0),
            WanLink("eu-central", "ap-south", latency_s=0.09, bandwidth_mbps=150.0),
            WanLink("us-west", "ap-south", latency_s=0.11, bandwidth_mbps=120.0),
        ),
    )


def seeded_noisy_problem(
    namespace, models, seed, sigma=0.06, devices=None, devices_in_key=True
):
    """A paper-scale instance with seeded lognormal compute noise.

    The single definition of the generator formerly duplicated across
    ``tests/test_placement_tensors.py`` / ``tests/test_replicas.py`` /
    ``tests/test_energy.py``.  The rng key layout is part of each suite's
    frozen draw history: ``namespace`` selects the stream and
    ``devices_in_key`` keeps the legacy key shapes intact
    (``(*models, len(devices), seed)`` for the tensor/energy suites,
    ``(*models, seed)`` for the replica suite).  The full key is printed so
    a failing property test reports exactly which instance broke —
    pytest surfaces the captured line on failure only.
    """
    device_names = list(devices) if devices is not None else edge_device_names()
    base = PlacementProblem.from_models(models, device_names)
    key = (*models, len(device_names), seed) if devices_in_key else (*models, seed)
    print(
        f"seeded instance: namespace={namespace!r} key={key} "
        f"devices={device_names} sigma={sigma}"
    )
    rng = rng_for(namespace, *key)
    noise = {
        (module.name, device.name): float(rng.lognormal(0.0, sigma))
        for module in base.modules
        for device in base.devices
    }
    return dataclasses.replace(base, compute_noise=noise)


def used_bytes(placement, device_name, modules):
    """Weight bytes ``placement`` puts on ``device_name`` (``modules`` maps
    name -> spec)."""
    return sum(
        modules[name].memory_bytes
        for name, hosts in placement.assignments.items()
        if device_name in hosts
    )


def parallel_compute_spans(trace):
    """Pairs of compute spans on *different* devices that overlap in time:
    non-empty output shows per-request parallel encoding (Fig. 3)."""
    compute = trace.by_category(CATEGORY_COMPUTE)
    return [
        (first, second)
        for i, first in enumerate(compute)
        for second in compute[i + 1:]
        if first.device != second.device and first.overlaps(second)
    ]


def latent_from_tokens(tokens):
    """Approximate inverse of ``LatentConceptSpace.tokens_from_latent``
    (bin centers)."""
    bins = _TEXT_BINS
    pairs = np.stack([tokens // bins, tokens % bins], axis=1).reshape(-1)
    centers = (pairs + 0.5) / bins * 2.0 - 1.0
    return np.arctanh(np.clip(centers, -0.999, 0.999)) / 1.5


@pytest.fixture
def noisy_problem_factory():
    """The seeded instance generator, as a fixture for new suites."""
    return seeded_noisy_problem


@pytest.fixture
def burst_trace_factory():
    """The hand-built trace helper, as a fixture for new suites."""
    return burst_trace


@pytest.fixture
def federation_topology():
    """A fresh three-cluster full-mesh federation (default shape)."""
    return small_federation()


@pytest.fixture(scope="session")
def zoo():
    """Process-wide executable-model zoo (modules cache across tests)."""
    return DEFAULT_ZOO


@pytest.fixture
def edge_cluster():
    """A fresh four-edge-device cluster (the paper's default deployment)."""
    return build_testbed(edge_device_names(), requester="jetson-a")


@pytest.fixture
def full_cluster():
    """A fresh five-device cluster including the GPU server."""
    return build_testbed(testbed_device_names(), requester="jetson-a")
