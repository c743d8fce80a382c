"""Edge-cluster emulation: runtime devices, network, deployment, workloads.

This package turns the static :mod:`repro.profiles` into live simulation
objects: a :class:`Device` owns compute slots and a memory ledger on a
:class:`~repro.sim.FlatEventLoop`; the :class:`Network` prices transfers over the
PAN/MAN topology; :class:`EdgeCluster` bundles them; and
:mod:`repro.cluster.requests` generates inference workloads.
"""

from repro.cluster.device import Device
from repro.cluster.network import Network
from repro.cluster.topology import EdgeCluster, build_cluster, build_testbed
from repro.cluster.requests import (
    InferenceRequest,
    poisson_workload,
    sequential_workload,
    simultaneous_workload,
)

__all__ = [
    "Device",
    "Network",
    "EdgeCluster",
    "build_cluster",
    "build_testbed",
    "InferenceRequest",
    "poisson_workload",
    "sequential_workload",
    "simultaneous_workload",
]
