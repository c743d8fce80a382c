"""Cluster assembly: the paper's testbed and custom variants.

:class:`EdgeCluster` bundles an event loop, devices, network and trace
recorder.  :func:`build_testbed` reproduces the Table III deployment with a
chosen device subset (the Table IX availability ablation varies exactly
this), defaulting to the paper's setup: four PAN edge devices with
``jetson-a`` as the requester.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.cluster.device import Device
from repro.cluster.network import Network
from repro.profiles.compute import ComputeModel, DEFAULT_COMPUTE_MODEL
from repro.profiles.devices import DeviceProfile, edge_device_names, get_device_profile
from repro.sim import FlatEventLoop, TraceRecorder
from repro.utils.errors import ConfigurationError


class EdgeCluster:
    """A set of live devices sharing one event loop and one network."""

    def __init__(
        self,
        devices: Sequence[Device],
        network: Network,
        sim: FlatEventLoop,
        requester: str,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if not devices:
            raise ConfigurationError("a cluster needs at least one device")
        self.sim = sim
        self.network = network
        self.trace = trace if trace is not None else TraceRecorder()
        self.devices: Dict[str, Device] = {device.name: device for device in devices}
        if len(self.devices) != len(devices):
            raise ConfigurationError("duplicate device name in cluster")
        if requester not in self.devices and not network.has_node(requester):
            raise ConfigurationError(f"requester {requester!r} is not on the network")
        self.requester = requester

    @property
    def device_names(self) -> List[str]:
        return list(self.devices)

    def device(self, name: str) -> Device:
        try:
            return self.devices[name]
        except KeyError:
            raise ConfigurationError(f"unknown device {name!r} in cluster") from None

    def hosts_of(self, module_name: str) -> List[Device]:
        """Devices currently hosting ``module_name`` (the paper's ``N_m``)."""
        return [device for device in self.devices.values() if device.hosts(module_name)]

    def max_device_params(self) -> int:
        """Largest per-device resident parameter count (split metric)."""
        per_device = [
            sum(module.params for module in device.loaded.values())
            for device in self.devices.values()
        ]
        return max(per_device, default=0)


def build_cluster(
    profiles: Iterable[DeviceProfile],
    requester: str,
    network: Optional[Network] = None,
    compute_model: ComputeModel = DEFAULT_COMPUTE_MODEL,
) -> EdgeCluster:
    """Assemble a cluster from explicit device profiles.

    Units carried by the pieces: device ``memory_bytes`` budgets are
    **bytes** of fp16 weights, network link speeds are **bytes/second**,
    and the cluster's event-loop clock ticks in **seconds**.  A fresh
    :class:`~repro.sim.FlatEventLoop` (clock at 0) is created per call.
    """
    sim = FlatEventLoop()
    trace = TraceRecorder()
    net = network if network is not None else Network()
    devices = [Device(sim, profile, compute_model, trace=trace) for profile in profiles]
    return EdgeCluster(devices, net, sim, requester=requester, trace=trace)


def build_testbed(
    device_names: Optional[Sequence[str]] = None,
    requester: str = "jetson-a",
    compute_model: ComputeModel = DEFAULT_COMPUTE_MODEL,
) -> EdgeCluster:
    """The paper's testbed with a chosen device subset.

    Defaults to the four-edge-device PAN deployment (no cloud server) used
    for the headline S2M3 rows; pass
    ``testbed_device_names()`` for the "+ Server" variant of Table IX.
    Device memory budgets are **bytes**, link speeds **bytes/second**, and
    all simulated times **seconds** (see :func:`build_cluster`).
    """
    names = list(device_names) if device_names is not None else edge_device_names()
    if requester not in names:
        # The requester always participates: it holds the input data and can
        # host modules (the paper's Jetson A hosts the audio encoder in
        # Table X's deployment).
        names = names + [requester]
    profiles = [get_device_profile(name) for name in names]
    return build_cluster(profiles, requester=requester)
