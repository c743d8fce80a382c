"""Feasibility checks for placements (constraints 4b-4e of Problem 4)."""

from __future__ import annotations

from typing import Dict

from repro.core.placement.problem import Placement, PlacementProblem
from repro.utils.errors import PlacementError


def check_placement(problem: PlacementProblem, placement: Placement) -> None:
    """Raise :class:`PlacementError` if ``placement`` violates the problem.

    Checks: every module placed at least once (needed for 4c to be
    satisfiable), hosts are known devices, no duplicate host per module,
    and per-device memory (4d).
    """
    modules = {module.name: module for module in problem.modules}
    device_names = {device.name for device in problem.devices}

    for module_name in modules:
        if module_name not in placement.assignments:
            raise PlacementError(f"module {module_name!r} is unplaced")

    used: Dict[str, int] = {name: 0 for name in device_names}
    for module_name, hosts in placement.assignments.items():
        if module_name not in modules:
            raise PlacementError(f"placement mentions unknown module {module_name!r}")
        if not hosts:
            raise PlacementError(f"module {module_name!r} has an empty host list")
        if len(set(hosts)) != len(hosts):
            raise PlacementError(f"module {module_name!r} has duplicate hosts {hosts}")
        for host in hosts:
            if host not in device_names:
                raise PlacementError(f"module {module_name!r} placed on unknown device {host!r}")
            used[host] += modules[module_name].memory_bytes

    for device in problem.devices:
        if used[device.name] > device.memory_bytes:
            raise PlacementError(
                f"device {device.name!r} over capacity: "
                f"{used[device.name]} B used > {device.memory_bytes} B available"
            )


def per_device_params(problem: PlacementProblem, placement: Placement) -> Dict[str, int]:
    """Resident parameter count per device (the Table VI split metric)."""
    modules = {module.name: module for module in problem.modules}
    totals = {device.name: 0 for device in problem.devices}
    for module_name, hosts in placement.assignments.items():
        for host in hosts:
            totals[host] += modules[module_name].params
    return totals
