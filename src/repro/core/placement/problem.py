"""The placement problem instance and decision objects.

A :class:`PlacementProblem` carries the distinct module set ``M`` (after
sharing), the candidate devices with their memory budgets, and the compute
model used for the completion-time scores of Eqs. 5-7.  A :class:`Placement`
is the binary decision matrix ``x_{m,n}`` in sparse form: module name ->
tuple of host device names (multiple hosts = replication).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.models import ModelSpec
from repro.core.modules import ModuleSpec
from repro.core.sharing import build_sharing_plan
from repro.profiles.compute import ComputeModel, DEFAULT_COMPUTE_MODEL
from repro.profiles.devices import DeviceProfile, get_device_profile
from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class PlacementProblem:
    """One placement instance: modules, devices, and timing oracles."""

    modules: Tuple[ModuleSpec, ...]
    devices: Tuple[DeviceProfile, ...]
    models: Tuple[ModelSpec, ...]
    compute_model: ComputeModel = DEFAULT_COMPUTE_MODEL
    #: Optional multiplicative noise on compute times, keyed by
    #: (module, device) — used by the randomized optimality trials to model
    #: the paper's run-to-run variability.
    compute_noise: Mapping[Tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.modules:
            raise ConfigurationError("placement problem has no modules")
        if not self.devices:
            raise ConfigurationError("placement problem has no devices")
        names = [module.name for module in self.modules]
        if len(set(names)) != len(names):
            raise ConfigurationError("placement problem has duplicate modules")
        object.__setattr__(self, "compute_noise", MappingProxyType(dict(self.compute_noise)))
        # Memoization caches (not dataclass fields: they do not participate
        # in __eq__, and everything they derive from is frozen).  Candidate
        # ranking in the greedy solver and enumeration scoring hit the same
        # (module, device) pairs over and over; computing each once is the
        # satellite companion of the cost-tensor layer.
        object.__setattr__(self, "_device_by_name", {d.name: d for d in self.devices})
        object.__setattr__(self, "_planning_scale_cache", {})
        object.__setattr__(self, "_compute_seconds_cache", {})

    # ------------------------------------------------------------------
    # Timing oracles
    # ------------------------------------------------------------------
    def planning_scale(self, module: ModuleSpec) -> float:
        """Work scale used for planning: the most demanding use of the module.

        A shared text encoder serves retrieval's full prompt set and VQA's
        single question; placement must budget for the heavier use.
        Memoized per module name (the model set is frozen).
        """
        cache: Dict[str, float] = self._planning_scale_cache  # type: ignore[attr-defined]
        try:
            return cache[module.name]
        except KeyError:
            scales = [model.scale_for(module.name) for model in self.models
                      if module.name in model.module_names]
            cache[module.name] = scale = max(scales, default=1.0)
            return scale

    def compute_seconds(self, module: ModuleSpec, device: DeviceProfile) -> float:
        """Planning ``t^comp_{m,n}`` in seconds with the planning work
        scale and noise.

        Memoized per (module, device) name pair so candidate rankings in
        :func:`~repro.core.placement.greedy.greedy_placement` and
        enumeration scoring stop re-deriving identical values.
        """
        cache: Dict[Tuple[str, str], float] = self._compute_seconds_cache  # type: ignore[attr-defined]
        key = (module.name, device.name)
        try:
            return cache[key]
        except KeyError:
            base = device.compute_seconds(module, work_scale=self.planning_scale(module))
            cache[key] = value = base * self.compute_noise.get(key, 1.0)
            return value

    def device(self, name: str) -> DeviceProfile:
        try:
            return self._device_by_name[name]  # type: ignore[attr-defined]
        except KeyError:
            raise ConfigurationError(f"unknown device {name!r} in problem") from None

    @staticmethod
    def from_models(
        models: Sequence["ModelSpec | str"],
        device_names: Sequence[str],
        compute_model: ComputeModel = DEFAULT_COMPUTE_MODEL,
        compute_noise: Optional[Mapping[Tuple[str, str], float]] = None,
    ) -> "PlacementProblem":
        """Build a problem from a model set (sharing applied) and device names."""
        plan = build_sharing_plan(models)
        return PlacementProblem(
            modules=tuple(plan.distinct_modules),
            devices=tuple(get_device_profile(name) for name in device_names),
            models=tuple(plan.models),
            compute_model=compute_model,
            compute_noise=dict(compute_noise or {}),
        )


@dataclass(frozen=True)
class Placement:
    """A placement decision: module name -> host device names (``x_{m,n}``)."""

    assignments: Mapping[str, Tuple[str, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", MappingProxyType(dict(self.assignments)))

    def hosts(self, module_name: str) -> Tuple[str, ...]:
        """Devices hosting ``module_name`` (the paper's ``N_m``)."""
        try:
            return self.assignments[module_name]
        except KeyError:
            raise ConfigurationError(f"module {module_name!r} is unplaced") from None

    @property
    def module_names(self) -> List[str]:
        return list(self.assignments)

    def as_dict(self) -> Dict[str, Tuple[str, ...]]:
        return dict(self.assignments)

    def with_extra(self, module_name: str, device_name: str) -> "Placement":
        """A new placement with an extra replica of ``module_name``."""
        updated = dict(self.assignments)
        hosts = updated.get(module_name, ())
        if device_name in hosts:
            return self
        updated[module_name] = hosts + (device_name,)
        return Placement(updated)
