"""A runtime device: memory ledger + FIFO compute slots on the event loop.

The compute slot pool is what produces the paper's shared-module queueing
delay (Table X): two requests needing the same module on a one-slot device
serialize, while the GPU server's two slots let independent encoders overlap.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.models import ModelSpec
from repro.core.modules import ModuleSpec
from repro.profiles.compute import ComputeModel
from repro.profiles.devices import DeviceProfile
from repro.sim import FlatEventLoop, SlotPool, TraceRecorder
from repro.sim.trace import CATEGORY_COMPUTE, CATEGORY_LOADING
from repro.utils.errors import CapacityError


class Device:
    """One emulated device hosting zero or more functional modules."""

    def __init__(
        self,
        sim: FlatEventLoop,
        profile: DeviceProfile,
        compute_model: ComputeModel,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.profile = profile
        self.compute_model = compute_model
        self.trace = trace
        self.slots = SlotPool(sim, capacity=profile.parallel_slots)
        self.loaded: Dict[str, ModuleSpec] = {}
        self._used_bytes = 0
        self._load_offset = 0.0

    @property
    def name(self) -> str:
        return self.profile.name

    # ------------------------------------------------------------------
    # Memory ledger
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes of module weights currently resident."""
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        """Remaining usable weight memory."""
        return self.profile.memory_bytes - self._used_bytes

    def can_load(self, module: ModuleSpec) -> bool:
        """Whether ``module`` fits in the remaining memory (idempotent if loaded)."""
        if module.name in self.loaded:
            return True
        return module.memory_bytes <= self.free_bytes

    def hosts(self, module_name: str) -> bool:
        """Whether this device currently hosts ``module_name``."""
        return module_name in self.loaded

    def load(self, module: ModuleSpec) -> float:
        """Admit ``module`` into memory; returns the loading time in seconds.

        Loading is idempotent: re-loading a resident module costs nothing
        (this is exactly the sharing saving — a reused module is already
        there when a new task arrives).
        """
        if module.name in self.loaded:
            return 0.0
        if module.memory_bytes > self.free_bytes:
            raise CapacityError(
                f"device {self.name!r} cannot load {module.name!r}: "
                f"needs {module.memory_bytes} B, {self.free_bytes} B free"
            )
        self.loaded[module.name] = module
        self._used_bytes += module.memory_bytes
        load_time = self.compute_model.load_seconds(module, self.profile)
        if self.trace is not None:
            # Loads serialize within a device (deployment-phase timeline).
            self.trace.record(
                self.name,
                CATEGORY_LOADING,
                f"load {module.name}",
                self._load_offset,
                self._load_offset + load_time,
            )
        self._load_offset += load_time
        return load_time

    def unload(self, module_name: str) -> None:
        """Evict a module (used by reallocation experiments)."""
        module = self.loaded.pop(module_name, None)
        if module is not None:
            self._used_bytes -= module.memory_bytes

    # ------------------------------------------------------------------
    # Simulated execution
    # ------------------------------------------------------------------
    def execute(
        self,
        module: ModuleSpec,
        then: Callable[[float], None],
        model: Optional[ModelSpec] = None,
        batch_size: int = 1,
        request_id: Optional[int] = None,
        label: Optional[str] = None,
        category: str = CATEGORY_COMPUTE,
        service_scale: float = 1.0,
    ) -> None:
        """Queue for a compute slot, compute, then call ``then(service)``.

        ``service`` is the service time in seconds, excluding queueing;
        ``then`` runs on the loop once the slot is released and the span is
        recorded.  ``service_scale`` multiplies the service time (noise
        injection).
        """
        if not self.hosts(module.name):
            raise CapacityError(f"device {self.name!r} does not host {module.name!r}")
        service = service_scale * self.compute_model.seconds(
            module, self.profile, model=model, batch_size=batch_size
        )
        self.slots.acquire(
            self._granted, service, label or module.name, category, request_id, then
        )

    def _granted(self, service, label, category, request_id, then) -> None:
        self.sim.push(service, self._computed, service, self.sim.now, label, category,
                      request_id, then)

    def _computed(self, service, start, label, category, request_id, then) -> None:
        self.slots.release()
        if self.trace is not None:
            self.trace.record(
                self.name, category, label, start, self.sim.now, request_id=request_id
            )
        then(service)

    def compute_seconds(
        self, module: ModuleSpec, model: Optional[ModelSpec] = None, batch_size: int = 1
    ) -> float:
        """Analytic service time (no queueing) — the planner's ``t^comp``."""
        return self.compute_model.seconds(module, self.profile, model=model, batch_size=batch_size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device({self.name}, loaded={sorted(self.loaded)})"
