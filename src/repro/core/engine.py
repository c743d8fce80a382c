"""The S2M3 orchestrator: split -> share -> place -> route -> serve.

:class:`S2M3Engine` is the library's main entry point.  Given a cluster and
a set of models it:

1. splits each model into functional modules (Sec. IV-A);
2. deduplicates shared modules across models (Sec. IV-B) — or, with
   ``share=False``, instantiates per-model dedicated copies (the Table X
   "w/o Sharing" arm);
3. places modules with greedy Algorithm 1 (pluggable: optimal / variants);
4. loads modules onto devices, accounting for loading time (the end-to-end
   column of Table VII);
5. serves request workloads in the discrete-event cluster with per-request
   parallel routing, or prices them analytically (Eq. 1-3).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.requests import InferenceRequest
from repro.cluster.topology import EdgeCluster
from repro.core.catalog import get_model, get_module
from repro.core.models import ModelSpec
from repro.core.modules import ModuleSpec
from repro.core.placement.greedy import greedy_placement, replicate_with_leftover
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.placement.validation import check_placement
from repro.core.routing.executor import ExecutionResult, execute_requests
from repro.core.routing.latency import LatencyBreakdown, LatencyModel
from repro.utils.errors import ConfigurationError

#: Placement algorithm signature; defaults to the paper's greedy.
PlacementAlgorithm = Callable[[PlacementProblem], Placement]


def _dedicated_instances(
    models: Sequence[ModelSpec],
) -> Tuple[List[ModuleSpec], List[ModelSpec]]:
    """Clone every module per model — the no-sharing deployment.

    Module names get a ``@model`` suffix so the sharing machinery sees them
    as distinct; model specs are rewritten to reference their clones.
    """
    modules: List[ModuleSpec] = []
    rewritten: List[ModelSpec] = []
    for model in models:
        mapping = {}
        for name in model.module_names:
            clone = dataclasses.replace(get_module(name), name=f"{name}@{model.name}")
            modules.append(clone)
            mapping[name] = clone.name
        rewritten.append(
            dataclasses.replace(
                model,
                encoders=tuple(mapping[name] for name in model.encoders),
                head=mapping[model.head],
                work_scale={mapping[k]: v for k, v in model.work_scale.items()},
                input_bytes=dict(model.input_bytes),
            )
        )
    return modules, rewritten


@dataclass(frozen=True)
class DeploymentReport:
    """What got deployed where, and what it cost.

    Attributes:
        placement: The validated module → host assignment.
        total_params: Parameters resident across the cluster (count; divide
            by 1e6 for the paper's "M" columns).
        max_device_params: Largest per-device resident parameter count.
        per_device_params: Resident parameter count per device name.
        load_seconds: End-to-end model-loading time in **seconds** — the
            per-device maximum, since devices load in parallel.
        per_device_load_seconds: Serial loading time per device, **seconds**.
    """

    placement: Placement
    total_params: int
    max_device_params: int
    per_device_params: Dict[str, int]
    load_seconds: float
    per_device_load_seconds: Dict[str, float]


@dataclass
class S2M3Engine:
    """End-to-end S2M3 on one cluster.

    All durations produced by the engine (deployment ``load_seconds``,
    estimate/serve latencies) are **seconds** of simulated time; module
    sizes are **bytes** of fp16 weights; parameter figures are raw counts.

    Attributes:
        cluster: Live cluster (fresh per experiment; deployment mutates it).
        models: Models to deploy (catalog names or specs).
        share: Deduplicate common modules across models (paper default).
        parallel: Per-request parallel routing over modality encoders.
        placement_algorithm: Defaults to greedy Algorithm 1.
        replicate: Run the leftover-memory replication pass
            (:func:`~repro.core.placement.greedy.replicate_with_leftover`,
            default ``max_copies=2``) after placement: extra copies of the
            largest modules go to the fastest devices with free memory, in
            descending memory order with deterministic name tie-breaks.
            Replicas only pay off when routing spreads load across them —
            pair with the queue-aware router (bursts) or the serving
            runtime; the one-shot Eq. 7 estimate ignores them.  For
            load-driven replica counts use the serving autoscaler
            (``ServingRuntime(autoscale=True)``) instead of a static pass.
    """

    cluster: EdgeCluster
    models: Sequence["ModelSpec | str"]
    share: bool = True
    parallel: bool = True
    placement_algorithm: Optional[PlacementAlgorithm] = None
    replicate: bool = False
    #: Sec. V-B fallback: when a module fits on no device, swap in the least
    #: compressed quantized variant that does (int8, then int4) and re-plan.
    allow_compression: bool = False

    _problem: Optional[PlacementProblem] = field(default=None, init=False, repr=False)
    _placement: Optional[Placement] = field(default=None, init=False, repr=False)
    _model_by_public_name: Dict[str, ModelSpec] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        specs = [get_model(m) if isinstance(m, str) else m for m in self.models]
        if not specs:
            raise ConfigurationError("engine needs at least one model")
        if self.share:
            internal_models = list(specs)
            modules: List[ModuleSpec] = []
            seen = set()
            for model in specs:
                for name in model.module_names:
                    if name not in seen:
                        seen.add(name)
                        modules.append(get_module(name))
        else:
            modules, internal_models = _dedicated_instances(specs)
        self._modules = modules
        self._internal_models = internal_models
        self._model_by_public_name = {
            public.name: internal for public, internal in zip(specs, internal_models)
        }
        device_profiles = tuple(
            device.profile for device in self.cluster.devices.values()
        )
        self._problem = PlacementProblem(
            modules=tuple(modules),
            devices=device_profiles,
            models=tuple(internal_models),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def problem(self) -> PlacementProblem:
        assert self._problem is not None
        return self._problem

    @property
    def placement(self) -> Placement:
        if self._placement is None:
            raise ConfigurationError("call deploy() before using the placement")
        return self._placement

    @property
    def module_specs(self) -> Dict[str, ModuleSpec]:
        return {module.name: module for module in self._modules}

    def resolve_model(self, public_name: str) -> ModelSpec:
        """Map a catalog model name to this engine's (possibly cloned) spec."""
        try:
            return self._model_by_public_name[public_name]
        except KeyError:
            raise ConfigurationError(f"model {public_name!r} is not deployed") from None

    def request(self, model_name: str, arrival_time: float = 0.0, source: Optional[str] = None) -> InferenceRequest:
        """Build a request against this engine's deployed model set."""
        return InferenceRequest(
            model=self.resolve_model(model_name),
            source=source if source is not None else self.cluster.requester,
            arrival_time=arrival_time,
        )

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def plan(self) -> Placement:
        """Compute (and validate) the placement without touching devices."""
        if self.allow_compression:
            self._apply_compression_fallback()
        algorithm = self.placement_algorithm or greedy_placement
        placement = algorithm(self.problem)
        if self.replicate:
            placement = replicate_with_leftover(self.problem, placement)
        check_placement(self.problem, placement)
        return placement

    def _apply_compression_fallback(self) -> None:
        """Quantize any module that fits on no device, then rebuild the problem.

        Implements the paper's Sec. V-B remedy: "if the module cannot be
        loaded on any devices, we can further apply compression ... to make
        the modules more lightweight", then re-run greedy placement with the
        compressed module treated as one unit.
        """
        from repro.core.compression import compress_to_fit

        devices = [device.profile for device in self.cluster.devices.values()]
        largest = max(device.memory_bytes for device in devices)
        renames: Dict[str, ModuleSpec] = {}
        for module in self._modules:
            if module.memory_bytes <= largest:
                continue
            compressed = compress_to_fit(module, devices)
            if compressed is None:
                continue  # placement will raise with the paper's guidance
            renames[module.name] = compressed.spec
        if not renames:
            return
        self._modules = [renames.get(module.name, module) for module in self._modules]
        rewritten = []
        for model in self._internal_models:
            if not any(name in renames for name in model.module_names):
                rewritten.append(model)
                continue
            mapping = {name: renames[name].name for name in model.module_names if name in renames}
            rewritten.append(
                dataclasses.replace(
                    model,
                    encoders=tuple(mapping.get(name, name) for name in model.encoders),
                    head=mapping.get(model.head, model.head),
                    work_scale={mapping.get(k, k): v for k, v in model.work_scale.items()},
                    input_bytes=dict(model.input_bytes),
                )
            )
        self._internal_models = rewritten
        self._model_by_public_name = {
            public: internal
            for public, internal in zip(self._model_by_public_name, rewritten)
        }
        self._problem = PlacementProblem(
            modules=tuple(self._modules),
            devices=tuple(device.profile for device in self.cluster.devices.values()),
            models=tuple(rewritten),
        )

    def deploy(self) -> DeploymentReport:
        """Plan, then load every module onto its host device(s)."""
        placement = self.plan()
        per_device_load: Dict[str, float] = {name: 0.0 for name in self.cluster.devices}
        modules = self.module_specs
        for module_name, hosts in placement.as_dict().items():
            for host in hosts:
                # Loading is serial within a device, parallel across devices.
                per_device_load[host] += self.cluster.device(host).load(modules[module_name])
        self._placement = placement
        per_device_params = {
            name: sum(module.params for module in device.loaded.values())
            for name, device in self.cluster.devices.items()
        }
        return DeploymentReport(
            placement=placement,
            total_params=sum(per_device_params.values()),
            max_device_params=max(per_device_params.values(), default=0),
            per_device_params=per_device_params,
            load_seconds=max(per_device_load.values(), default=0.0),
            per_device_load_seconds=per_device_load,
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def latency_model(self) -> LatencyModel:
        return LatencyModel(self.problem, self.cluster.network, parallel=self.parallel)

    def estimate(self, request: InferenceRequest) -> LatencyBreakdown:
        """Analytic single-request latency (Eq. 1-3), no queueing."""
        return self.latency_model().breakdown(request, self.placement)

    def serve(
        self,
        requests: Sequence[InferenceRequest],
        service_noise: Optional[Callable[[str, str], float]] = None,
    ) -> ExecutionResult:
        """Execute requests in the discrete-event cluster (with queueing)."""
        return execute_requests(
            self.cluster,
            self.placement,
            requests,
            self.latency_model(),
            parallel=self.parallel,
            service_noise=service_noise,
        )

    def serve_models(self, model_names: Sequence[str], arrival_time: float = 0.0) -> ExecutionResult:
        """Convenience: one simultaneous request per named model."""
        requests = [self.request(name, arrival_time=arrival_time) for name in model_names]
        return self.serve(requests)
