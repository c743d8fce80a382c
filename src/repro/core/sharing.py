"""Shareable architecture (paper Sec. IV-B).

Across tasks, modules with the same identity are deployed once.  The
:class:`SharingPlan` computes the distinct-module set ``M = ∪_k M_k`` and the
cost ledger the paper reports in Table X: per-task incremental cost with and
without sharing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.catalog import get_model
from repro.core.models import ModelSpec
from repro.core.modules import ModuleSpec
from repro.core.splitter import split_model


@dataclass(frozen=True)
class SharingStep:
    """Cost accounting after adding one more model to the deployment."""

    model: ModelSpec
    new_modules: Tuple[ModuleSpec, ...]
    reused_modules: Tuple[ModuleSpec, ...]
    cumulative_shared_params: int
    cumulative_unshared_params: int

    @property
    def added_params(self) -> int:
        """Incremental parameters with sharing (Table X "w/ Sharing" deltas)."""
        return sum(module.params for module in self.new_modules)


@dataclass
class SharingPlan:
    """The deduplicated deployment for a sequence of models.

    ``steps[i]`` records the ledger after deploying ``models[:i+1]`` — this
    reproduces Table X's row-by-row accumulation.
    """

    models: List[ModelSpec]
    steps: List[SharingStep] = field(default_factory=list)

    @property
    def distinct_modules(self) -> List[ModuleSpec]:
        """The union module set, each module once, in first-use order."""
        seen: Dict[str, ModuleSpec] = {}
        for model in self.models:
            for module in split_model(model).modules:
                seen.setdefault(module.name, module)
        return list(seen.values())

    @property
    def shared_params(self) -> int:
        """Total parameters with sharing (distinct modules only)."""
        return sum(module.params for module in self.distinct_modules)

    @property
    def unshared_params(self) -> int:
        """Total parameters with one dedicated copy per model."""
        return sum(split_model(model).total_params for model in self.models)

    @property
    def saving_fraction(self) -> float:
        """Relative multi-task saving — the paper's "up to 62%" claim."""
        if self.unshared_params == 0:
            return 0.0
        return 1.0 - self.shared_params / self.unshared_params


def build_sharing_plan(models: Sequence["ModelSpec | str"]) -> SharingPlan:
    """Build the incremental sharing ledger for ``models`` in order."""
    specs = [get_model(m) if isinstance(m, str) else m for m in models]
    plan = SharingPlan(models=specs)
    deployed: Dict[str, ModuleSpec] = {}
    unshared_total = 0
    for spec in specs:
        split = split_model(spec)
        new, reused = [], []
        for module in split.modules:
            if module.name in deployed:
                reused.append(module)
            else:
                deployed[module.name] = module
                new.append(module)
        unshared_total += split.total_params
        plan.steps.append(
            SharingStep(
                model=spec,
                new_modules=tuple(new),
                reused_modules=tuple(reused),
                cumulative_shared_params=sum(m.params for m in deployed.values()),
                cumulative_unshared_params=unshared_total,
            )
        )
    return plan


def sharing_savings(models: Sequence["ModelSpec | str"]) -> float:
    """Convenience: the saving fraction for deploying ``models`` with sharing."""
    return build_sharing_plan(models).saving_fraction
