"""Split architecture (paper Sec. IV-A).

``split_model`` decomposes a model into its functional modules and reports
the deployment-cost arithmetic the paper states: without splitting, a single
device must host ``sum(r_m)``; with splitting, the worst single-device cost
drops to ``max(r_m)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.catalog import get_model, get_module
from repro.core.models import ModelSpec
from repro.core.modules import ModuleSpec


@dataclass(frozen=True)
class SplitModel:
    """A model decomposed into functional-level modules.

    ``encoders`` preserves the model's declaration order; ``head`` is the
    single task-specific head (the paper's ``h_k``).
    """

    model: ModelSpec
    encoders: Tuple[ModuleSpec, ...]
    head: ModuleSpec

    @property
    def modules(self) -> Tuple[ModuleSpec, ...]:
        """The full module set ``M_k = M_k^enc ∪ {h_k}``."""
        return self.encoders + (self.head,)

    @property
    def total_params(self) -> int:
        """Monolithic deployment cost (centralized column of Table VI)."""
        return sum(module.params for module in self.modules)

    @property
    def max_module_params(self) -> int:
        """Worst per-device cost after splitting (S2M3 column of Table VI)."""
        return max(module.params for module in self.modules)

    @property
    def saving_fraction(self) -> float:
        """Relative reduction of the worst single-device parameter load.

        For CLIP ResNet-50 this is ~0.50 — the paper's headline "up to 50%"
        single-task saving.
        """
        if self.total_params == 0:
            return 0.0
        return 1.0 - self.max_module_params / self.total_params


def split_model(model: "ModelSpec | str") -> SplitModel:
    """Decompose ``model`` (spec or catalog name) into functional modules."""
    spec = get_model(model) if isinstance(model, str) else model
    encoders = tuple(get_module(name) for name in spec.encoders)
    head = get_module(spec.head)
    return SplitModel(model=spec, encoders=encoders, head=head)
