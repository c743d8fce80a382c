"""The paper's primary contribution: split, share, place, route.

Layout:

- :mod:`repro.core.modules` / :mod:`repro.core.tasks` / :mod:`repro.core.catalog`
  — the functional-module and model data model (paper Tables II, IV, V).
- :mod:`repro.core.splitter` — split a model into functional modules (Sec. IV-A).
- :mod:`repro.core.sharing` — cross-task module sharing and cost accounting (Sec. IV-B).
- :mod:`repro.core.placement` — the placement problem (Eq. 4), greedy
  Algorithm 1, brute-force optimal, and ablation variants.
- :mod:`repro.core.routing` — the latency model (Eq. 1–3), per-request
  parallel routing (Eq. 7), and pipelined multi-request execution.
- :mod:`repro.core.engine` — the end-to-end S2M3 orchestrator.
"""

from repro.core.catalog import (
    MODEL_CATALOG,
    MODULE_CATALOG,
    get_model,
    get_module,
    list_models,
)
from repro.core.modules import ModuleKind, ModuleSpec
from repro.core.models import ModelSpec
from repro.core.sharing import SharingPlan, build_sharing_plan, sharing_savings
from repro.core.splitter import split_model
from repro.core.tasks import Task

__all__ = [
    "MODEL_CATALOG",
    "MODULE_CATALOG",
    "get_model",
    "get_module",
    "list_models",
    "S2M3Engine",
    "ModuleKind",
    "ModuleSpec",
    "ModelSpec",
    "SharingPlan",
    "build_sharing_plan",
    "sharing_savings",
    "split_model",
    "Task",
]


def __getattr__(name: str):
    """Lazily expose the engine: it imports :mod:`repro.cluster`, which in
    turn imports :mod:`repro.core` submodules — eager import would cycle."""
    if name == "S2M3Engine":
        from repro.core.engine import S2M3Engine

        return S2M3Engine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
