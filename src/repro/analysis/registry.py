"""Rule base class and registry.

A rule is a class with a stable ``id`` (``RNNN``), a short ``name``, and
the ``invariant`` it protects (one sentence; surfaced in ``--format json``
and docs/analysis.md).  Rules are instantiated fresh per lint run and
check one file at a time.

Adding a rule: subclass :class:`Rule` in a ``rules_*`` module, decorate
with :func:`register`, import the module from ``repro.analysis.runner``
(import is what registers), document it in docs/analysis.md, and add a
firing + suppressed fixture pair to tests/test_analysis_lint.py.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Type

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding


@dataclass
class FileContext:
    """One parsed source file handed to every per-file rule."""

    path: Path
    relpath: str  # POSIX, relative to the linted root
    source: str
    tree: ast.Module


class Rule:
    """Base class: override ``check_file``."""

    id: str = ""
    name: str = ""
    invariant: str = ""

    def __init__(self, config: LintConfig) -> None:
        self.config = config

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if not cls.id or not cls.name:
        raise ValueError(f"rule {cls.__name__} needs a non-empty id and name")
    existing = _REGISTRY.get(cls.id)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule id {cls.id}: {existing.__name__}")
    _REGISTRY[cls.id] = cls
    return cls


def registered_rules() -> Dict[str, Type[Rule]]:
    return dict(_REGISTRY)


def create_rules(config: LintConfig) -> List[Rule]:
    """Fresh rule instances for one run, id order, config-filtered."""
    return [
        cls(config)
        for rule_id, cls in sorted(_REGISTRY.items())
        if config.rule_enabled(rule_id)
    ]
