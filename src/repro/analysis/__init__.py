"""repro.analysis — the AST invariant checker (``python -m repro lint``).

Static analysis over the repo's own sources enforcing the contracts the
correctness story rests on: seeded randomness (R001), wall-clock-free
simulation (R002), cache-coherent routing-state mutation (R003), explicit
iteration order in replay paths (R004), and unit-stating public APIs
(R006).  See docs/analysis.md for the rule catalog and pragma syntax.

Library use::

    from repro.analysis import run_lint
    result = run_lint("src/repro")
    assert result.ok, result.render_text()

Stdlib-only: importing this package never pulls numpy, so the lint CI
gate runs without installing the runtime dependencies.
"""

from repro.analysis.config import LintConfig
from repro.analysis.findings import (
    JSON_SCHEMA_VERSION,
    Finding,
    LintResult,
    SuppressedFinding,
)
from repro.analysis.pragmas import PRAGMA_RULE_ID
from repro.analysis.registry import Rule, register, registered_rules
from repro.analysis.runner import iter_source_files, run_lint

__all__ = [
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintConfig",
    "LintResult",
    "PRAGMA_RULE_ID",
    "Rule",
    "SuppressedFinding",
    "iter_source_files",
    "register",
    "registered_rules",
    "run_lint",
]
