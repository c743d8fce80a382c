"""Lint configuration: which rules run where.

Scopes are POSIX-style path prefixes *relative to the linted root* (for the
CLI that root is the ``repro`` package directory), so ``"sim/"`` means
"every module under ``repro/sim``".  The defaults encode today's contract
map; fixtures and embedding callers can narrow or widen them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


def in_scope(relpath: str, scopes: Tuple[str, ...]) -> bool:
    """Whether ``relpath`` (POSIX, root-relative) falls under any scope."""
    return any(relpath.startswith(scope) for scope in scopes)


def matches_file(relpath: str, entries: Tuple[str, ...]) -> bool:
    """Whether ``relpath`` names one of ``entries`` (exact or suffix match,
    so allowlists survive linting from a parent directory)."""
    return any(
        relpath == entry or relpath.endswith("/" + entry) for entry in entries
    )


@dataclass(frozen=True)
class LintConfig:
    """Scoping knobs for the rule set (defaults match the repo layout)."""

    #: Rule ids to run; None runs every registered rule.
    enabled_rules: Optional[Tuple[str, ...]] = None
    #: Files allowed to touch ``np.random`` directly (the seeding shrine).
    seeding_allowlist: Tuple[str, ...] = ("utils/seeding.py",)
    #: Packages whose code must never read wall clocks or the environment.
    sim_pure_scopes: Tuple[str, ...] = ("sim/", "serving/", "core/", "federation/")
    #: Packages whose iteration order must be explicit (replay paths).
    ordered_iter_scopes: Tuple[str, ...] = ("sim/", "serving/", "federation/")
    #: Packages whose public unit-named functions must state units.
    units_scopes: Tuple[str, ...] = ("profiles/", "core/", "serving/", "federation/")

    def rule_enabled(self, rule_id: str) -> bool:
        return self.enabled_rules is None or rule_id in self.enabled_rules


__all__ = ["LintConfig", "in_scope", "matches_file"]
