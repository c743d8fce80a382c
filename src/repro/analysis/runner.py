"""Lint driver: walk sources, run rules, apply pragmas, format reports.

``python -m repro lint [--format text|json] [paths...]`` is the CI gate;
:func:`run_lint` is the library entry (used by the self-tests, including
the meta-test asserting the repo's own ``src/`` is clean).

Stdlib-only on purpose: the lint CI job needs no numpy install, and a
broken dependency can never take the invariant gate down with it.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

# Importing the rule modules is what populates the registry.
from repro.analysis import (  # noqa: F401  (registration side effect)
    rules_order,
    rules_rng,
    rules_state,
    rules_units,
)
from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding, LintResult, SuppressedFinding
from repro.analysis.pragmas import PRAGMA_RULE_ID, PRAGMA_RULE_NAME, parse_pragmas
from repro.analysis.registry import FileContext, create_rules, registered_rules

#: Directories never scanned below the root.
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}


def iter_source_files(root: Path, paths: Optional[Sequence[Path]] = None) -> List[Path]:
    """The Python files to lint: all of ``root``, or the given subset."""
    if paths:
        selected: List[Path] = []
        for path in paths:
            path = Path(path)
            if path.is_dir():
                selected.extend(
                    p for p in sorted(path.rglob("*.py"))
                    if not _SKIP_DIRS.intersection(p.parts)
                )
            else:
                selected.append(path)
        return selected
    return [
        path
        for path in sorted(root.rglob("*.py"))
        if not _SKIP_DIRS.intersection(path.parts)
    ]


def run_lint(
    root,
    paths: Optional[Sequence[Path]] = None,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Lint ``root`` (or ``paths`` under it) and return the full result
    (``config=None`` runs every rule with the default scopes)."""
    root = Path(root).resolve()
    rules = create_rules(config if config is not None else LintConfig())
    known_ids = set(registered_rules())
    result = LintResult(root=root)
    result.rules_run = {rule.id: rule.name for rule in rules}
    result.rules_run[PRAGMA_RULE_ID] = PRAGMA_RULE_NAME

    raw: List[Finding] = []
    suppressions = {}  # relpath -> {line: Suppression}
    for path in iter_source_files(root, paths):
        path = path.resolve()
        try:
            relpath = path.relative_to(root).as_posix()
        except ValueError:
            relpath = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            raw.append(
                Finding(relpath, 1, 1, PRAGMA_RULE_ID, f"could not lint file: {exc}")
            )
            continue
        result.files_scanned += 1
        by_line, pragma_findings = parse_pragmas(relpath, source, known_ids)
        raw.extend(pragma_findings)
        suppressions[relpath] = by_line
        ctx = FileContext(path=path, relpath=relpath, source=source, tree=tree)
        for rule in rules:
            raw.extend(rule.check_file(ctx))

    for finding in raw:
        suppression = suppressions.get(finding.path, {}).get(finding.line)
        if (
            suppression is not None
            and finding.rule in suppression.rules
            and finding.rule != PRAGMA_RULE_ID
        ):
            result.suppressed.append(SuppressedFinding(finding, suppression.reason))
        else:
            result.findings.append(finding)
    return result


def main(argv: Optional[Iterable[str]] = None) -> int:
    """The ``python -m repro lint`` entry point; exits 0 iff clean."""
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="AST invariant checker: determinism, cache coherence "
        "and unit contracts over src/ (see docs/analysis.md).",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: the whole repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text; json is the CI artifact)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="lint root for scoping and relative paths "
        "(default: the installed repro package directory)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    root = args.root if args.root is not None else Path(__file__).resolve().parents[1]
    result = run_lint(root, paths=args.paths or None)
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(result.render_text())
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
