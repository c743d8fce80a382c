"""Self-tests for the ``repro.analysis`` invariant linter.

Four layers:

- **fixture tests** — for every rule, a snippet that fires, a snippet that
  is clean, and a pragma-suppressed variant, linted from a tmp tree;
- **pragma semantics** — mandatory reasons, unknown ids, placement, and
  the inertness of pragma-shaped text inside docstrings;
- **acceptance meta-tests** — the repo's own ``src/`` lints clean, and
  deleting any single ``self._state_version += 1`` line from the serving
  engine (or seeding the global numpy RNG) makes the linter fail, which is
  the whole point of the tool;
- **scalar references** — ``src/`` defines no ``*_scalar`` function, and
  every public reference in ``tests/scalar_reference.py`` is used by a test.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

from repro.analysis import (
    JSON_SCHEMA_VERSION,
    LintConfig,
    PRAGMA_RULE_ID,
    run_lint,
)
from repro.analysis.runner import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
ENGINE_PATH = SRC_ROOT / "serving" / "engine.py"
REFERENCE_PATH = REPO_ROOT / "tests" / "scalar_reference.py"
THIS_PATH = Path(__file__).resolve()


def lint_tree(tmp_path, files, **config_kwargs):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint the tree."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return run_lint(tmp_path, config=LintConfig(**config_kwargs))


def rules_fired(result):
    return sorted({finding.rule for finding in result.findings})


# ----------------------------------------------------------------------
# R001 seeded-rng
# ----------------------------------------------------------------------
class TestSeededRng:
    def test_fires_on_global_seed_and_random_module(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "sim/bad.py": (
                    "import random\n"
                    "import numpy as np\n"
                    "np.random.seed(0)\n"
                    "x = np.random.uniform()\n"
                    "y = random.random()\n"
                    "rng = np.random.default_rng()\n"
                )
            },
        )
        r001 = [f for f in result.findings if f.rule == "R001"]
        assert len(r001) >= 5
        assert any("seed" in f.message for f in r001)

    def test_clean_in_seeding_shrine_and_with_explicit_seed(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "utils/seeding.py": (
                    "import numpy as np\n"
                    "def rng_for(*parts):\n"
                    "    return np.random.default_rng(abs(hash(parts)))\n"
                ),
                "sim/good.py": (
                    "import numpy as np\n"
                    "rng = np.random.default_rng(123)\n"
                ),
            },
        )
        assert "R001" not in rules_fired(result)

    def test_pragma_suppresses_with_reason(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "sim/excused.py": (
                    "import random  "
                    "# repro-lint: disable=R001 -- stdlib shuffle seeded locally\n"
                )
            },
        )
        assert "R001" not in rules_fired(result)
        assert len(result.suppressed) == 1
        assert result.suppressed[0].reason == "stdlib shuffle seeded locally"


# ----------------------------------------------------------------------
# R002 sim-purity
# ----------------------------------------------------------------------
class TestSimPurity:
    BAD = (
        "import os\n"
        "import time\n"
        "from datetime import datetime\n"
        "def now():\n"
        "    t = time.time()\n"
        "    d = datetime.now()\n"
        "    e = os.environ['HOME']\n"
        "    g = os.getenv('HOME')\n"
        "    return t, d, e, g\n"
    )

    def test_fires_inside_pure_scopes(self, tmp_path):
        result = lint_tree(tmp_path, {"serving/impure.py": self.BAD})
        r002 = [f for f in result.findings if f.rule == "R002"]
        assert len(r002) == 4

    def test_clean_outside_scopes(self, tmp_path):
        result = lint_tree(tmp_path, {"utils/host.py": self.BAD})
        assert "R002" not in rules_fired(result)

    def test_monotonic_sim_clock_is_fine(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"sim/clock.py": "def advance(clock, dt):\n    return clock + dt\n"},
        )
        assert result.ok


# ----------------------------------------------------------------------
# R003 version-bump
# ----------------------------------------------------------------------
class TestVersionBump:
    HEADER = (
        "class Engine:\n"
        "    _ROUTING_STATE = frozenset({'_backlog'})\n"
        "    _ROUTING_STATE_SETUP = ('setup',)\n"
        "    def __init__(self):\n"
        "        self._backlog = []\n"
        "        self._state_version = 0\n"
        "    def setup(self):\n"
        "        self._backlog = []\n"
    )

    def test_fires_on_unbumped_mutation(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "serving/eng.py": self.HEADER
                + "    def push(self, item):\n"
                "        self._backlog.append(item)\n"
            },
        )
        assert "R003" in rules_fired(result)

    def test_clean_when_bumped(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "serving/eng.py": self.HEADER
                + "    def push(self, item):\n"
                "        self._backlog.append(item)\n"
                "        self._state_version += 1\n"
            },
        )
        assert "R003" not in rules_fired(result)

    def test_fires_on_early_return_path_skipping_the_bump(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "serving/eng.py": self.HEADER
                + "    def push(self, item, flush):\n"
                "        self._backlog.append(item)\n"
                "        if not flush:\n"
                "            return\n"
                "        self._state_version += 1\n"
            },
        )
        assert "R003" in rules_fired(result)

    def test_delegated_unconditional_bump_covers(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "serving/eng.py": self.HEADER
                + "    def _bump(self):\n"
                "        self._state_version += 1\n"
                "    def push(self, item):\n"
                "        self._backlog.append(item)\n"
                "        self._bump()\n"
            },
        )
        assert "R003" not in rules_fired(result)

    def test_classes_without_declaration_are_ignored(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "serving/other.py": (
                    "class Plain:\n"
                    "    def push(self, item):\n"
                    "        self._backlog = [item]\n"
                )
            },
        )
        assert "R003" not in rules_fired(result)


# ----------------------------------------------------------------------
# R004 ordered-iteration
# ----------------------------------------------------------------------
class TestOrderedIteration:
    def test_fires_on_set_and_dict_view_iteration(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "sim/iter.py": (
                    "def f(items, d):\n"
                    "    for x in set(items):\n"
                    "        print(x)\n"
                    "    for k in d.keys():\n"
                    "        print(k)\n"
                    "    return [v for v in d.values()]\n"
                )
            },
        )
        r004 = [f for f in result.findings if f.rule == "R004"]
        assert len(r004) == 3

    def test_sorted_wrapping_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "sim/iter.py": (
                    "def f(items, d):\n"
                    "    for x in sorted(set(items)):\n"
                    "        print(x)\n"
                    "    return [d[k] for k in sorted(d.keys())]\n"
                )
            },
        )
        assert "R004" not in rules_fired(result)

    def test_out_of_scope_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"experiments/iter.py": "def f(d):\n    return list(d.values())\n"},
        )
        # .values() materialized by list() is not an iteration context at
        # all, and experiments/ is outside the ordered-iteration scopes.
        assert "R004" not in rules_fired(result)

    def test_standalone_pragma_suppresses_next_line(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "sim/iter.py": (
                    "def f(d):\n"
                    "    # repro-lint: disable=R004 -- groups sorted in place\n"
                    "    for v in d.values():\n"
                    "        v.sort()\n"
                )
            },
        )
        assert "R004" not in rules_fired(result)
        assert len(result.suppressed) == 1


# ----------------------------------------------------------------------
# Scalar references: none in src/, every one in tests/ used
# ----------------------------------------------------------------------
def scalar_definitions(root):
    """``path:line name`` for every function under ``root`` named ``*_scalar``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node.name.endswith("_scalar")
            ):
                found.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
    return found


def unreferenced(names, corpus):
    """The ``names`` that ``corpus`` never mentions as a whole word.

    A word-boundary match, so ``replica_route_scalar`` does not count as a
    use of ``route_scalar``.
    """
    return [name for name in names if re.search(rf"\b{re.escape(name)}\b", corpus) is None]


class TestScalarReferences:
    """The loop-based oracles live test-side, and every one is used."""

    def test_src_defines_no_scalar_function(self):
        assert scalar_definitions(SRC_ROOT) == []

    def test_every_public_reference_is_used(self):
        # This file names every reference, so it is no use as a corpus.
        tree = ast.parse(REFERENCE_PATH.read_text(encoding="utf-8"))
        public = [
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        ]
        assert len(public) >= 10
        corpus = "\n".join(
            path.read_text(encoding="utf-8")
            for root in (REPO_ROOT / "tests", REPO_ROOT / "benchmarks")
            for path in sorted(root.rglob("*.py"))
            if path not in (REFERENCE_PATH, THIS_PATH)
        )
        assert unreferenced(public, corpus) == []

    def test_finds_a_scalar_definition(self, tmp_path):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "m.py").write_text(
            "class Model:\n"
            "    def route(self):\n"
            "        return 1\n"
            "    def route_scalar(self):\n"
            "        return 1\n"
        )
        assert scalar_definitions(tmp_path) == ["core/m.py:4 route_scalar"]

    def test_fires_when_no_test_references_the_scalar(self):
        corpus = "def test_route(model):\n    assert model.route(r, p)\n"
        assert unreferenced(["route_scalar"], corpus) == ["route_scalar"]

    def test_clean_when_scalar_is_referenced(self):
        corpus = "assert model.route(r, p) == route_scalar(model, r, p)\n"
        assert unreferenced(["route_scalar"], corpus) == []

    def test_substring_reference_does_not_count(self):
        corpus = "assert replica_route_scalar(model, r, p) == expected\n"
        assert unreferenced(["route_scalar"], corpus) == ["route_scalar"]


# ----------------------------------------------------------------------
# R006 units-docstring
# ----------------------------------------------------------------------
class TestUnitsDocstring:
    def test_fires_without_unit_word_or_docstring(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "profiles/t.py": (
                    "def transfer_seconds(n):\n"
                    "    '''One-hop transfer time.'''\n"
                    "    return n\n"
                    "def payload_bytes(m):\n"
                    "    return m\n"
                )
            },
        )
        r006 = [f for f in result.findings if f.rule == "R006"]
        assert len(r006) == 2
        messages = " ".join(f.message for f in r006)
        assert "docstring" in messages

    def test_clean_with_unit_stated(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "profiles/t.py": (
                    "def transfer_seconds(n):\n"
                    "    '''One-hop transfer time in seconds.'''\n"
                    "    return n\n"
                    "def _helper_seconds(n):\n"
                    "    return n\n"
                )
            },
        )
        assert "R006" not in rules_fired(result)

    def test_out_of_scope_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"experiments/t.py": "def run_seconds(n):\n    return n\n"},
        )
        assert "R006" not in rules_fired(result)


# ----------------------------------------------------------------------
# Pragma semantics (R000)
# ----------------------------------------------------------------------
class TestPragmas:
    def test_reasonless_pragma_reports_and_suppresses_nothing(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"sim/p.py": "import random  # repro-lint: disable=R001\n"},
        )
        fired = rules_fired(result)
        assert PRAGMA_RULE_ID in fired  # the pragma itself is flagged
        assert "R001" in fired  # and the original finding survives
        assert not result.suppressed

    def test_unknown_rule_id_is_flagged(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"sim/p.py": "x = 1  # repro-lint: disable=R999 -- no such rule\n"},
        )
        assert PRAGMA_RULE_ID in rules_fired(result)
        assert any("unknown rule" in f.message for f in result.findings)

    def test_malformed_pragma_is_flagged(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"sim/p.py": "x = 1  # repro-lint: enable=R001 -- nope\n"},
        )
        assert any(
            f.rule == PRAGMA_RULE_ID and "malformed" in f.message
            for f in result.findings
        )

    def test_r000_cannot_be_suppressed(self, tmp_path):
        # R000 is reserved (not in the registry), so a pragma naming it is
        # itself an unknown-rule finding — the complaint cannot silence
        # itself.
        result = lint_tree(
            tmp_path,
            {"sim/p.py": "x = 1  # repro-lint: disable=R000 -- hush\n"},
        )
        assert PRAGMA_RULE_ID in rules_fired(result)

    def test_pragma_text_in_docstring_is_inert(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "sim/p.py": (
                    'DOC = """example: # repro-lint: disable=BOGUS"""\n'
                    "x = 1\n"
                )
            },
        )
        assert result.ok

    def test_multi_rule_pragma(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "sim/p.py": (
                    "import random  "
                    "# repro-lint: disable=R001,R002 -- fixture exercising both\n"
                )
            },
        )
        assert "R001" not in rules_fired(result)


# ----------------------------------------------------------------------
# CLI: exit codes and the JSON report shape
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main(["--root", str(tmp_path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_nonzero_on_findings(self, tmp_path, capsys):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "bad.py").write_text(
            "import random\n", encoding="utf-8"
        )
        assert lint_main(["--root", str(tmp_path)]) == 1
        assert "R001" in capsys.readouterr().out

    def test_json_report_schema(self, tmp_path, capsys):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "bad.py").write_text(
            "import random\n"
            "import random as excused  # repro-lint: disable=R001 -- fixture\n",
            encoding="utf-8",
        )
        assert lint_main(["--root", str(tmp_path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == JSON_SCHEMA_VERSION
        assert report["ok"] is False
        assert report["files_scanned"] == 1
        assert set(report["rules"]) >= {"R001", "R002", "R003", "R004", "R006"}
        finding = report["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "R001"
        suppressed = report["suppressed"][0]
        assert suppressed["reason"] == "fixture"

    def test_lint_is_a_registered_cli_command(self):
        from repro.__main__ import cli_commands

        assert "lint" in cli_commands()


# ----------------------------------------------------------------------
# Acceptance meta-tests against the real source tree
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_src_lints_clean(self):
        result = run_lint(SRC_ROOT)
        assert result.findings == [], result.render_text()
        assert result.files_scanned > 100
        assert set(result.rules_run) == {
            "R000", "R001", "R002", "R003", "R004", "R006",
        }

    def test_every_suppression_carries_a_reason(self):
        result = run_lint(SRC_ROOT)
        for suppressed in result.suppressed:
            assert suppressed.reason.strip(), suppressed


BUMP_LINE = re.compile(r"^\s*self\._state_version \+= 1\s*$")


class TestEngineContractIsLoadBearing:
    """Deleting any single bump line (or seeding numpy) must fail the lint."""

    def _engine_lines(self):
        return ENGINE_PATH.read_text(encoding="utf-8").splitlines(keepends=True)

    def test_all_bump_sites_are_individually_guarded(self, tmp_path):
        lines = self._engine_lines()
        sites = [i for i, line in enumerate(lines) if BUMP_LINE.match(line)]
        assert len(sites) >= 8, "engine lost its _state_version bump sites?"
        target = tmp_path / "serving" / "engine.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        for site in sites:
            mutated = lines[:site] + lines[site + 1 :]
            target.write_text("".join(mutated), encoding="utf-8")
            result = run_lint(tmp_path)
            assert any(f.rule == "R003" for f in result.findings), (
                f"deleting the bump at engine.py line {site + 1} "
                "went undetected"
            )

    def test_unmodified_engine_is_clean(self, tmp_path):
        target = tmp_path / "serving" / "engine.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("".join(self._engine_lines()), encoding="utf-8")
        result = run_lint(tmp_path)
        assert result.ok, result.render_text()

    def test_global_numpy_seed_is_detected(self, tmp_path):
        source = ENGINE_PATH.read_text(encoding="utf-8")
        source += "\n\nimport numpy as np\n\nnp.random.seed(0)\n"
        target = tmp_path / "serving" / "engine.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        result = run_lint(tmp_path)
        assert any(f.rule == "R001" for f in result.findings)
