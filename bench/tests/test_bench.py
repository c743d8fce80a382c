"""Tests of the benchmark harness on smoke-sized workloads.

Run from the repository root with ``python -m pytest bench/tests``; they
are outside the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in CONTRACT["workloads"]]


def bench(out: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(out), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced") / "record.json"
    return bench(out, "--seed", "0"), json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced") / "record.json"
    return bench(out, "--seed", "0", "--trace", "1"), json.loads(out.read_text())


def expected(section: str, prefixed: bool) -> set:
    return {
        (f"{name}.{m['name']}" if prefixed else m["name"], m["unit"])
        for name in NAMES
        for m in CONTRACT[section]
    }


def test_smoke_pass_prints_every_end_to_end_metric(untraced):
    proc, record = untraced
    assert proc.returncode == 0, proc.stdout
    line = result_line(proc)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {(name, m["unit"]) for name, m in line["metrics"].items()} == expected(
        "end_to_end", prefixed=True
    )
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert sorted(record["workloads"]) == sorted(NAMES)


def test_single_workload_result_has_exactly_the_contract_keys(tmp_path):
    proc = bench(tmp_path / "r.json", "--workload", "faults", "--seed", "2", "--seconds", "0",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stdout
    line = result_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {(name, m["unit"]) for name, m in line["metrics"].items()} == {
        (m["name"], m["unit"]) for m in CONTRACT["end_to_end"]
    }


def test_traced_pass_reports_every_layer(traced):
    proc, record = traced
    assert proc.returncode == 0, proc.stdout
    line = result_line(proc)
    assert {(name, m["unit"]) for name, m in line["metrics"].items()} == expected(
        "per_layer", prefixed=True
    )
    for name in NAMES:
        assert (BENCH / "out" / f"{name}.trace.json").exists()


def test_every_event_handler_belongs_to_a_named_layer(traced):
    _, record = traced
    for name in NAMES:
        assert record["workloads"][name]["runs"][0]["metrics"]["serving.other.calls"] == 0


def test_tracing_changes_no_output(untraced, traced):
    assert untraced[1]["digests"] == traced[1]["digests"]


def test_same_seed_gives_identical_simulated_outcome(untraced, tmp_path):
    proc = bench(tmp_path / "again.json", "--seed", "0")
    assert proc.returncode == 0, proc.stdout
    again = json.loads((tmp_path / "again.json").read_text())
    assert again["digests"] == untraced[1]["digests"]
    for name in NAMES:
        first = untraced[1]["workloads"][name]["runs"][0]["sim"]
        assert again["workloads"][name]["runs"][0]["sim"] == first


@pytest.mark.parametrize("name", NAMES)
def test_seeds_give_different_inputs(name):
    zero = workloads.build(name, 0, workloads.SMOKE_SCALE)
    one = workloads.build(name, 1, workloads.SMOKE_SCALE)
    if name == "solve":
        assert zero.pairs[0][0].problem != one.pairs[0][0].problem
    else:
        assert zero.trace.arrivals != one.trace.arrivals
        if zero.plan is not None:
            assert zero.plan != one.plan


def test_sim_metrics_are_printed_with_units(untraced):
    proc, _ = untraced
    lines = proc.stdout.splitlines()
    assert any(line.split()[:1] == ["sim_goodput_rps"] and line.endswith(" 1/s") for line in lines)
    assert any(line.split()[:1] == ["sim_p99_s"] and "completions" in line for line in lines)


def test_compare_passes_identical_records_and_fails_changed_behaviour(traced, capsys):
    _, record = traced
    assert compare.compare(record, record) == 0
    changed = json.loads(json.dumps(record))
    changed["workloads"]["steady"]["runs"][0]["metrics"]["sim.events"] += 1
    assert compare.compare(record, changed) == 1
    changed = json.loads(json.dumps(record))
    changed["workloads"]["solve"]["runs"][0]["digest"] = "0" * 16
    assert compare.compare(record, changed) == 1
    changed = json.loads(json.dumps(record))
    changed["settings"]["seconds"] += 1
    assert compare.compare(record, changed) == 2
    assert "settings differ" in capsys.readouterr().out


def test_tampered_solver_objective_fails_the_run(monkeypatch, capsys):
    honest = workloads.placement_api.branch_and_bound_placement

    def tampered(*args, **kwargs):
        placement, objective = honest(*args, **kwargs)
        return placement, objective * 1.01

    monkeypatch.setattr(workloads.placement_api, "branch_and_bound_placement", tampered)
    code = worker.main(["--workload", "solve", "--seed", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["failed"] >= 1
    assert any("bnb != brute" in error for error in result["errors"])
