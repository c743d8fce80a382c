"""The benchmark: replay and solve workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload steady --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --seed 0                 # every workload, one call each
    python3 bench/run.py --seed 0 0 0 0 0 0 0 0 0 0 --seconds 20 --out record.json

Each measurement runs in a fresh ``bench/worker.py`` process, one workload
after another, so workloads never share a warm process or a core.  ``run_s``
is the median of the run's repeated calls, and set-up time the median over
separate ``--setup-only`` processes; both are scaled to the reference host's
speed.  Metric names, units and bounds come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  When one invocation
covers several workloads or seeds, each metric name is prefixed with its
workload and the value is the median over the runs.  The exit code is 1
when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from worker import REFERENCE_S

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
BASELINE = BENCH / "baseline.json"
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}

#: Set-up samples per run, one ``--setup-only`` process each.
SETUP_PROBES = 9
#: Wall-clock budget for one workload run, all of its processes included.
RUN_BUDGET_S = 170.0

#: Units of the simulated outcome a replay prints (not gated; see README.md).
SIM_UNITS = {
    "sim_goodput_rps": "1/s",
    "sim_p50_s": "s simulated",
    "sim_p99_s": "s simulated",
    "sim_drop_frac": "fraction",
}


class BenchError(RuntimeError):
    """A worker crashed or printed no result."""


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def worker(args: List[str], deadline: float) -> dict:
    """Run one worker process to completion and parse its result line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and not result.get("errors"):
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run of one workload; returns its row for printing and records."""
    began = time.monotonic()
    deadline = began + RUN_BUDGET_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--smoke"] if smoke else []
    if trace:
        result = worker(args + ["--trace"], deadline)
        metrics = result["per_layer"]
        expected = PER_LAYER
    else:
        # Times are scaled to the reference host's speed: each is divided by
        # the reference loop's time measured next to it (see README.md).
        setup = []
        for _ in range(SETUP_PROBES):
            start = time.monotonic()
            probe = worker(args + ["--setup-only"], deadline)
            setup.append((probe["ready"] - start) * REFERENCE_S / probe["ref"])
        result = worker(args, deadline)
        times, refs = result["times"], result["refs"]
        run_s = REFERENCE_S * statistics.median(
            2 * t / (refs[i] + refs[i + 1]) for i, t in enumerate(times)
        )
        metrics = {
            "run_s": run_s,
            "ops_per_s": result["ops"] / run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        expected = END_TO_END
    if set(metrics) != set(expected):
        raise BenchError(f"metrics {sorted(metrics)} != BENCHMARK.json {sorted(expected)}")
    return {
        "workload": name, "seed": seed,
        "metrics": {m: metrics[m] for m in expected},
        "times": result.get("times"), "refs": result.get("refs"),
        "sim": result["sim"], "digest": result["digest"],
        "attempted": result["attempted"], "failed": result["failed"],
        "errors": result["errors"], "correct": not result["errors"],
        "wall_s": time.monotonic() - began,
    }


def pinned_digest(name: str, seed: int) -> Optional[str]:
    """The digest recorded for (workload, seed) in ``bench/baseline.json``."""
    if not BASELINE.exists():
        return None
    digests = json.loads(BASELINE.read_text()).get("digests", {})
    return digests.get(name, {}).get(str(seed))


def print_row(row: dict, smoke: bool) -> None:
    definitions = PER_LAYER if row["times"] is None else END_TO_END
    print(f"== {row['workload']} seed {row['seed']}: {row['attempted']} operations, "
          f"{row['failed']} failed, {row['wall_s']:.1f} s wall")
    for name, value in row["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {definitions[name]['unit']}")
    if row["times"] is not None:
        q = quartiles(row["times"])
        speed = REFERENCE_S / statistics.median(row["refs"])
        print(f"  raw call time over {len(row['times'])} calls: median {q['median']:.6g} s  "
              f"q1 {q['q1']:.6g}  q3 {q['q3']:.6g}; host at {speed:.2f}x reference speed")
    for name, value in row["sim"].items():
        unit = SIM_UNITS.get(name, "count")
        if name in ("sim_p50_s", "sim_p99_s"):
            unit += f", over {row['sim']['completed']} completions"
        print(f"  {name:40s} {value:14.6g} {unit}")
    pinned = None if smoke else pinned_digest(row["workload"], row["seed"])
    match = "n/a" if pinned is None else ("yes" if pinned == row["digest"] else "no")
    print(f"  digest {row['digest']}  digest_match {match}")
    for error in row["errors"]:
        print(f"  CHECK FAILED: {error}")


def summarize(rows: List[dict]) -> Dict[str, dict]:
    """Per workload: every run plus median and quartiles of each metric."""
    out: Dict[str, dict] = {}
    for row in rows:
        out.setdefault(row["workload"], {"runs": []})["runs"].append(row)
    for entry in out.values():
        names = entry["runs"][0]["metrics"]
        entry["summary"] = {
            name: quartiles([run["metrics"][name] for run in entry["runs"]]) for name in names
        }
    return out


def result_line(rows: List[dict], trace: bool, summary: Dict[str, dict]) -> dict:
    definitions = PER_LAYER if trace else END_TO_END
    if len(rows) == 1:
        metrics = {
            name: {"value": value, "unit": definitions[name]["unit"]}
            for name, value in rows[0]["metrics"].items()
        }
    else:
        metrics = {
            f"{workload}.{name}": {"value": q["median"], "unit": definitions[name]["unit"]}
            for workload, entry in summary.items()
            for name, q in entry["summary"].items()
        }
    return {
        "correct": all(row["correct"] for row in rows),
        "attempted": sum(row["attempted"] for row in rows),
        "failed": sum(row["failed"] for row in rows),
        "metrics": metrics,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, nargs="+", default=[0],
                        help="workload seed(s); one run per seed, repeats allowed")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measuring time per run (default: one timed call)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="1/50 of the durations and instance counts")
    parser.add_argument("--out", type=Path, help="write every run to this JSON record")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = args.workload or WORKLOADS
    rows = []
    for seed in args.seed:
        for name in workloads:
            row = run_workload(name, seed, args.seconds, bool(args.trace), args.smoke)
            print_row(row, args.smoke)
            rows.append(row)
    summary = summarize(rows)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {
                "settings": {"seconds": args.seconds, "trace": bool(args.trace),
                             "smoke": args.smoke},
                "workloads": summary,
                "digests": {
                    name: {str(row["seed"]): row["digest"] for row in entry["runs"]}
                    for name, entry in summary.items()
                },
            },
            indent=1,
        ))
    line = result_line(rows, bool(args.trace), summary)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as error:
        print(f"bench: {error}", file=sys.stderr)
        sys.exit(2)
