"""Compare two benchmark records, parent first, by the regression rule.

Usage::

    python3 bench/run.py --seed 0 0 0 0 0 0 0 0 0 0 --seconds 20 --out parent.json
    python3 bench/run.py --seed 0 0 0 0 0 0 0 0 0 0 --seconds 20 --out change.json
    python3 bench/compare.py parent.json change.json

Runs pair up by position (run ``i`` of one record with run ``i`` of the
other), so both sides must be recorded with the same settings; records
whose ``settings`` differ are refused.  For every
(end-to-end metric, workload) row it prints each side's median and
quartiles, the share of pairs the change wins (ties count for neither), and
a verdict:

- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``, and the spread is within
  the bound or every change run is worse than every parent run;
- ``unresolved``: a side's spread (quartile distance over median) exceeds
  the bound, and not every change run beats every parent run;
- ``improved``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
- ``within bound``: otherwise.

Records made with ``--trace 1`` carry per-layer metrics instead: counts
must be the same in every run of both records, and the medians of the other
per-layer values are listed side by side.  Report digests are compared per
(workload, seed).  A changed count or digest means the change altered
behaviour, which a pure performance change must not.

Exit code 1 when any row regressed or any count or digest changed, 2 when
the records cannot be compared, else 0.  A change that alters behaviour on
purpose is judged by reading the table, not by the exit code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from run import END_TO_END, PER_LAYER, quartiles


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> dict:
    """The row for one (metric, workload): quartiles, wins and verdict."""
    a, b = quartiles(parent), quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / a["median"]
    pairs = list(zip(parent, change))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0) / len(pairs)
    spread = max((q["q3"] - q["q1"]) / q["median"] for q in (a, b))
    all_better = all(sign * (y - x) < 0 for x in parent for y in change)
    all_worse = all(sign * (y - x) > 0 for x in parent for y in change)
    if worse > bound and (spread <= bound or all_worse):
        outcome = "regressed"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif wins >= 0.9 and worse < 0 and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]:
        outcome = "improved"
    else:
        outcome = "within bound"
    return {"parent": a, "change": b, "worse": worse, "wins": wins,
            "spread": spread, "verdict": outcome}


def runs_by_workload(record: dict) -> Dict[str, List[dict]]:
    return {name: entry["runs"] for name, entry in record["workloads"].items()}


def digests(runs: List[dict]) -> Dict[int, set]:
    out: Dict[int, set] = {}
    for run in runs:
        out.setdefault(run["seed"], set()).add(run["digest"])
    return out


def compare(parent: dict, change: dict) -> int:
    if parent["settings"] != change["settings"]:
        print(f"settings differ: parent {parent['settings']}, change {change['settings']}")
        return 2
    regressed = changed_counts = changed_digests = 0
    a_runs, b_runs = runs_by_workload(parent), runs_by_workload(change)
    shared = [name for name in a_runs if name in b_runs]

    def num(x: float) -> str:
        return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"

    def quart(q: dict) -> str:
        return f"{num(q['median'])} [{num(q['q1'])}, {num(q['q3'])}]"

    print(f"{'metric':14s} {'workload':9s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'worse':>7s} {'wins':>5s}  verdict")
    for metric, spec in END_TO_END.items():
        for name in shared:
            if not all(metric in runs[name][0]["metrics"] for runs in (a_runs, b_runs)):
                continue
            row = verdict(
                [run["metrics"][metric] for run in a_runs[name]],
                [run["metrics"][metric] for run in b_runs[name]],
                spec["better"], spec["bound"],
            )
            regressed += row["verdict"] == "regressed"
            note = row["verdict"]
            if note == "unresolved":
                note += f" (spread {row['spread']:.3f} > bound {spec['bound']})"
            print(f"{metric:14s} {name:9s} {quart(row['parent']):>32s} "
                  f"{quart(row['change']):>32s} {100 * row['worse']:+6.1f}% "
                  f"{row['wins']:5.2f}  {note}")
    for metric, spec in PER_LAYER.items():
        for name in shared:
            if not all(metric in runs[name][0]["metrics"] for runs in (a_runs, b_runs)):
                continue
            a_values = [run["metrics"][metric] for run in a_runs[name]]
            b_values = [run["metrics"][metric] for run in b_runs[name]]
            a, b = statistics.median(a_values), statistics.median(b_values)
            if spec["unit"] == "count":
                same = set(a_values) == set(b_values) and len(set(a_values)) == 1
                changed_counts += not same
                note = "same" if same else "CHANGED"
            else:
                note = f"{100 * (b - a) / a:+.1f}%" if a else ""
            print(f"{metric:38s} {name:9s} {a:>14.6g} {b:>14.6g} {spec['unit']:>13s}  {note}")
    for name in shared:
        a_digests, b_digests = digests(a_runs[name]), digests(b_runs[name])
        for seed in sorted(set(a_digests) & set(b_digests)):
            same = a_digests[seed] == b_digests[seed] and len(a_digests[seed]) == 1
            changed_digests += not same
            print(f"digest {name} seed {seed}: {'same' if same else 'CHANGED'} "
                  f"({', '.join(sorted(a_digests[seed]))} -> {', '.join(sorted(b_digests[seed]))})")
    print(f"{regressed} row(s) regressed, {changed_counts} count(s) changed, "
          f"{changed_digests} digest(s) changed")
    return 1 if regressed or changed_counts or changed_digests else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    return compare(json.loads(args.parent.read_text()), json.loads(args.change.read_text()))


if __name__ == "__main__":
    sys.exit(main())
