"""One workload in a fresh process: set up, measure, check, report.

``bench/run.py`` starts this script once per measurement (and a few more
times with ``--setup-only`` to sample set-up time).  The last line of its
standard output is one JSON object; the exit code is 1 when a check failed.

- Untimed: input generation, runtime construction, output checks.
- Timed: the workload's call, repeated until ``--seconds`` have passed
  (at least once).
- ``--trace``: the per-layer table of traced calls (see
  :func:`measure_traced`).
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
OUT_DIR = BENCH / "out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


#: The reference loop's fastest time on the 2-vCPU x86 VM (Xeon, 2.1 GHz,
#: Python 3.11) the baseline was recorded on.  Times divided by the loop's
#: current time and multiplied by this are seconds at that host's speed.
REFERENCE_S = 0.035


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop: heap, dict and float work
    like the replays'.  It tells how fast the host runs right now.

    A full collection first, so that garbage the preceding call or set-up
    left behind is not collected inside the loop.
    """
    gc.collect()
    start = time.perf_counter()
    heap: List[tuple] = []
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(50_000):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i))
        table[i & 511] = table.get(i & 511, 0.0) + i
        if len(heap) > 256:
            total += heapq.heappop(heap)[0]
    return time.perf_counter() - start


def measure(wl, seconds: float) -> Tuple[List[float], List[float]]:
    """Time the call repeatedly for ``seconds`` (at least once).

    Returns the call times and the reference-loop times taken before the
    first call and after every call.
    """
    times: List[float] = []
    refs = [reference_seconds()]
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        call = wl.call()
        start = time.perf_counter()
        output = call()
        times.append(time.perf_counter() - start)
        refs.append(reference_seconds())
        wl.record(len(times) - 1, output)
        del output
    return times, refs


def measure_traced(wl, seconds: float, workload: str) -> Dict[str, float]:
    """Half the time untraced, half traced; returns the per-layer table.

    Each traced repetition is checked like an untraced one, so its output
    must equal the first untraced call's.  The table is the median over the
    traced repetitions; it is also written, with the raw handler table and
    the spans of the last repetition, to ``bench/out/<workload>.trace.json``.
    """
    from tracer import Tracer

    plain, _ = measure(wl, seconds / 2)
    tracer = Tracer()
    tables: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds / 2
    while not tables or time.perf_counter() < deadline:
        tracer.reset(len(tables))
        call = wl.call()
        gc.collect()  # as before every untraced call (see reference_seconds)
        with tracer:
            output = tracer.span("run", call)
        wl.record(len(plain) + len(tables), output)
        tables.append(tracer.table(wl.generate_s, wl.layer_counts(output)))
        del output

    # median_low keeps counts whole: they are the same in every repetition.
    layers = {
        name: statistics.median_low(table[name] for table in tables) for name in tables[0]
    }
    layers["trace.overhead"] = min(table["trace.run_s"] for table in tables) / min(plain)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}.trace.json").write_text(
        json.dumps(
            {
                "workload": workload,
                "per_layer": layers,
                "untraced_run_s": plain,
                "handlers": tracer.handler_table(),
                "spans": tracer.spans,
            },
            indent=1,
        )
    )
    return layers


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH.parent / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    scale = workloads.SMOKE_SCALE if args.smoke else 1.0
    wl = workloads.build(args.workload, args.seed, scale)
    if args.setup_only:
        ready = time.monotonic()
        # The median of three loops: one short loop can land in a blip.
        ref = statistics.median(reference_seconds() for _ in range(3))
        print(json.dumps({"ready": ready, "ref": ref}))
        return 0
    if args.trace:
        result = {"per_layer": measure_traced(wl, args.seconds, args.workload)}
    else:
        times, refs = measure(wl, args.seconds)
        result = {"times": times, "refs": refs}
    wl.run_checks()
    result.update(
        digest=wl.digest,
        sim=wl.sim,
        attempted=wl.attempted,
        failed=wl.failed,
        errors=wl.errors,
        workload=args.workload,
        seed=args.seed,
        ops=wl.ops,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 1 if result["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
