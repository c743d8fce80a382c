"""Golden digests: the paper executor's behaviour, frozen.

Every executor-driven result — the paper tables (VII, IX, X, XI), the
three ablations, the queue-aware, batched-burst and stream studies,
Fig. 3's spans and Gantt, and some 1,500 seeded ``execute_requests`` /
``execute_batched_burst`` cases — is hashed and compared with
``tests/golden/executor_digests.json``.  A digest covers the outcomes
(request id, ``repr`` of start and finish, hosts) and the cluster's trace
spans in record order, so a change that reorders two same-instant events
anywhere shows up here even when every latency survives.

The seeded cases draw request sources from every cluster device and
arrival times from a small grid, so same-time ties between arrivals, slot
grants and transfers are common.  Five modes: plain ``serve`` (parallel
and sequential, shared and unshared), ``serve`` with service noise, the
queue-aware router over a replicated deployment, the batched burst at
several batch caps, and two ``serve`` calls on one engine.

Request ids come from a process-global counter; digests rebase them, so
the goldens hold whatever ran earlier in the interpreter.

To re-record after a deliberate behaviour change (and say why in
CHANGES.md)::

    PYTHONPATH=src python tests/test_executor_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import pytest

from repro.cluster.topology import build_testbed
from repro.core.engine import S2M3Engine
from repro.core.routing.batched import execute_batched_burst
from repro.core.routing.executor import execute_requests
from repro.core.routing.queue_aware import QueueAwareRouter
from repro.utils.seeding import rng_for

GOLDEN_PATH = Path(__file__).parent / "golden" / "executor_digests.json"

DEVICE_SETS: Tuple[Tuple[str, ...], ...] = (
    ("desktop", "laptop", "jetson-b", "jetson-a"),
    ("server", "desktop", "laptop", "jetson-b", "jetson-a"),
    ("laptop", "jetson-b", "jetson-a"),
)
MODEL_MIXES: Tuple[Tuple[str, ...], ...] = (
    ("clip-vit-b16",),
    ("clip-vit-b16", "encoder-vqa-small"),
    ("clip-vit-b16", "encoder-vqa-small", "image-classification-vitb16"),
    ("alignment-vitb16", "clip-vit-b16"),
    ("clip-rn50", "clip-vit-b32"),
    ("flint-v0.5-1b-s", "clip-vit-b16"),
    ("imagebind",),
    ("llava-v1.5-7b-s",),
)
#: Arrival times (s): a coarse grid, so same-instant arrivals are common.
ARRIVAL_GRID = (0.0, 0.0, 0.5, 1.0, 2.0, 2.0, 3.5, 6.0)
NOISE_GRID = (0.5, 1.0, 1.0, 1.5, 2.0)
BATCH_CAPS = (1, 2, 3, 16)
#: Seeded cases per mode.
CASES = {"serve": 400, "noise": 300, "queue-aware": 300, "batched": 300, "twice": 220}


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def _digest(lines: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _rid(request_id: Optional[int], base: int) -> str:
    return "-" if request_id is None else str(request_id - base)


def _outcome_lines(outcomes, base: int) -> List[str]:
    return [
        f"q{o.request.request_id - base} {o.start_time!r} {o.finish_time!r} "
        f"{sorted(o.routing.hosts.items())}"
        for o in outcomes
    ]


def _span_lines(spans, base: int) -> List[str]:
    return [
        f"{s.device}|{s.category}|{s.label}|{s.start!r}|{s.end!r}|{_rid(s.request_id, base)}"
        for s in spans
    ]


# ---------------------------------------------------------------------------
# Seeded cases
# ---------------------------------------------------------------------------

def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _requests(rng, engine, models, devices, count):
    return [
        engine.request(
            _pick(rng, models),
            arrival_time=_pick(rng, ARRIVAL_GRID),
            source=_pick(rng, devices),
        )
        for _ in range(count)
    ]


def seeded_case(mode: str, seed: int) -> str:
    """Run one seeded case and digest its outcomes and trace."""
    rng = rng_for("executor-golden", mode, seed)
    devices = _pick(rng, DEVICE_SETS)
    models = _pick(rng, MODEL_MIXES)
    parallel = mode == "batched" or bool(rng.integers(4))  # mostly parallel
    share = bool(rng.integers(3))                           # mostly shared
    replicate = mode == "queue-aware" or not rng.integers(4)
    cluster = build_testbed(devices, requester="jetson-a")
    engine = S2M3Engine(cluster, models, share=share, parallel=parallel, replicate=replicate)
    engine.deploy()
    requests = _requests(rng, engine, models, devices, 1 + int(rng.integers(7)))
    base = min(r.request_id for r in requests)
    header = [f"{mode} {seed} {devices} {models} {parallel} {share} {replicate}"]
    if mode == "serve":
        results = [engine.serve(requests)]
    elif mode == "noise":
        noise = {
            (name, device): _pick(rng, NOISE_GRID)
            for name in sorted(engine.placement.as_dict())
            for device in devices
        }
        results = [engine.serve(requests, service_noise=lambda m, d: noise[(m, d)])]
    elif mode == "queue-aware":
        router = QueueAwareRouter(cluster, engine.latency_model(), engine.placement)
        results = [
            execute_requests(
                cluster, engine.placement, requests, engine.latency_model(),
                parallel=parallel, router=router,
            )
        ]
    elif mode == "batched":
        cap = _pick(rng, BATCH_CAPS)
        header.append(f"cap {cap}")
        results = [
            execute_batched_burst(
                cluster, engine.placement, requests, engine.latency_model(), max_batch_size=cap
            )
        ]
    elif mode == "twice":
        second = _requests(rng, engine, models, devices, 1 + int(rng.integers(5)))
        results = [engine.serve(requests), engine.serve(second)]
    else:  # pragma: no cover - guarded by CASES
        raise ValueError(mode)
    lines = list(header)
    for result in results:
        lines += _outcome_lines(result.outcomes, base)
        lines.append("--")
    lines += _span_lines(cluster.trace.spans, base)
    return _digest(lines)


# ---------------------------------------------------------------------------
# Paper runs
# ---------------------------------------------------------------------------

def _rows(run) -> str:
    return _digest([repr(run())])


def _fig3() -> str:
    from repro.experiments.fig3 import run_fig3

    result = run_fig3()
    base = min(s.request_id for s in result.spans if s.request_id is not None)
    return _digest(
        [repr(result.total_seconds), result.gantt] + _span_lines(result.spans, base)
    )


def paper_runs() -> Dict[str, object]:
    from repro.experiments import ablations, extensions, table7, table9, table10, table11

    return {
        "table7": lambda: _rows(table7.run_table7),
        "table9": lambda: _rows(table9.run_table9),
        "table10": lambda: _rows(table10.run_table10),
        "table11": lambda: _rows(table11.run_table11),
        "ablation-placement": lambda: _rows(ablations.run_placement_ablation),
        "ablation-replication": lambda: _rows(ablations.run_replication_ablation),
        "ablation-sharing-pressure": lambda: _rows(ablations.run_sharing_pressure),
        "study-queue-aware": lambda: _rows(extensions.run_queue_aware_study),
        "study-batched-burst": lambda: _rows(extensions.run_batched_burst_study),
        "study-stream": lambda: _rows(extensions.run_stream_study),
        "fig3": _fig3,
    }


def record() -> Dict[str, object]:
    return {
        "paper": {name: run() for name, run in paper_runs().items()},
        "cases": {
            mode: [seeded_case(mode, seed) for seed in range(count)]
            for mode, count in CASES.items()
        },
    }


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(paper_runs()))
def test_paper_run(golden, name):
    assert paper_runs()[name]() == golden["paper"][name], f"{name} changed"


@pytest.mark.parametrize("mode", sorted(CASES))
def test_seeded_cases(golden, mode):
    expected = golden["cases"][mode]
    assert len(expected) == CASES[mode]
    changed = [seed for seed in range(CASES[mode]) if seeded_case(mode, seed) != expected[seed]]
    assert not changed, f"{mode}: {len(changed)} cases changed, first seeds {changed[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_executor_golden.py --record")
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
