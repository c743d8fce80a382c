"""Outside-in tracing of one benchmark worker process.

The benchmark may not change ``src/``, and the repo's lint rule R002 keeps
wall clocks out of ``sim/``, ``serving/`` and ``core/``.  So the per-layer
profile is taken from outside: :class:`Tracer` swaps public entry points for
timed wrappers while it is installed and restores them afterwards.

- **Coarse spans** (the timed call, ``FlatEventLoop.run``, deployment,
  re-placement, tensor builds, report build, solvers) are kept one by one as
  ``{name, start_ns, end_ns, self_ns, parent, run_id}``.
- **Event handlers** are traced by wrapping every callback passed to
  ``FlatEventLoop.push`` / ``push_at`` in a timed shim keyed by
  ``fn.__name__``.  There are ~10 per arrival, so they are aggregated in
  memory as ``name -> [calls, total_ns, self_ns]``.  A push is event-loop
  work: its time, shim lookup included, is taken out of its caller and
  booked to ``push_ns``.
- **Counts**: pushes and batches are plain int attributes bumped on the
  per-event path; pricing calls and reachability probes are counted by
  wrapped entry points.

The tracer's own per-event work (the shim call and its lookup) has no clock
of its own: it lands in ``sim``.  ``trace.overhead`` says how large it is.

Self time is a span's duration minus the time of the spans it encloses.
Wrapping changes no argument, return value or call order, so a traced run's
report equals the untraced one (the worker checks this).

The per-event path allocates no container objects: shims are cached per
callback, and the open-span stack holds plain ints.  Extra allocations would
trigger extra garbage collections, whose time lands in whatever layer
happens to allocate.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.placement as placement_api
import repro.serving.engine as serving_engine
from repro.cluster.network import Network
from repro.core.engine import S2M3Engine
from repro.core.placement.adaptive import AdaptivePlacementController
from repro.core.placement.tensors import CostTensors, EnergyTensors
from repro.core.routing.latency import LatencyModel
from repro.sim.flat import FlatEventLoop

#: Handler-name prefix -> layer.  Prefixes rather than exact names, so a
#: renamed handler usually stays in its layer; anything unmatched lands in
#: ``serving.other`` and shows up in the raw handler table.
HANDLER_LAYERS: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("_on_arrival",), "serving.admission"),
    (("_enc",), "serving.encoder"),
    (("_head",), "serving.head"),
    (("_server", "_chunk", "_job"), "serving.batching"),
    (("_watch", "_timeout"), "serving.retry"),
    (("_fault", "_brownout", "_autoscale", "_scale", "_reconfig"), "serving.control"),
)
OTHER_LAYER = "serving.other"
HANDLER_LAYER_NAMES = tuple(layer for _, layer in HANDLER_LAYERS) + (OTHER_LAYER,)

#: The handler that starts one micro-batch; its third argument is the chunk.
BATCH_START = "_server_granted"

#: (owner, attribute, span name): timed coarse spans.
TIMED = (
    (FlatEventLoop, "run", "sim"),
    (S2M3Engine, "deploy", "core.placement.deploy"),
    (AdaptivePlacementController, "evaluate", "core.placement.evaluate"),
    (CostTensors, "__init__", "core.placement.tensors"),
    (EnergyTensors, "__init__", "core.placement.tensors"),
    (serving_engine, "build_report_arrays", "serving.report"),
    (placement_api, "branch_and_bound_placement", "core.placement.bnb"),
    (placement_api, "energy_branch_and_bound", "core.placement.energy_bnb"),
    (placement_api, "replica_branch_and_bound", "core.placement.replica_bnb"),
    (placement_api, "greedy_placement", "core.placement.greedy"),
)

#: Kept spans whose call count is a per-layer metric, and its name.
SPAN_CALLS = {"core.placement.evaluate": "calls", "core.placement.tensors": "builds"}

#: (owner, attribute, counter name): call counts only.
COUNTED = (
    (LatencyModel, "compute_seconds", "core.routing.compute_seconds.calls"),
    (LatencyModel, "breakdown", "core.routing.breakdown.calls"),
    (Network, "has_path", "cluster.network.has_path.calls"),
    (Network, "transfer_seconds", "cluster.network.transfer_seconds.calls"),
)


def layer_of(handler_name: str) -> str:
    """The layer an event handler belongs to."""
    for prefixes, layer in HANDLER_LAYERS:
        if handler_name.startswith(prefixes):
            return layer
    return OTHER_LAYER


class Tracer:
    """Spans, handler aggregates and counters for one worker process.

    Use the tracer as a context manager around the traced calls, and
    :meth:`span` around each timed unit of work (it opens the root span of
    one repetition).
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        # The open-span stack: time spent in enclosed spans so far, per
        # level; and the kept span that new spans name as their parent.
        self._child_ns: List[int] = [0]
        self._parents: List[Optional[int]] = [None]
        self._saved: List[Tuple[object, str, object]] = []
        self.reset(0)

    def reset(self, run_id: int) -> None:
        """Start a fresh repetition (spans, handlers and counters cleared)."""
        self.run_id = run_id
        self.spans: List[dict] = []
        self.handlers: Dict[str, List[int]] = {}
        self.counts: Counter = Counter()
        self.push_ns = 0
        self.heap_pushes = 0
        self.ready_pushes = 0
        self.batches = 0
        self.batched_jobs = 0
        self._shims: Dict[Callable, Callable] = {}

    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a kept span named ``name``."""
        span = {
            "name": name, "start_ns": 0, "end_ns": 0, "self_ns": 0,
            "parent": self._parents[-1], "run_id": self.run_id,
        }
        self.spans.append(span)
        self._parents.append(len(self.spans) - 1)
        self._child_ns.append(0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            inner = self._child_ns.pop()
            self._parents.pop()
            self._child_ns[-1] += end - start
            span.update(start_ns=start, end_ns=end, self_ns=end - start - inner)

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call is a kept span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call bumps counter ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def shim(self, fn: Callable) -> Callable:
        """A new timed stand-in for event-loop callback ``fn``.

        The push wrappers cache it per callback: bound methods of one
        object and function compare equal, so each handler gets one shim per
        engine.  The shim of :data:`BATCH_START` also counts batches and the
        jobs in them.
        """
        name = fn.__name__
        stats = self.handlers.setdefault(name, [0, 0, 0])
        tracer, child_ns, clock = self, self._child_ns, self.clock

        def call(*args):
            child_ns.append(0)
            start = clock()
            try:
                fn(*args)
            finally:
                duration = clock() - start
                inner = child_ns.pop()
                child_ns[-1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - inner

        def call_batch(*args):
            tracer.batches += 1
            tracer.batched_jobs += len(args[2])
            call(*args)

        shim = call_batch if name == BATCH_START else call
        self._shims[fn] = shim
        return shim

    # ------------------------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        tracer, clock, child_ns = self, self.clock, self._child_ns
        push, push_at = FlatEventLoop.push, FlatEventLoop.push_at

        # A push, shim lookup included, is booked to the event loop rather
        # than to its caller.
        def traced_push(loop, delay, fn, *args):
            start = clock()
            if delay == 0:
                tracer.ready_pushes += 1
            else:
                tracer.heap_pushes += 1
            push(loop, delay, tracer._shims.get(fn) or tracer.shim(fn), *args)
            elapsed = clock() - start
            child_ns[-1] += elapsed
            tracer.push_ns += elapsed

        def traced_push_at(loop, at, fn, *args):
            start = clock()
            if at == loop.now:
                tracer.ready_pushes += 1
            else:
                tracer.heap_pushes += 1
            push_at(loop, at, tracer._shims.get(fn) or tracer.shim(fn), *args)
            elapsed = clock() - start
            child_ns[-1] += elapsed
            tracer.push_ns += elapsed

        self._patch(FlatEventLoop, "push", traced_push)
        self._patch(FlatEventLoop, "push_at", traced_push_at)
        for owner, attribute, name in TIMED:
            self._patch(owner, attribute, self.timed(name, getattr(owner, attribute)))
        for owner, attribute, name in COUNTED:
            self._patch(owner, attribute, self.counted(name, getattr(owner, attribute)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def span_totals(self) -> Dict[str, Tuple[int, int]]:
        """name -> (calls, self_ns) over the kept spans."""
        totals: Dict[str, Tuple[int, int]] = {}
        for span in self.spans:
            calls, self_ns = totals.get(span["name"], (0, 0))
            totals[span["name"]] = (calls + 1, self_ns + span["self_ns"])
        return totals

    def layer_totals(self) -> Dict[str, Tuple[int, int]]:
        """layer -> (calls, self_ns) over the event handlers."""
        totals = {layer: (0, 0) for layer in HANDLER_LAYER_NAMES}
        for name, (calls, _total_ns, self_ns) in self.handlers.items():
            layer = layer_of(name)
            layer_calls, layer_ns = totals[layer]
            totals[layer] = (layer_calls + calls, layer_ns + self_ns)
        return totals

    def handler_table(self) -> List[dict]:
        """The raw per-handler table, heaviest self time first."""
        rows = [
            {"handler": name, "layer": layer_of(name), "calls": calls,
             "total_ns": total_ns, "self_ns": self_ns}
            for name, (calls, total_ns, self_ns) in self.handlers.items()
        ]
        rows.sort(key=lambda row: (-row["self_ns"], row["handler"]))
        return rows

    def table(self, generate_s: float, counts: Dict[str, int]) -> Dict[str, float]:
        """This repetition's per-layer metrics.

        ``counts`` are the program's own counts (``arrivals`` and the
        solvers' ``BnBStats``).  Times are self times as a percentage of the
        root span: ``sim`` is the event loop's dispatch plus its pushes (and
        the tracer's per-event work), and ``run`` what no layer claimed.
        """
        root = next(span for span in self.spans if span["parent"] is None)
        run_ns = root["end_ns"] - root["start_ns"]

        def pct(ns: int) -> float:
            return 100.0 * ns / run_ns

        spans = self.span_totals()
        layers = self.layer_totals()
        events = sum(calls for calls, _ in layers.values())
        arrivals = counts.get("arrivals", 0)
        table: Dict[str, float] = {
            "workload.generate_s": generate_s,
            "trace.run_s": run_ns / 1e9,
            "run.self_pct": pct(root["self_ns"]),
            "sim.self_pct": pct(spans.get("sim", (0, 0))[1] + self.push_ns),
            "sim.events": events,
            "sim.heap_pushes": self.heap_pushes,
            "sim.ready_pushes": self.ready_pushes,
            "sim.events_per_arrival": events / arrivals if arrivals else 0.0,
            "serving.batching.jobs_per_batch": (
                self.batched_jobs / self.batches if self.batches else 0.0
            ),
        }
        for layer, (calls, self_ns) in layers.items():
            table[f"{layer}.calls"] = calls
            table[f"{layer}.self_pct"] = pct(self_ns)
        for span in sorted({name for _, _, name in TIMED} - {"sim"}):
            calls, self_ns = spans.get(span, (0, 0))
            table[f"{span}.self_pct"] = pct(self_ns)
            if span in SPAN_CALLS:
                table[f"{span}.{SPAN_CALLS[span]}"] = calls
        for solver in ("bnb", "energy_bnb"):
            for stat in ("nodes", "leaves", "pruned"):
                name = f"core.placement.{solver}.{stat}"
                table[name] = counts.get(name, 0)
        for _, _, name in COUNTED:
            table[name] = self.counts[name]
        return table
