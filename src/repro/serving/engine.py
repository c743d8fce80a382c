"""The serving engine: one flat event loop, no generator frames.

:class:`FlatServingEngine` replays an arrival trace for a
:class:`~repro.serving.runtime.ServingRuntime` — admission, streaming
queue-aware routing, micro-batching, churn re-placement, replica
autoscaling, and the energy ledger — keeping all live-request state in
preallocated numpy columns (SLO/finish/retry/pending/assigned-host arrays
indexed by arrival number) and advancing a single
:class:`~repro.sim.flat.FlatEventLoop` of plain ``(time, seq, fn, args)``
continuations.  A hop is one function call rather than a generator frame
plus several event objects, and the arrival trace is one
:meth:`~repro.sim.flat.FlatEventLoop.feed` of its sorted time column, read
by a cursor with nothing allocated per arrival up front, which is what
lets one run replay millions of arrivals.

**Golden-digest contract.**  Same runtime config + same trace + same fault
schedule ⇒ the same :meth:`~repro.serving.report.ServingReport.digest`,
record for record; ``tests/golden/serving_digests.json`` pins the digests
of a grid of workloads, fault schedules, same-instant ties, autoscaling
and energy runs.  What those digests pin:

- **event order** — continuations at the same simulated time run in
  insertion order (the loop's ``seq``), and setup schedules its entries in
  a fixed order (arrivals in trace order, then the fault walker, then the
  brownout tick, then the autoscale tick), so same-time interleavings are
  fixed even when an arrival coincides with a fault to the last ulp;
- **float op order** — every price (service seconds, waits, isolated
  latency, reservation ledgers, energy) is computed from the same operand
  state in the same operation order run after run;
- **event count shape** — the only fusion is a batch's per-job completion
  broadcast: ``k`` contiguous completions run inline, in order, from one
  entry.

Caches (service seconds, transfer seconds, batch services, isolated
estimates and autoscaler views keyed by a placement/live-set generation
counter, isolated totals keyed by routed hosts, rejection verdicts keyed by
routing-state version and brownout level, reject reasons) memoize pure
deterministic functions only, so they change *when* a float is computed,
never *which* float.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.requests import InferenceRequest, _request_counter
from repro.cluster.topology import build_testbed
from repro.core.engine import S2M3Engine
from repro.core.placement.adaptive import AdaptivePlacementController
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.routing.latency import RoutingDecision
from repro.profiles.energy import resolve_energy_profile
from repro.serving.faults import FAIL, LINK_DEGRADE, RECOVER, SLOW, SLOW_END, FaultEvent
from repro.serving.report import (
    BrownoutRecord,
    ChurnRecord,
    DeviceEnergy,
    EnergyReport,
    MigrationRecord,
    RequestRecord,
    ScalingRecord,
    ServingReport,
    build_report_arrays,
    merged_busy_seconds,
)
from repro.serving.workload import ArrivalTrace
from repro.sim.flat import FlatEventLoop
from repro.utils.errors import PlacementError


class _ModelInfo:
    """Per-deployed-model constants, resolved once per run.

    ``proto`` is a request with ``request_id=-1`` standing in for any
    request of this model in pure pricing calls (service seconds depend on
    the model, never the request identity); building it with an explicit id
    keeps the global request counter untouched.
    """

    __slots__ = (
        "index", "name", "spec", "proto", "encoders", "head",
        "module_names", "n_enc", "payloads", "out_bytes",
    )

    def __init__(self, index: int, name: str, spec, proto, encoders, head,
                 module_names, payloads, out_bytes) -> None:
        self.index = index
        self.name = name
        self.spec = spec
        self.proto = proto
        self.encoders = encoders
        self.head = head
        self.module_names = module_names
        self.n_enc = len(encoders)
        self.payloads = payloads
        self.out_bytes = out_bytes


#: Job layout: [is_head, arrival_index, encoder_path, est_service,
#: model_info_index, cancelled, notified, queue_key].  A plain list — a
#: million queued jobs stay cheap; the watchdog dequeues a job by identity
#: (``is``), never a value-equal sibling attempt.  The three mutable tail
#: slots are the retry watchdog flags (``cancelled`` marks an attempt
#: abandoned by its retry watchdog; ``notified`` guards the one-shot
#: completion against double firing; ``key`` is the micro-batch queue the
#: job sits in once enqueued, None before).
_IS_HEAD, _IDX, _PATH, _EST, _MODEL, _CANCELLED, _NOTIFIED, _KEY = range(8)

#: The autoscaler's per-module view: (queue keys of the live hosts, their
#: summed slot capacity, scale-up plan ``(chosen, load seconds)`` or None).
_ScaleView = Tuple[Tuple[Tuple[str, str], ...], int, Optional[Tuple[str, float]]]


class FlatServingEngine:
    """One serving run on the flat event loop; built fresh per ``run``."""

    #: Cache-coherence contract, machine-checked by lint rule R003: any
    #: method that mutates one of these routing-scored attributes must
    #: advance ``_state_version`` (directly or via ``_bump_generation``)
    #: on its fall-through path, or the rejection verdicts keyed on the
    #: counter would outlive the state they priced.  ``run`` is exempt: it
    #: builds the state wholesale before the event loop starts.
    _ROUTING_STATE = frozenset(
        {
            "_slot_used", "_slot_waiters", "_backlog", "_reserved",
            "_slow", "_live", "_placement",
        }
    )
    _ROUTING_STATE_SETUP = ("run",)

    def __init__(self, runtime) -> None:
        self.rt = runtime

    # ==================================================================
    # Run
    # ==================================================================
    def run(
        self,
        trace: ArrivalTrace,
        fault_events: Sequence[FaultEvent] = (),
    ) -> ServingReport:
        rt = self.rt
        self._loop = FlatEventLoop()
        self._cluster = build_testbed(rt.device_names, requester=rt.requester)
        self._engine = rt._deploy_engine(self._cluster, trace)
        self._placement: Placement = self._engine.placement
        self._latency_model = self._engine.latency_model()
        self._network = self._cluster.network
        self._devices = self._cluster.devices
        self._device_names: List[str] = list(self._cluster.device_names)
        self._dev_index = {name: i for i, name in enumerate(self._device_names)}
        self._requester = self._cluster.requester
        self._live: Set[str] = set(self._cluster.device_names)
        self._crashed: Set[str] = set()
        self._slow: Dict[str, float] = {name: 1.0 for name in self._device_names}
        self._retry = rt.retry
        self._module_specs = self._engine.module_specs
        self._sorted_modules = sorted(self._module_specs)

        # Mutable serving state: slots, uplink, ledgers, queues, logs.
        self._slot_cap = {
            name: self._devices[name].slots.capacity for name in self._device_names
        }
        self._slot_used = {name: 0 for name in self._device_names}
        self._slot_waiters: Dict[str, deque] = {
            name: deque() for name in self._device_names
        }
        self._nic_busy = False          # the requester's capacity-1 uplink
        self._nic_waiters: deque = deque()
        # Pre-seeded with every device so the hot path can use plain
        # indexing instead of .get(name, 0.0).
        self._reserved: Dict[str, float] = {name: 0.0 for name in self._device_names}
        self._backlog: Dict[str, float] = {name: 0.0 for name in self._device_names}
        self._queues: Dict[Tuple[str, str], List[tuple]] = {}
        self._active_servers: Set[Tuple[str, str]] = set()
        self._fail_times: Dict[str, List[float]] = {}
        self._radio_joules: Dict[str, float] = {}
        self._busy_intervals: Dict[str, List[Tuple[float, float]]] = {}
        # Parked attempts as (route handler, *args), re-run on the next
        # reconfiguration signal.
        self._reconfig_waiters: List[tuple] = []
        # Arrival indices of the latest admits, oldest first.
        self._recent_admits: List[int] = []
        self._migrations: List[MigrationRecord] = []
        self._churn_log: List[ChurnRecord] = []
        self._scaling_log: List[ScalingRecord] = []
        self._pending_adds: Set[str] = set()
        self._brownout_level = 0
        self._brownout_shed: frozenset = frozenset()
        self._brownout_log: List[BrownoutRecord] = []
        self._controller = AdaptivePlacementController(self._network)
        self._problem_cache: Dict[Tuple[str, ...], PlacementProblem] = {}

        # Pure-function caches; the generation counter invalidates the
        # placement/live-set-dependent isolated estimates.
        self._generation = 0
        self._infos: List[_ModelInfo] = []
        self._info_by_name: Dict[str, _ModelInfo] = {}
        self._svc_cache: Dict[Tuple[int, str, str], float] = {}
        self._batch_cache: Dict[Tuple[str, str, int, int], float] = {}
        self._transfer_cache: Dict[Tuple[str, str, int], float] = {}
        self._isolated_cache: Dict[int, Tuple[int, Optional[float]]] = {}
        # Isolated totals by (info.index, routed hosts): a routed breakdown
        # reads no placement, so this survives generation bumps that leave
        # every module's chosen host unchanged; only a link fault (transfer
        # prices) clears it.
        self._isolated_memo: Dict[Tuple[int, Tuple[str, ...]], float] = {}
        # Both invalidated wholesale by _bump_generation, which every change
        # to the placement, the live set or device memory goes through.
        self._route_cache: Dict[Tuple[int, str], List[Tuple[float, str]]] = {}
        self._scale_views: Dict[str, _ScaleView] = {}
        # _state_version advances at every routing-state mutation (slots,
        # waiters, backlog, reserved, generation).  The reject reason is a
        # pure format of (predicted, slo).
        self._state_version = 0
        self._reject_reason_cache: Dict[Tuple[float, float], str] = {}
        # Verdict memo: model name -> (state_version, brownout_level, slo,
        # predicted, reason) of its last SLO rejection.  The verdict reads
        # only the isolated estimate (generation, bandwidths), the pressure
        # (routing state) and the shed set (brownout level), so an arrival
        # at the same version and level is rejected the same way without
        # re-pricing; a link fault reprices with no version bump and clears
        # it.  ``predicted`` is kept for the coherence tests only.
        self._verdicts: Dict[str, Tuple[int, int, float, float, str]] = {}
        self._energy_profiles = {
            name: resolve_energy_profile(name) for name in self._device_names
        }
        self._track_energy = rt.track_energy

        # The request-state columns: one row per arrival.  The arrival
        # columns are the trace's own, shared without a copy (read-only).
        n = len(trace)
        self._arrival_models = trace.model_names
        self._arrival_times = trace.times
        max_enc = max(
            (len(self._engine.resolve_model(name).encoders) for name in rt.models),
            default=0,
        )
        self._req_ids = np.full(n, -1, dtype=np.int64)
        self._slo = np.zeros(n, dtype=np.float64)
        self._finish = np.full(n, np.nan, dtype=np.float64)
        self._retries = np.zeros(n, dtype=np.int32)
        self._admitted = np.zeros(n, dtype=bool)
        self._pending = np.zeros(n, dtype=np.int32)
        self._info_of = np.zeros(n, dtype=np.int32)
        self._enc_hosts = np.full((n, max(1, max_enc)), -1, dtype=np.int16)
        # Whether a module was attempted yet: encoder paths, then the head.
        self._tried = np.zeros((n, max_enc + 1), dtype=bool)
        self._timed_out = np.zeros(n, dtype=bool)
        self._rejected: List[Optional[str]] = [None] * n
        self._unresolved = n
        if rt.brownout is not None:
            self._brownout_rank = self._brownout_ranking()

        # Entry order is part of the golden-digest contract — arrivals in
        # trace order, then the fault walker, then the brownout tick, then
        # the autoscale tick — so same-time continuations interleave the
        # same way to the last ulp.  Arrivals are fed as one stream in
        # stable time order: equal times keep trace order, so an unsorted
        # trace dispatches as if each arrival were pushed at its time in
        # trace order.  The fault stream arrives in
        # FaultPlan.ordered's stable (time, label) order.
        loop = self._loop
        order = np.argsort(self._arrival_times, kind="stable")
        loop.feed(memoryview(self._arrival_times[order]), self._on_arrival, memoryview(order))
        # The loop's stream now holds the only references, dropped once spent.
        del order
        if fault_events:
            self._fault_events = list(fault_events)
            loop.push(0.0, self._fault_advance, 0)
        if rt.brownout is not None and n:
            loop.push(0.0, self._brownout_gate)
        if rt.autoscale and n:
            loop.push(0.0, self._autoscale_gate)

        loop.run(max_events=rt.max_events)
        return self._assemble_report(trace)

    # ==================================================================
    # Arrival, admission
    # ==================================================================
    def _info_for(self, model_name: str) -> _ModelInfo:
        info = self._info_by_name.get(model_name)
        if info is None:
            spec = self._engine.resolve_model(model_name)
            proto = InferenceRequest(
                model=spec, source=self._requester, arrival_time=0.0, request_id=-1
            )
            encoders = tuple(spec.encoders)
            payloads = []
            out_bytes = []
            for encoder_name in encoders:
                module = self._latency_model.module(encoder_name)
                payloads.append(spec.payload_bytes(module.modality or "image"))
                out_bytes.append(module.output_bytes)
            info = _ModelInfo(
                index=len(self._infos), name=model_name, spec=spec, proto=proto,
                encoders=encoders, head=spec.head,
                module_names=tuple(spec.module_names),
                payloads=tuple(payloads), out_bytes=tuple(out_bytes),
            )
            self._infos.append(info)
            self._info_by_name[model_name] = info
        return info

    def _on_arrival(self, idx: int) -> None:
        rt = self.rt
        model_name = self._arrival_models[idx]
        # Mirrors engine.request(): the id is drawn from the same global
        # counter at the same point, but the (frozen, slow-to-construct)
        # request object itself is only materialized by _replace_decision,
        # for the admits in the controller's recents window.
        request_id = next(_request_counter)
        self._req_ids[idx] = request_id
        verdict = self._verdicts.get(model_name)
        if (
            verdict is not None
            and verdict[0] == self._state_version
            and verdict[1] == self._brownout_level
        ):
            # Rejected at this very routing state: only admits read
            # _info_of, so the hit leaves it unwritten.
            self._slo[idx] = verdict[2]
            self._reject(idx, verdict[4])
            return
        info = self._info_for(model_name)
        self._info_of[idx] = info.index

        isolated = self._isolated(info)
        if isolated is None:
            # Mid-migration window: some module has no live host right now.
            self._slo[idx] = rt.slo.slo_for(0.0)
            if rt.slo.admission:
                self._reject(idx, "no live host for a required module")
                return
        else:
            slo_s = rt.slo.slo_for(isolated)
            self._slo[idx] = slo_s
        if model_name in self._brownout_shed:
            self._reject(
                idx,
                f"brownout level {self._brownout_level}: shedding {model_name}",
            )
            return
        # With admission off every arrival is admitted, so the prediction
        # is never priced.
        if isolated is not None and rt.slo.admission:
            predicted = isolated + self._queue_pressure(info)
            if not rt.slo.admit(predicted, slo_s):
                reason = self._reject_reason_cache.get((predicted, slo_s))
                if reason is None:
                    reason = f"predicted {predicted:.2f}s exceeds SLO {slo_s:.2f}s"
                    self._reject_reason_cache[(predicted, slo_s)] = reason
                self._verdicts[model_name] = (
                    self._state_version, self._brownout_level, slo_s, predicted, reason
                )
                self._reject(idx, reason)
                return
        self._admitted[idx] = True
        recent = self._recent_admits
        recent.append(idx)
        if len(recent) > 4 * rt.recent_window:
            del recent[: -rt.recent_window]

        self._pending[idx] = info.n_enc
        if info.n_enc:
            for path in range(info.n_enc):
                self._loop.push(0.0, self._enc_route, idx, path)
        else:
            self._head_route(idx)

    def _reject(self, idx: int, reason: str) -> None:
        self._rejected[idx] = reason
        self._unresolved -= 1

    # ==================================================================
    # Attempts: one routed try of a request's encoder path or head
    # ==================================================================
    def _attempt(self, idx: int, path: int, is_head: bool) -> Optional[Tuple[list, str]]:
        """Route and reserve a host for one attempt of the head or encoder
        ``path``; return its ``(job, host)``, or None after parking the
        attempt on the reconfiguration signal (no live host).

        Every attempt of a module after its first spends one retry.  The
        job is created at routing time so the retry watchdog covers the
        transfer leg too, and its estimated service is priced at the same
        instant the router reserved it (straggler-safe ledger).
        """
        info = self._infos[self._info_of[idx]]
        module_name = info.head if is_head else info.encoders[path]
        host = self._route_module(info, module_name, reserve=True)
        if host is None:
            self._reconfig_waiters.append(
                (self._head_route, idx) if is_head else (self._enc_route, idx, path)
            )
            return None
        column = -1 if is_head else path
        if self._tried[idx, column]:
            self._retries[idx] += 1
        else:
            self._tried[idx, column] = True
        est = self._svc(info, module_name, host) * self._slow[host]
        job = [is_head, idx, path, est, info.index, False, False, None]
        if self._retry.timeout_s is not None:
            self._loop.push(self._retry.timeout_s, self._watch_fire, job)
        return job, host

    def _attempt_failed(self, job: list, stranded: bool = False) -> None:
        """One attempt failed (flush, stale batch, timeout, or an
        undeliverable transfer): spend a retry or end the request.

        With the budget spent, the route handler ends the attempt: the
        head ends the request, an encoder path ends its path.
        ``stranded`` marks a head's partition failure (a cached embedding
        can't reach the head's host): every re-route at this instant would
        fail the same reachability check, so the retry parks on the
        reconfiguration signal instead of spinning — a cut link is always
        restored eventually (the fault-plan validator rejects permanent
        cuts), and every reachability change broadcasts the signal.
        """
        idx = job[_IDX]
        if job[_IS_HEAD]:
            retry, args = self._head_route, (idx,)
        else:
            retry, args = self._enc_route, (idx, job[_PATH])
        if not self._retry.allows_retry(int(self._retries[idx])):
            self._timed_out[idx] = True
            retry(*args)
            return
        if stranded:
            retry = self._head_stranded
        delay = self._retry.backoff_delay(int(self._retries[idx]))
        if delay > 0:
            self._loop.push(delay, retry, *args)
        else:
            retry(*args)

    # ==================================================================
    # Encoder paths
    # ==================================================================
    def _enc_route(self, idx: int, path: int) -> None:
        if self._timed_out[idx]:
            # The shared retry budget is spent; the path ends through one
            # completion entry (event order is pinned).
            self._loop.push(0.0, self._enc_path_done, idx, path)
            return
        attempt = self._attempt(idx, path, False)
        if attempt is None:
            return
        if self._nic_busy:
            self._nic_waiters.append(attempt)
        else:
            self._nic_busy = True
            self._loop.push(0.0, self._enc_send, *attempt)

    def _enc_send(self, job: list, host: str) -> None:
        if job[_CANCELLED] or not self._network.has_path(self._requester, host):
            # Timed out while waiting for the uplink, or a partition keeps
            # the payload from landing: hold the nic for zero seconds.
            self._enc_after_send(job, host, False)
            return
        info = self._infos[job[_MODEL]]
        seconds = self._transfer_seconds(self._requester, host, info.payloads[job[_PATH]])
        if seconds > 0:
            self._loop.push(seconds, self._enc_after_send, job, host, True)
        else:
            self._enc_after_send(job, host, True)

    def _enc_after_send(self, job: list, host: str, sent: bool = True) -> None:
        if self._nic_waiters:
            self._loop.push(0.0, self._enc_send, *self._nic_waiters.popleft())
        else:
            self._nic_busy = False
        info = self._infos[job[_MODEL]]
        path = job[_PATH]
        if sent:
            self._charge_radio(self._requester, host, info.payloads[path])
        if job[_CANCELLED] or not sent:
            # Undo the routing reservation and retry, like a device loss.
            self._release(host, job[_EST])
            self._attempt_failed(job)
            return
        self._enqueue(info.encoders[path], host, job)

    def _enc_path_done(self, idx: int, path: int, host: Optional[str] = None) -> None:
        """An encoder path ended, on ``host`` or, with the retry budget
        spent, on none; the last path to end routes the head."""
        if host is not None:
            self._enc_hosts[idx, path] = self._dev_index[host]
        self._pending[idx] -= 1
        if self._pending[idx] == 0:
            self._loop.push(0.0, self._head_route, idx)

    # ==================================================================
    # Head path
    # ==================================================================
    def _head_route(self, idx: int) -> None:
        if self._timed_out[idx]:
            # Terminal: the retry budget is spent; the request ends timed
            # out, with no finish time.
            self._unresolved -= 1
            return
        attempt = self._attempt(idx, 0, True)
        if attempt is not None:
            self._head_transfers(*attempt, 0)

    def _head_transfers(self, job: list, host: str, start_path: int) -> None:
        """Ship cached embeddings to the head's host, one hop at a time.

        Sequential: a hop with positive transfer time
        suspends here and resumes at ``start_path + 1`` when it lands.  A
        watchdog cancellation or a partition between an encoder's host and
        the head abandons the attempt (reservation released, retry spent).
        """
        info = self._infos[job[_MODEL]]
        idx = job[_IDX]
        names = self._device_names
        path = start_path
        while not job[_CANCELLED]:
            if path == info.n_enc:
                self._enqueue(info.head, host, job)
                return
            enc_host = names[self._enc_hosts[idx, path]]
            if not self._network.has_path(enc_host, host):
                break
            seconds = self._transfer_seconds(enc_host, host, info.out_bytes[path])
            if seconds > 0:
                self._loop.push(seconds, self._head_transfer_done, job, host, path)
                return
            self._charge_radio(enc_host, host, info.out_bytes[path])
            path += 1
        self._release(host, job[_EST])
        self._attempt_failed(job, stranded=not job[_CANCELLED])

    def _head_transfer_done(self, job: list, host: str, path: int) -> None:
        info = self._infos[job[_MODEL]]
        enc_host = self._device_names[self._enc_hosts[job[_IDX], path]]
        self._charge_radio(enc_host, host, info.out_bytes[path])
        self._head_transfers(job, host, path + 1)

    def _head_stranded(self, idx: int) -> None:
        """Park a stranded head's retry on the reconfiguration signal."""
        self._reconfig_waiters.append((self._head_route, idx))

    # ==================================================================
    # Micro-batch servers
    # ==================================================================
    def _enqueue(self, module_name: str, host: str, job: list) -> None:
        key = (module_name, host)
        job[_KEY] = key
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = []
        queue.append(job)
        self._release(host, job[_EST])
        self._backlog[host] = self._backlog[host] + job[_EST]
        self._state_version += 1
        if key not in self._active_servers:
            self._active_servers.add(key)
            self._loop.push(0.0, self._server_drain, module_name, host)

    def _server_drain(self, module_name: str, host: str, waited: bool = False) -> None:
        """Drain one (module, host) queue in FIFO micro-batches; returning
        means "suspended" (a window, a slot wait, or a running batch).

        ``waited`` marks the resume at the end of a batch window: its first
        chunk goes out without opening another window.  A failure may have
        flushed the queue during the window, and the device recovered since;
        then nothing is left to run.
        """
        rt = self.rt
        key = (module_name, host)
        queue = self._queues[key]
        while queue:
            if host not in self._live:
                self._flush_queue(key)
                break
            if not waited and rt.batch_window_s > 0 and len(queue) < rt.max_batch_size:
                self._loop.push(rt.batch_window_s, self._server_drain, module_name, host, True)
                return
            waited = False
            if self._server_chunk(module_name, host):
                continue
            return
        self._active_servers.discard(key)

    def _server_chunk(self, module_name: str, host: str) -> bool:
        """Extract and submit one micro-batch.

        True means "loop again now" (the chunk re-routes because a
        migration moved the module); False means the server is suspended
        until the batch's slot grant / service completes.
        """
        rt = self.rt
        queue = self._queues[(module_name, host)]
        chunk = queue[: rt.max_batch_size]
        del queue[: rt.max_batch_size]
        for job in chunk:
            self._drop_backlog(host, job)
        if not self._devices[host].hosts(module_name):
            self._notify_chunk(host, chunk, False)
            return True
        infos = self._infos
        best = chunk[0]
        best_scale = infos[best[_MODEL]].spec.scale_for(module_name)
        for job in chunk[1:]:
            scale = infos[job[_MODEL]].spec.scale_for(module_name)
            if scale > best_scale:
                best, best_scale = job, scale
        service = self._slow[host] * self._batch_service(
            module_name, host, best[_MODEL], len(chunk)
        )
        submitted = self._loop.now
        if self._slot_used[host] < self._slot_cap[host]:
            self._slot_used[host] += 1
            self._loop.push(
                0.0, self._server_granted, module_name, host, chunk, service, submitted
            )
        else:
            self._slot_waiters[host].append(
                (module_name, host, chunk, service, submitted)
            )
        self._state_version += 1
        return False

    def _server_granted(
        self, module_name: str, host: str, chunk: list, service: float, submitted: float
    ) -> None:
        self._loop.push(
            service, self._server_done, module_name, host, chunk, submitted, self._loop.now
        )

    def _server_done(
        self, module_name: str, host: str, chunk: list, submitted: float, start: float
    ) -> None:
        waiters = self._slot_waiters[host]
        if waiters:
            self._loop.push(0.0, self._server_granted, *waiters.popleft())
        else:
            self._slot_used[host] -= 1
        self._state_version += 1
        if self._track_energy:
            self._busy_intervals.setdefault(host, []).append((start, self._loop.now))
        lost = host not in self._live or any(
            submitted <= t <= self._loop.now for t in self._fail_times.get(host, ())
        )
        self._notify_chunk(host, chunk, not lost)
        self._server_drain(module_name, host)

    def _notify_chunk(self, host: str, chunk: list, ok: bool) -> None:
        """Schedule the per-job completion broadcast for a chunk.

        Jobs already resumed by their retry watchdog are skipped; the rest
        are marked ``notified`` *now*, when the batch ends, so a watchdog
        popping before the broadcast entry sees them as settled.
        """
        jobs = [job for job in chunk if not job[_NOTIFIED]]
        if not jobs:
            return
        for job in jobs:
            job[_NOTIFIED] = True
        self._loop.push(0.0, self._chunk_done, host, jobs, ok)

    def _chunk_done(self, host: str, chunk: list, ok: bool) -> None:
        """The fused per-job completion broadcast (one entry per batch)."""
        for job in chunk:
            self._job_done(job, host, ok)

    def _job_done(self, job: list, host: str, ok: bool) -> None:
        idx = job[_IDX]
        if not ok:
            self._attempt_failed(job)
        elif job[_IS_HEAD]:
            self._finish[idx] = self._loop.now
            self._unresolved -= 1
        else:
            self._loop.push(0.0, self._enc_path_done, idx, job[_PATH], host)

    def _drop_backlog(self, host: str, job: list) -> None:
        self._backlog[host] = max(0.0, self._backlog[host] - job[_EST])
        self._state_version += 1

    def _flush_queue(self, key: Tuple[str, str]) -> None:
        """Fail every queued (unstarted) job so it re-routes elsewhere."""
        queue = self._queues.get(key)
        if not queue:
            return
        jobs, queue[:] = list(queue), []
        for job in jobs:
            self._drop_backlog(key[1], job)
        self._notify_chunk(key[1], jobs, False)

    # ==================================================================
    # Retry watchdogs (RetryPolicy timeouts)
    # ==================================================================
    def _watch_fire(self, job: list) -> None:
        """The attempt's deadline passed: cancel it wherever it is.

        Still queued — dequeue it and fail the job now.  Mid-service — the
        batch keeps the device busy, but the owner is resumed immediately
        and the stale result is dropped at chunk completion (``notified``).
        Mid-transfer (not yet enqueued) — only mark ``cancelled``; the
        owner checks the flag at its next checkpoint.
        """
        if job[_NOTIFIED] or job[_CANCELLED]:
            return
        job[_CANCELLED] = True
        if job[_KEY] is None:
            return
        queue = self._queues.get(job[_KEY])
        if queue is not None:
            for pos, queued in enumerate(queue):
                if queued is job:
                    del queue[pos]
                    self._drop_backlog(job[_KEY][1], job)
                    break
        job[_NOTIFIED] = True
        self._loop.push(0.0, self._timeout_resume, job)

    def _timeout_resume(self, job: list) -> None:
        """The owner's resume after a watchdog fired: the attempt failed."""
        self._attempt_failed(job)

    # ==================================================================
    # Streaming queue-aware routing
    # ==================================================================
    def _live_pairs(self, info: _ModelInfo, module_name: str) -> List[Tuple[float, str]]:
        """(service_seconds, device) for the module's live hosts, in
        placement order.  Pure given (placement, live-set); cached per
        generation so routing scans skip the placement lookup and the
        service-cache probes."""
        key = (info.index, module_name)
        pairs = self._route_cache.get(key)
        if pairs is None:
            pairs = [
                (self._svc(info, module_name, device_name), device_name)
                for device_name in self._placement.hosts(module_name)
                if device_name in self._live
            ]
            self._route_cache[key] = pairs
        return pairs

    def _route_scored(
        self, info: _ModelInfo, module_name: str
    ) -> Optional[Tuple[str, float, float]]:
        """First-min scan of (service + wait, name); returns
        (host, service, wait) or None when no live host exists.  The wait
        is ``occupancy / capacity * service + backlog / capacity +
        reserved / capacity``, in that float op order."""
        pairs = self._live_pairs(info, module_name)
        if not pairs:
            return None
        slot_used = self._slot_used
        slot_waiters = self._slot_waiters
        slot_cap = self._slot_cap
        backlog = self._backlog
        reserved = self._reserved
        slow = self._slow
        best_total = best_name = best_service = best_wait = None
        for service, device_name in pairs:
            # The cached pairs are nominal; straggler factors are applied
            # here so routing prices the degraded speed (float op order:
            # compute_seconds, then `service * slow`).
            service = service * slow[device_name]
            capacity = slot_cap[device_name]
            outstanding = slot_used[device_name] + len(slot_waiters[device_name])
            wait = (
                outstanding / capacity * service
                + backlog[device_name] / capacity
                + reserved[device_name] / capacity
            )
            total = service + wait
            if (
                best_name is None
                or total < best_total
                or (total == best_total and device_name < best_name)
            ):
                best_total, best_name = total, device_name
                best_service, best_wait = service, wait
        return best_name, best_service, best_wait

    def _route_module(self, info: _ModelInfo, module_name: str, reserve: bool) -> Optional[str]:
        scored = self._route_scored(info, module_name)
        if scored is None:
            return None
        host, service, _wait = scored
        if reserve:
            self._reserved[host] = self._reserved[host] + service
            self._state_version += 1
        return host

    def _release(self, device_name: str, service_seconds: float) -> None:
        # The ledger is a float sum of reserve/release pairs; IEEE-754
        # residues below a nanosecond snap to 0.0 so they never read as
        # work still in flight (scale-down eligibility compares against
        # zero).
        outstanding = self._reserved[device_name] - service_seconds
        if outstanding < 1e-9:
            outstanding = 0.0
        self._reserved[device_name] = outstanding
        self._state_version += 1

    def _queue_pressure(self, info: _ModelInfo) -> float:
        # A what-if routing: nothing is reserved (admission must not poison
        # the waits of requests it rejects), so the per-module waits
        # captured during the scan equal the waits at the chosen hosts.
        waits: Dict[str, float] = {}
        for module_name in info.module_names:
            scored = self._route_scored(info, module_name)
            if scored is None:
                return float("inf")
            waits[module_name] = scored[2]
        encoder_wait = 0.0
        for encoder_name in info.encoders:
            wait = waits[encoder_name]
            if wait > encoder_wait:
                encoder_wait = wait
        return encoder_wait + waits[info.head]

    def _isolated(self, info: _ModelInfo) -> Optional[float]:
        cached = self._isolated_cache.get(info.index)
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        hosts: Dict[str, str] = {}
        value: Optional[float] = None
        for module_name in info.module_names:
            pairs = self._live_pairs(info, module_name)
            if not pairs:
                break
            hosts[module_name] = min(pairs)[1]
        else:
            key = (info.index, tuple(hosts.values()))
            value = self._isolated_memo.get(key)
            if value is None:
                decision = RoutingDecision(request=info.proto, hosts=hosts)
                value = self._latency_model.breakdown(
                    info.proto, self._placement, routing=decision
                ).total
                self._isolated_memo[key] = value
        self._isolated_cache[info.index] = (self._generation, value)
        return value

    def _bump_generation(self) -> None:
        self._generation += 1
        self._route_cache.clear()
        self._scale_views.clear()
        self._state_version += 1

    # ------------------------------------------------------------------
    # Pure pricing caches
    # ------------------------------------------------------------------
    def _svc(self, info: _ModelInfo, module_name: str, host: str) -> float:
        key = (info.index, module_name, host)
        value = self._svc_cache.get(key)
        if value is None:
            value = self._latency_model.compute_seconds(info.proto, module_name, host)
            self._svc_cache[key] = value
        return value

    def _batch_service(self, module_name: str, host: str, model_i: int, batch: int) -> float:
        key = (module_name, host, model_i, batch)
        value = self._batch_cache.get(key)
        if value is None:
            device = self._devices[host]
            value = device.compute_model.seconds(
                self._module_specs[module_name],
                device.profile,
                model=self._infos[model_i].spec,
                batch_size=batch,
            )
            self._batch_cache[key] = value
        return value

    def _transfer_seconds(self, src: str, dst: str, payload_bytes: int) -> float:
        key = (src, dst, payload_bytes)
        value = self._transfer_cache.get(key)
        if value is None:
            value = self._network.transfer_seconds(src, dst, payload_bytes)
            self._transfer_cache[key] = value
        return value

    # ==================================================================
    # Fault injection and adaptive re-placement
    # ==================================================================
    def _fault_advance(self, i: int) -> None:
        events = self._fault_events
        loop = self._loop
        while i < len(events):
            event = events[i]
            if event.time > loop.now:
                loop.push(event.time - loop.now, self._fault_advance, i)
                return
            applied, detail, reconfigure = self._apply_fault(event)
            self._churn_log.append(
                ChurnRecord(loop.now, event.label, event.kind, applied, detail)
            )
            if reconfigure:
                decision = self._replace_decision()
                if (
                    decision is not None
                    and decision.migrate
                    and decision.new_placement is not None
                ):
                    if decision.switching_cost_seconds > 0:
                        loop.push(
                            decision.switching_cost_seconds,
                            self._fault_migrated, decision, loop.now, i,
                        )
                        return
                    self._install(decision.new_placement)
                    self._migrations.append(
                        MigrationRecord(
                            loop.now, decision.reason, decision.switching_cost_seconds
                        )
                    )
                self._signal_reconfigured()
            i += 1

    def _fault_migrated(self, decision, decided_at: float, i: int) -> None:
        self._install(decision.new_placement)
        # Stamped with the decision time so the log attributes the
        # migration to the fault event that triggered it.
        self._migrations.append(
            MigrationRecord(decided_at, decision.reason, decision.switching_cost_seconds)
        )
        self._signal_reconfigured()
        self._fault_advance(i + 1)

    def _apply_fault(self, event: FaultEvent) -> Tuple[bool, str, bool]:
        """Apply one fault; returns ``(applied, detail, reconfigure)``.

        Alongside the fault itself come the cache invalidations: straggler
        factors bump the
        routing-state version (scores change), link faults clear the
        transfer-price cache (bandwidths changed).
        """
        if event.kind == FAIL:
            applied, detail = self._apply_failure(event.device)
            if applied and event.region:
                detail = f"region {event.region}"
            return applied, detail, applied
        if event.kind == RECOVER:
            applied, detail = self._apply_recovery(event.device)
            if applied and event.region:
                detail = f"region {event.region}"
            return applied, detail, applied
        if event.kind == SLOW:
            self._slow[event.device] = event.factor
            self._state_version += 1
            return True, f"x{event.factor:g}", False
        if event.kind == SLOW_END:
            self._slow[event.device] = 1.0
            self._state_version += 1
            return True, "", False
        # Link faults: reprice through the network, then re-derive which
        # devices the requester can still reach.
        a, b = event.link  # type: ignore[misc]
        if event.kind == LINK_DEGRADE:
            self._network.degrade_link(a, b, event.factor)
            detail = "cut" if event.factor == 0.0 else f"bandwidth x{event.factor:g}"
        else:
            self._network.restore_link(a, b)
            detail = ""
        self._transfer_cache.clear()
        # Isolated estimates price transfer legs at current bandwidths, so
        # a repriced link invalidates them, and the verdicts priced from
        # them, even when the placement generation and reachability are
        # unchanged.
        self._isolated_cache.clear()
        self._isolated_memo.clear()
        self._verdicts.clear()
        changed, change_detail = self._refresh_reachability()
        if change_detail:
            detail = f"{detail}; {change_detail}" if detail else change_detail
        return True, detail, changed

    def _replace_decision(self):
        problem_now = self._live_problem()
        recent = self._recent_admits[-self.rt.recent_window:]
        if recent:
            # Built only for the window; an admit's arrival time is its
            # trace time.
            requests = [
                InferenceRequest(
                    model=self._infos[self._info_of[idx]].spec,
                    source=self._requester,
                    arrival_time=float(self._arrival_times[idx]),
                    request_id=int(self._req_ids[idx]),
                )
                for idx in recent
            ]
        else:
            requests = [self._engine.request(name) for name in self.rt.models]
        try:
            return self._controller.evaluate(problem_now, self._placement, requests)
        except PlacementError:
            # Pre-checked via _feasible; a failure here means the pool
            # changed under us — keep serving on the old placement.
            return None

    def _apply_failure(self, device_name: str) -> Tuple[bool, str]:
        if device_name == self.rt.requester:
            return False, "requester never fails"
        if device_name in self._crashed:
            return False, "already failed"
        remaining = [
            n for n in self._device_names if n in self._live and n != device_name
        ]
        if not self._feasible(remaining):
            return False, "placement infeasible without it"
        self._crashed.add(device_name)
        if device_name in self._live:
            self._lose_device(device_name)
        return True, ""

    def _apply_recovery(self, device_name: str) -> Tuple[bool, str]:
        if device_name not in self._crashed:
            if device_name not in self._devices:
                return False, "unknown device"
            if device_name in self._live:
                return False, "already live"
            return False, "partitioned, not failed"
        self._crashed.discard(device_name)
        if not self._requester_reaches(device_name):
            # Back up, but marooned behind a cut link: it rejoins the live
            # pool when the partition heals (reachability refresh).
            return True, "recovered but still partitioned"
        self._live.add(device_name)
        self._bump_generation()
        return True, ""

    def _lose_device(self, device_name: str) -> None:
        """Remove a device from the live pool: flush its queues and stamp
        the loss so in-flight batches detect it at completion."""
        self._live.discard(device_name)
        self._bump_generation()
        self._fail_times.setdefault(device_name, []).append(self._loop.now)
        for key in list(self._queues):
            if key[1] == device_name:
                self._flush_queue(key)

    def _requester_reaches(self, device_name: str) -> bool:
        if device_name == self._requester:
            return True
        return device_name in self._network.reachable_from(self._requester)

    def _refresh_reachability(self) -> Tuple[bool, str]:
        """Reconcile the live pool with requester-side reachability after a
        link change.  Partitioned devices leave exactly like failures
        (queues flushed, in-flight work lost); devices that are alive and
        newly reachable rejoin.  Returns whether the pool changed, plus a
        log detail."""
        reachable = self._network.reachable_from(self._requester)
        lost = [
            n for n in self._device_names
            if n in self._live and n != self._requester and n not in reachable
        ]
        gained = [
            n for n in self._device_names
            if n not in self._live and n not in self._crashed and n in reachable
        ]
        for name in lost:
            self._lose_device(name)
        for name in gained:
            self._live.add(name)
        if gained:
            self._bump_generation()
        parts = []
        if lost:
            parts.append("partitioned: " + ", ".join(lost))
        if gained:
            parts.append("rejoined: " + ", ".join(gained))
        return bool(lost or gained), "; ".join(parts)

    def _install(self, placement: Placement) -> None:
        """Materialize ``placement`` on the live devices (unload then load)."""
        assignment = placement.as_dict()
        for name in self._device_names:
            if name not in self._live:
                continue  # failed devices keep their weights for a comeback
            device = self._devices[name]
            keep = {m for m, hosts in assignment.items() if name in hosts}
            for loaded_name in list(device.loaded):
                if loaded_name not in keep:
                    device.unload(loaded_name)
            for module_name in sorted(keep):
                if not device.hosts(module_name):
                    device.load(self._module_specs[module_name])
        self._placement = placement
        self._bump_generation()

    def _problem_for(self, device_names: Sequence[str]) -> PlacementProblem:
        key = tuple(device_names)
        problem = self._problem_cache.get(key)
        if problem is None:
            problem = PlacementProblem(
                modules=self._engine.problem.modules,
                devices=tuple(self._devices[name].profile for name in device_names),
                models=self._engine.problem.models,
            )
            self._problem_cache[key] = problem
        return problem

    def _live_problem(self) -> PlacementProblem:
        return self._problem_for([n for n in self._device_names if n in self._live])

    def _feasible(self, live_names: Sequence[str]) -> bool:
        if not live_names:
            return False
        try:
            greedy_placement(self._problem_for(live_names))
        except PlacementError:
            return False
        return True

    def _signal_reconfigured(self) -> None:
        waiters, self._reconfig_waiters = self._reconfig_waiters, []
        self._loop.push(0.0, self._reconfig_broadcast, waiters)

    def _reconfig_broadcast(self, waiters: List[tuple]) -> None:
        for handler, *args in waiters:
            handler(*args)

    # ==================================================================
    # Brownout controller (graceful load shedding)
    # ==================================================================
    def _brownout_ranking(self) -> List[str]:
        """Model classes ordered by SLO slack, smallest first.

        Slack = deadline minus isolated latency on the fresh deployment —
        the classes already closest to their deadlines are shed first.
        Scoring uses ``request_id=-1`` prototypes, so ranking never draws
        from the process-global request-id counter.
        """
        slacks = []
        for spec in self._engine.problem.models:
            info = self._info_for(spec.name)
            isolated = self._isolated(info)
            iso = isolated if isolated is not None else 0.0
            slacks.append((self.rt.slo.slo_for(iso) - iso, spec.name))
        slacks.sort()
        return [name for _, name in slacks]

    def _brownout_pressure(self) -> float:
        """Cluster backlog pressure: queued-but-unstarted service-seconds
        per live compute slot (inf while no device is live)."""
        queued = 0.0
        capacity = 0
        for name in self._device_names:
            if name not in self._live:
                continue
            queued += self._backlog[name]
            capacity += self._slot_cap[name]
        return queued / capacity if capacity else float("inf")

    def _brownout_assess(self, now: float) -> None:
        """One hysteresis step: raise the shed level above the high-water
        pressure, lower it at or below the low-water mark, and always keep
        at least one model class admitted."""
        policy = self.rt.brownout
        pressure = self._brownout_pressure()
        level = self._brownout_level
        if pressure > policy.high_backlog_s:
            level += 1
        elif pressure <= policy.low_backlog_s:
            level -= 1
        cap = len(self._brownout_rank) - 1
        if policy.max_level is not None:
            cap = min(cap, policy.max_level)
        level = max(0, min(level, cap))
        if level != self._brownout_level:
            self._brownout_level = level
            shed = tuple(self._brownout_rank[:level])
            self._brownout_shed = frozenset(shed)
            self._brownout_log.append(BrownoutRecord(now, level, pressure, shed))

    def _brownout_gate(self) -> None:
        if self._unresolved > 0:
            self._loop.push(self.rt.brownout.interval_s, self._brownout_tick)

    def _brownout_tick(self) -> None:
        if self._unresolved <= 0:
            return
        self._brownout_assess(self._loop.now)
        if self._unresolved > 0:
            self._loop.push(self.rt.brownout.interval_s, self._brownout_tick)

    # ==================================================================
    # Serving-layer replica autoscaling
    # ==================================================================
    def _autoscale_gate(self) -> None:
        self._idle_rounds: Dict[str, int] = {}
        if self._unresolved > 0:
            self._loop.push(self.rt.autoscale_interval_s, self._autoscale_tick)

    def _autoscale_tick(self) -> None:
        rt = self.rt
        if self._unresolved <= 0:
            return
        idle_rounds = self._idle_rounds
        queues = self._queues
        for module_name in self._sorted_modules:
            # Looked up per module, never once per tick: a scale-down below
            # unloads its victim and bumps the generation mid-tick, which
            # can change ``can_load`` for the modules after it.
            keys, capacity, plan = self._scale_view(module_name)
            queued = 0.0
            for key in keys:
                for job in queues.get(key, ()):
                    queued += job[_EST]
            pressure = queued / capacity if keys else 0.0
            if pressure > rt.scale_up_backlog_s:
                idle_rounds[module_name] = 0
                # An add may cost at most the queued work it relieves.
                if (
                    plan is not None
                    and plan[1] <= queued
                    and module_name not in self._pending_adds
                ):
                    chosen, cost = plan
                    self._pending_adds.add(module_name)
                    detail = f"backlog {pressure:.2f}s/slot > {rt.scale_up_backlog_s:.2f}s"
                    self._loop.push(
                        0.0, self._scale_up_start, module_name, chosen, cost, detail
                    )
            elif pressure == 0.0:
                idle_rounds[module_name] = idle_rounds.get(module_name, 0) + 1
                if idle_rounds[module_name] >= rt.scale_down_idle_rounds:
                    self._scale_down(module_name)
                    idle_rounds[module_name] = 0
            else:
                idle_rounds[module_name] = 0
        if self._unresolved > 0:
            self._loop.push(rt.autoscale_interval_s, self._autoscale_tick)

    def _scale_view(self, module_name: str) -> _ScaleView:
        """The autoscaler's per-module view, cached until the next
        generation bump."""
        view = self._scale_views.get(module_name)
        if view is None:
            view = self._scale_views[module_name] = self._build_scale_view(module_name)
        return view

    def _build_scale_view(self, module_name: str) -> _ScaleView:
        """``(queue keys, slot capacity, plan)`` over the module's live hosts
        in placement order.  ``plan`` is the scale-up add ``(chosen, load
        seconds)``, or None when the module is at ``max_replicas``, has no
        live host (churn re-placement owns that case) or no live non-host
        that fits it within ``scale_up_speed_ratio`` of its fastest host.
        Pure in (placement, live set, device memory)."""
        hosts = self._placement.hosts(module_name)
        live_hosts = [h for h in hosts if h in self._live]
        keys = tuple((module_name, h) for h in live_hosts)
        capacity = sum(self._slot_cap[h] for h in live_hosts)
        if not live_hosts or len(hosts) >= self.rt.max_replicas:
            return keys, capacity, None
        module = self._module_specs[module_name]
        problem = self._engine.problem
        limit = self.rt.scale_up_speed_ratio * min(
            problem.compute_seconds(module, self._devices[h].profile)
            for h in live_hosts
        )
        candidates = []
        for name in self._device_names:
            device = self._devices[name]
            if name in self._live and name not in hosts and device.can_load(module):
                seconds = problem.compute_seconds(module, device.profile)
                if seconds <= limit:
                    candidates.append((seconds, name))
        if not candidates:
            return keys, capacity, None
        chosen = min(candidates)[1]
        cost = problem.compute_model.load_seconds(module, self._devices[chosen].profile)
        return keys, capacity, (chosen, cost)

    def _scale_up_start(self, module_name: str, chosen: str, cost: float, detail: str) -> None:
        decided_at = self._loop.now
        if cost > 0:
            self._loop.push(
                cost, self._scale_up_finish, module_name, chosen, cost, detail, decided_at
            )
        else:
            self._scale_up_finish(module_name, chosen, cost, detail, decided_at)

    def _scale_up_finish(
        self, module_name: str, chosen: str, cost: float, detail: str, decided_at: float
    ) -> None:
        device = self._devices[chosen]
        module = self._module_specs[module_name]
        if (
            chosen not in self._live
            or not device.can_load(module)
            or chosen in self._placement.hosts(module_name)
            or len(self._placement.hosts(module_name)) >= self.rt.max_replicas
        ):
            self._scaling_log.append(
                ScalingRecord(
                    decided_at, "add", module_name, chosen, cost, False,
                    "aborted: candidate failed or filled up during the load window",
                )
            )
        else:
            device.load(module)
            self._placement = self._placement.with_extra(module_name, chosen)
            self._bump_generation()
            self._scaling_log.append(
                ScalingRecord(decided_at, "add", module_name, chosen, cost, True, detail)
            )
        self._pending_adds.discard(module_name)

    def _scale_down(self, module_name: str) -> None:
        rt = self.rt
        hosts = self._placement.hosts(module_name)
        live_hosts = [h for h in hosts if h in self._live]
        if len(hosts) <= 1 or len(live_hosts) <= 1:
            return
        module = self._module_specs[module_name]
        problem = self._engine.problem
        droppable = [
            h for h in live_hosts
            if not self._queues.get((module_name, h))
            and self._reserved.get(h, 0.0) == 0.0
        ]
        if not droppable:
            return
        victim = max(
            droppable,
            key=lambda name: (
                problem.compute_seconds(module, self._devices[name].profile),
                name,
            ),
        )
        self._devices[victim].unload(module_name)
        self._placement = Placement(
            {
                name: (tuple(h for h in hs if h != victim) if name == module_name else hs)
                for name, hs in self._placement.as_dict().items()
            }
        )
        self._bump_generation()
        self._scaling_log.append(
            ScalingRecord(
                self._loop.now, "drop", module_name, victim, 0.0, True,
                f"idle for {rt.scale_down_idle_rounds} rounds",
            )
        )

    # ==================================================================
    # Energy accounting
    # ==================================================================
    def _charge_radio(self, src: str, dst: str, payload_bytes: int) -> None:
        if not self._track_energy or src == dst:
            return
        self._radio_joules[src] = self._radio_joules.get(src, 0.0) + (
            self._energy_profiles[src].transfer_joules(payload_bytes)
        )
        self._radio_joules[dst] = self._radio_joules.get(dst, 0.0) + (
            self._energy_profiles[dst].transfer_joules(payload_bytes)
        )

    def _energy_report(self) -> EnergyReport:
        horizon = self._loop.now
        devices = []
        for name in self._device_names:
            profile = self._energy_profiles[name]
            active_s = merged_busy_seconds(self._busy_intervals.get(name, ()), horizon)
            idle_s = max(0.0, horizon - active_s)
            devices.append(
                DeviceEnergy(
                    device=name,
                    active_s=active_s,
                    idle_s=idle_s,
                    active_j=profile.active_watts * active_s,
                    idle_j=profile.idle_watts * idle_s,
                    radio_j=self._radio_joules.get(name, 0.0),
                )
            )
        return EnergyReport(horizon_s=horizon, devices=tuple(devices))

    # ==================================================================
    # Report
    # ==================================================================
    def _assemble_report(self, trace: ArrivalTrace) -> ServingReport:
        rt = self.rt
        records: Tuple[RequestRecord, ...] = ()
        if rt.keep_records:
            # tolist() converts each column to plain Python scalars in one
            # pass; per-element numpy indexing is ~10x slower at 1M rows.
            ids = self._req_ids.tolist()
            times = self._arrival_times.tolist()
            slos = self._slo.tolist()
            admits = self._admitted.tolist()
            finishes = self._finish.tolist()
            retries = self._retries.tolist()
            touts = self._timed_out.tolist()
            records = tuple(
                RequestRecord(
                    request_id=ids[i],
                    model_name=self._arrival_models[i],
                    arrival_time=times[i],
                    slo_s=slos[i],
                    admitted=admits[i],
                    rejected_reason=self._rejected[i],
                    # NaN != NaN: the only unfinished markers are NaN.
                    finish_time=finishes[i] if finishes[i] == finishes[i] else None,
                    retries=retries[i],
                    timed_out=touts[i],
                )
                for i in range(len(self._arrival_models))
            )
        return build_report_arrays(
            trace.kind,
            trace.duration_s,
            trace.seed,
            request_ids=self._req_ids,
            arrival_times=self._arrival_times,
            slo_s=self._slo,
            admitted=self._admitted,
            finish_times=self._finish,
            retries=self._retries,
            rejected=np.array([r is not None for r in self._rejected], dtype=bool),
            timed_out=self._timed_out,
            migrations=self._migrations,
            churn=self._churn_log,
            energy=self._energy_report() if self._track_energy else None,
            scaling=self._scaling_log,
            brownout=self._brownout_log,
            records=records,
        )
