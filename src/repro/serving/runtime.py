"""The online serving runtime: streaming requests, SLOs, churn, re-placement.

This is the continuous-serving counterpart of the one-shot batch executors
in :mod:`repro.core.routing`.  A :class:`ServingRuntime` drives the
discrete-event :class:`~repro.sim.Simulator` with an arrival trace from
:mod:`repro.serving.workload` and serves every request through:

1. **Admission** — the SLO policy (:mod:`repro.serving.slo`) prices the
   request (isolated Eq. 1-3 latency + live queue pressure) and rejects it
   at arrival if it is predicted to miss its deadline.
2. **Queue-aware routing** — a streaming extension of
   :class:`~repro.core.routing.queue_aware.QueueAwareRouter` that only
   considers *live* hosts and folds the micro-batcher's backlog into the
   wait estimate.
3. **Micro-batched execution** — per ``(module, device)`` server loops
   drain their queues in FIFO chunks of up to ``max_batch_size`` and run
   each chunk as ONE batched service (footnote 4 scaling via
   :func:`~repro.core.routing.batching.batched_service_time` semantics),
   which is how a burst of requests sharing a vision encoder amortizes it.
4. **Fault handling** — injected faults (:mod:`repro.serving.faults`,
   generalizing the fail/recover churn of :mod:`repro.serving.churn`)
   flush a lost device's queues, mark in-flight work lost (detected at
   service completion, like a timeout), and trigger the
   :class:`~repro.core.placement.adaptive.AdaptivePlacementController`:
   stranded modules force a migration whose switching cost is charged as
   simulated re-loading delay before the new placement takes effect.
   Straggler (``slow``) faults scale a device's compute times and are
   priced into routing and batching; link faults reprice (or cut)
   transfers through :class:`~repro.cluster.network.Network`, and devices
   partitioned away from the requester leave the live pool exactly like
   failures until connectivity returns.  Affected requests re-route and
   retry — **no request is ever lost or double-counted**: every arrival
   terminates as completed, rejected, or (retry budget exhausted under a
   :class:`~repro.serving.slo.RetryPolicy`) timed out.

All times are **seconds** of simulated time; payload sizes are **bytes**.

Modeling assumptions (documented, load-bearing):

- Failure detection happens at operation completion: work in flight on a
  device when it fails runs to its scheduled end, is then discarded and
  retried elsewhere (the detection delay stands in for a timeout) — unless
  a :class:`~repro.serving.slo.RetryPolicy` timeout fires first and
  cancels the attempt outright.
- Encoder outputs are durably cached once produced, so a head-side retry
  re-ships embeddings without re-running the encoder.
- The requester device never fails (it holds the input data); a partition
  is measured from the requester's side of the network.
- SLO deadlines and autoscale planning use *nominal* hardware speeds: a
  straggler does not earn its requests longer deadlines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.cluster.topology import build_testbed
from repro.core.engine import PlacementAlgorithm, S2M3Engine
from repro.core.placement.adaptive import AdaptivePlacementController
from repro.core.placement.greedy import greedy_placement
from repro.core.placement.problem import Placement, PlacementProblem
from repro.core.routing.executor import UplinkPool, transfer_proc
from repro.core.routing.latency import RoutingDecision
from repro.core.routing.queue_aware import QueueAwareRouter
from repro.profiles.devices import edge_device_names
from repro.serving.churn import FAIL, RECOVER, DeviceChurnEvent
from repro.serving.faults import (
    LINK_DEGRADE,
    LINK_RESTORE,
    SLOW,
    SLOW_END,
    BrownoutPolicy,
    FaultEvent,
    FaultPlan,
    compile_faults,
)
from repro.profiles.energy import resolve_energy_profile
from repro.serving.report import (
    BrownoutRecord,
    ChurnRecord,
    DeviceEnergy,
    EnergyReport,
    MigrationRecord,
    RequestRecord,
    ScalingRecord,
    ServingReport,
    build_report,
    merged_busy_seconds,
)
from repro.serving.slo import RetryPolicy, SLOPolicy
from repro.serving.workload import ArrivalTrace
from repro.sim import Event
from repro.sim.trace import CATEGORY_COMPUTE, CATEGORY_HEAD
from repro.utils.errors import PlacementError


class StreamingQueueAwareRouter(QueueAwareRouter):
    """Queue-aware routing for a live stream.

    Extends the burst router with three stream-specific signals, so every
    replica of a module is priced by a reservation-aware cost:

    - candidates are filtered to the *live* device set (churn-aware);
    - the wait estimate adds the micro-batcher's queued-but-unstarted
      backlog (in service-seconds) — the exact ledger of routed work that
      has already reached a queue;
    - it keeps an exact ledger of **in-flight reservations** for work that
      has been *routed but not yet enqueued* (crossing the uplink between
      routing and the micro-batcher).  Without them, a burst of
      simultaneous arrivals all route before any queue forms and pile onto
      the single cheapest replica.  Unlike the burst router's time-decaying
      bucket, streaming reservations do not decay: each one is released
      exactly when its job lands in a queue and the backlog ledger takes
      over, so decay would only double-drain the estimate.

    Ties break toward the smaller (score, device name) pair — equal-cost
    replicas resolve deterministically by name.
    """

    def __init__(
        self,
        cluster,
        latency_model,
        placement,
        live: Set[str],
        backlog: Dict[str, float],
        slow: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__(cluster, latency_model, placement)
        self._live = live
        self._backlog = backlog
        # Straggler fault factors (1.0 = nominal); routing prices the
        # *degraded* speed so slowed replicas shed load to healthy ones.
        self._slow = slow if slow is not None else {}

    def reserved_seconds(self, device_name: str) -> float:
        """In-flight reserved service-**seconds** against ``device_name``.

        Overrides the burst router's leaky-bucket read with an **exact**
        ledger: every streaming reservation is released the moment its job
        reaches a micro-batch queue (the runtime's ``_enqueue``), so
        nothing should decay in between — time-decaying here *and*
        releasing the full amount later would double-drain the shared
        bucket and under-report work still crossing the uplink.
        """
        state = self._reservations.get(device_name)
        return state[1] if state is not None else 0.0

    def estimated_wait(self, device_name: str, service_seconds: float) -> float:
        """Expected queueing delay (**seconds**) for a new arrival needing
        ``service_seconds`` on ``device_name``: live slot occupancy, plus
        the micro-batch backlog, plus in-flight reservations."""
        device = self.cluster.device(device_name)
        outstanding = device.slots.in_use + device.slots.queue_length
        live_wait = outstanding / device.slots.capacity * service_seconds
        backlog = self._backlog.get(device_name, 0.0) / device.slots.capacity
        reserved = self.reserved_seconds(device_name) / device.slots.capacity
        return live_wait + backlog + reserved

    def release(self, device_name: str, service_seconds: float) -> None:
        """Release an in-flight reservation: the routed work reached a
        micro-batch queue, so the backlog ledger now accounts for it.

        Residues below a nanosecond snap to exactly 0.0: the ledger is a
        float sum of reserve/release pairs, and IEEE-754 subtraction can
        leave ~1e-17 remainders that would otherwise read as "work still
        in flight" forever (the scale-down eligibility check compares
        against zero).
        """
        outstanding = self.reserved_seconds(device_name) - service_seconds
        if outstanding < 1e-9:
            outstanding = 0.0
        self._reservations[device_name] = (self.cluster.sim.now, outstanding)

    def route_module(
        self, request: InferenceRequest, module_name: str, reserve: bool = False
    ) -> Optional[str]:
        """Best live host for one module, or None while none is live.

        With ``reserve=True`` (the actual routing step, not a what-if
        estimate) the chosen host is charged an in-flight reservation for
        the module's service seconds; the caller must :meth:`release` it
        when the job is enqueued (the runtime does this in ``_enqueue``).
        """
        candidates = [
            device_name
            for device_name in self.placement.hosts(module_name)
            if device_name in self._live
        ]
        if not candidates:
            return None
        scored = []
        for device_name in candidates:
            service = self.latency_model.compute_seconds(request, module_name, device_name)
            service = service * self._slow.get(device_name, 1.0)
            wait = self.estimated_wait(device_name, service)
            scored.append((service + wait, device_name, service))
        _, chosen, service = min(scored)
        if reserve:
            self.reserve(chosen, service)
        return chosen

    def __call__(self, request: InferenceRequest) -> Optional[RoutingDecision]:
        """A what-if routing of the whole request (admission pricing).

        Never reserves — admission control must not poison the wait
        estimates of requests it ends up rejecting.
        """
        hosts: Dict[str, str] = {}
        for module_name in request.model.module_names:
            host = self.route_module(request, module_name)
            if host is None:
                return None
            hosts[module_name] = host
        return RoutingDecision(request=request, hosts=hosts)


@dataclass(eq=False)
class _Job:
    """One module *attempt* owed to a request.

    Identity-compared (``eq=False``): the watchdog's dequeue must remove
    *this* job, never a value-equal sibling attempt.

    Created at routing time (so a retry-policy watchdog can cover the
    transfer leg too).  ``cancelled`` is set by the watchdog — the attempt
    is abandoned wherever it is (mid-transfer, queued, or mid-service);
    ``notified`` guards the one-shot ``done`` event against double firing
    (watchdog vs. batch completion vs. queue flush); ``key`` is the
    micro-batch queue the job sits in once enqueued (None before)."""

    request: InferenceRequest
    done: Event
    est_service: float
    cancelled: bool = False
    notified: bool = False
    key: Optional[Tuple[str, str]] = None


class ServingRuntime:
    """Continuous serving of an arrival trace on a fresh testbed cluster.

    Args:
        models: Catalog model names to deploy (the workload draws from these).
        device_names: Cluster devices; defaults to the paper's four-device
            edge pool.  The ``requester`` always participates.
        requester: Source device holding every request's input data.
        slo: Deadline/admission policy; defaults to :class:`SLOPolicy`.
        max_batch_size: Micro-batcher chunk cap (requests per batched service).
        batch_window_s: Optional accumulation window in seconds — a server
            with a sub-capacity queue waits this long before draining, so
            near-simultaneous arrivals share a batch.  0 disables it.
        replicate: Run the leftover-memory replication pass at deployment so
            queue-aware routing has replicas to spread load over.
        adapt_expected_requests: Hysteresis volume for the churn controller —
            a migration must amortize its switching cost over this many
            requests (see :class:`AdaptivePlacementController`).
        recent_window: How many recently admitted requests price a candidate
            re-placement (falls back to one request per model when empty).
        autoscale: Run the serving-layer replica autoscaler: a periodic
            control loop (every ``autoscale_interval_s`` simulated seconds)
            that **adds** a replica of any module whose queued-but-unstarted
            backlog exceeds ``scale_up_backlog_s`` service-seconds per slot
            of its live hosts — charging the module's load time as a
            switching cost before the new copy serves, exactly like churn
            migrations — and **drops** an idle surplus replica after
            ``scale_down_idle_rounds`` consecutive zero-backlog rounds
            (drops are free: unloading is instant and only queried-empty
            hosts are eligible, so no queued work is lost and the
            conservation guarantee is untouched).  Decisions are logged as
            :class:`~repro.serving.report.ScalingRecord` entries in
            ``ServingReport.scaling``.
        autoscale_interval_s: Control-loop period in **seconds** of
            simulated time.
        scale_up_backlog_s: Scale-up threshold in queued service-**seconds**
            per live slot; ``None`` derives it from the SLO policy as
            ``0.5 * slo.floor_s`` (scale out before queueing alone eats
            half the deadline floor).
        scale_down_idle_rounds: Consecutive idle control rounds before a
            surplus replica is dropped.
        scale_up_speed_ratio: Candidate-device guard (dimensionless): a new
            replica's planning compute time may be at most this multiple of
            the module's fastest live host.  Keeps an overload from scaling
            a heavy encoder onto a pathologically slow device whose long
            services then dominate the tail.
        max_replicas: Upper bound on a module's host-set size (memory
            guard; counts failed hosts too — their weights stay resident).
        engine: Which serving core drives the run.  ``"flat"`` (default)
            is the vectorized event loop of
            :class:`~repro.serving.engine.FlatServingEngine` — per-request
            state in numpy columns, continuations as plain callbacks —
            which replays the same semantics orders of magnitude faster;
            ``"processes"`` is the original generator-process engine, kept
            as the bit-identity oracle.  Same config + trace + churn ⇒
            identical :class:`~repro.serving.report.ServingReport` from
            either engine.
        max_events: Optional livelock cap forwarded to the event loop;
            ``None`` (default) derives it from the scheduled work (see
            :func:`repro.sim.simulator.default_max_events`).
        keep_records: Keep the per-request :class:`RequestRecord` tuple on
            the report.  ``False`` drops it after aggregation — the
            memory-saving choice for million-arrival replays where only
            the aggregate metrics matter.
        track_energy: Account per-device energy during the run (see
            :class:`~repro.serving.report.EnergyReport`): active joules over
            the union of compute/head spans, idle joules (``idle_watts``)
            over the rest of the wall-clock horizon — failed devices keep
            drawing idle power, they leave rather than power off — and
            per-byte radio joules on both endpoints of every input and
            embedding transfer (co-located hops free, matching
            :mod:`repro.profiles.energy`).  Deployment-phase model loading
            is out of scope: the ledger covers the serving run itself.
        retry: Per-attempt timeout / bounded-retry / backoff policy
            (:class:`~repro.serving.slo.RetryPolicy`).  The default policy
            (no timeout, unlimited retries, no backoff) reproduces the
            pre-policy runtime bit-for-bit; with ``timeout_s`` set, every
            module attempt races a watchdog and a request whose retry
            budget runs out terminates as *timed out* (the report's third
            terminal state).
        brownout: Optional :class:`~repro.serving.faults.BrownoutPolicy`.
            When set, a periodic controller watches backlog pressure and
            sheds arrivals of the lowest-SLO-slack model classes first
            (tiered admission) instead of letting every queue collapse;
            level changes are logged in ``ServingReport.brownout``.
        congestion_aware: Plan the deployment with the queue-aware exact
            solver instead of greedy Algorithm 1: arrival rates measured
            from the trace (:meth:`CongestionModel.from_trace`) price each
            device's M/G/1-style expected wait into the placement
            objective, so the solver optimizes what ``serve`` measures
            under load rather than empty-cluster latency (see
            ``docs/placement.md``).  Both engines plan identically —
            reports stay bit-identical across ``engine="flat"`` and
            ``engine="processes"``.
        placement_algorithm: Custom planner forwarded to
            :class:`~repro.core.engine.S2M3Engine` (mutually exclusive
            with ``congestion_aware``, which installs its own).

    Every ``run`` builds a fresh cluster and simulator (clock at 0), so the
    same runtime object can serve many traces; with identical arguments and
    an identical trace the resulting report metrics are identical too.
    """

    def __init__(
        self,
        models: Sequence[str],
        device_names: Optional[Sequence[str]] = None,
        requester: str = "jetson-a",
        slo: Optional[SLOPolicy] = None,
        max_batch_size: int = 8,
        batch_window_s: float = 0.0,
        replicate: bool = True,
        adapt_expected_requests: int = 20,
        recent_window: int = 32,
        autoscale: bool = False,
        autoscale_interval_s: float = 0.5,
        scale_up_backlog_s: Optional[float] = None,
        scale_down_idle_rounds: int = 6,
        scale_up_speed_ratio: float = 3.0,
        max_replicas: int = 3,
        engine: str = "flat",
        max_events: Optional[int] = None,
        keep_records: bool = True,
        track_energy: bool = True,
        retry: Optional[RetryPolicy] = None,
        brownout: Optional[BrownoutPolicy] = None,
        congestion_aware: bool = False,
        placement_algorithm: Optional[PlacementAlgorithm] = None,
    ) -> None:
        if not models:
            raise ValueError("need at least one model to serve")
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        # Written as negated comparisons so NaN fails them too.
        if not 0 <= batch_window_s < math.inf:
            raise ValueError(
                f"batch_window_s must be finite and non-negative, got {batch_window_s}"
            )
        if not 0 < autoscale_interval_s < math.inf:
            raise ValueError(
                f"autoscale_interval_s must be finite and positive, got {autoscale_interval_s}"
            )
        if scale_up_backlog_s is not None and not scale_up_backlog_s > 0:
            raise ValueError(f"scale_up_backlog_s must be positive, got {scale_up_backlog_s}")
        if scale_down_idle_rounds < 1:
            raise ValueError(f"scale_down_idle_rounds must be >= 1, got {scale_down_idle_rounds}")
        if not scale_up_speed_ratio >= 1:
            raise ValueError(f"scale_up_speed_ratio must be >= 1, got {scale_up_speed_ratio}")
        if max_replicas < 1:
            raise ValueError(f"max_replicas must be >= 1, got {max_replicas}")
        if engine not in ("flat", "processes"):
            raise ValueError(f"engine must be 'flat' or 'processes', got {engine!r}")
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        if congestion_aware and placement_algorithm is not None:
            raise ValueError(
                "congestion_aware installs its own placement algorithm; "
                "pass one or the other, not both"
            )
        self.models = list(models)
        self.device_names = list(device_names) if device_names is not None else edge_device_names()
        self.requester = requester
        self.slo = slo if slo is not None else SLOPolicy()
        self.max_batch_size = max_batch_size
        self.batch_window_s = batch_window_s
        self.replicate = replicate
        self.adapt_expected_requests = adapt_expected_requests
        self.recent_window = recent_window
        self.autoscale = autoscale
        self.autoscale_interval_s = autoscale_interval_s
        if scale_up_backlog_s is not None:
            self.scale_up_backlog_s = scale_up_backlog_s
        else:
            # SLOPolicy allows floor_s == 0; keep the derived threshold
            # positive (the constructor's invariant) with a 0.5 s fallback
            # so zero-floor policies don't scale out on microscopic backlog.
            derived = 0.5 * self.slo.floor_s
            self.scale_up_backlog_s = derived if derived > 0 else 0.5
        self.scale_down_idle_rounds = scale_down_idle_rounds
        self.scale_up_speed_ratio = scale_up_speed_ratio
        self.max_replicas = max_replicas
        self.engine = engine
        self.max_events = max_events
        self.keep_records = keep_records
        self.track_energy = track_energy
        self.retry = retry if retry is not None else RetryPolicy()
        self.brownout = brownout
        self.congestion_aware = congestion_aware
        self.placement_algorithm = placement_algorithm

    # ==================================================================
    # Deployment (shared by both engines)
    # ==================================================================
    def _deploy_engine(self, cluster, trace: ArrivalTrace) -> S2M3Engine:
        """Build, plan, and deploy the S2M3 engine for one run.

        The single deployment path for both serving cores, so planner
        choices (``congestion_aware``, ``placement_algorithm``) cannot
        fork the engines: identical config + trace ⇒ identical placement.
        """
        algorithm = self.placement_algorithm
        if self.congestion_aware:
            # Imported lazily to keep the core solver stack out of the
            # serving module's import graph unless the flag is used.
            from repro.core.placement.optimal import optimal_placement
            from repro.core.placement.tensors import CongestionModel

            congestion = CongestionModel.from_trace(trace)

            def algorithm(problem: PlacementProblem) -> Placement:
                # request_id=-1 keeps solver-only scoring requests from
                # bumping the process-global request counter (bit-identity
                # of served request ids across configurations).
                requests = [
                    InferenceRequest(model=spec, source=cluster.requester, request_id=-1)
                    for spec in problem.models
                ]
                placement, _ = optimal_placement(
                    problem, requests, network=cluster.network, congestion=congestion
                )
                return placement

        engine = S2M3Engine(
            cluster, self.models, replicate=self.replicate,
            placement_algorithm=algorithm,
        )
        engine.deploy()
        return engine

    # ==================================================================
    # Run
    # ==================================================================
    def run(
        self,
        trace: ArrivalTrace,
        churn_events: Iterable[DeviceChurnEvent] = (),
        faults: Optional[FaultPlan] = None,
    ) -> ServingReport:
        """Serve ``trace`` (optionally under churn/faults); returns the report.

        ``churn_events`` (legacy fail/recover deltas) and ``faults`` (a
        typed :class:`~repro.serving.faults.FaultPlan` adding stragglers,
        link faults and regional outages) merge into one time-sorted
        injection stream.  The plan is validated against the device pool
        and network topology *before* any serving starts — unknown names
        raise :class:`ValueError`, never silently skip.  So does an arrival
        whose time is negative, infinite or NaN: the error names the first
        such arrival's index.

        The report enforces conservation: every arrival is completed,
        rejected, or timed out, never lost — a violation raises
        :class:`RuntimeError`.

        Dispatches to the engine selected at construction: the flat
        vectorized event loop (default) or the legacy generator-process
        engine — both produce identical reports for identical inputs,
        faulted or not.
        """
        for index, arrival in enumerate(trace.arrivals):
            if not 0.0 <= arrival.time < math.inf:
                raise ValueError(
                    f"arrival {index} has time {arrival.time!r}; arrival times "
                    "must be finite and non-negative"
                )
        if faults is not None:
            pool = set(self.device_names) | {self.requester}
            # build_testbed always wires the paper's Table III topology, so
            # a fresh Network validates link names exactly.
            faults.validate_for(sorted(pool), network=Network())
        fault_events = compile_faults(faults, churn_events)
        if self.engine == "flat":
            # Imported lazily: repro.serving.engine imports from this module's
            # siblings, and the legacy path must stay importable without it.
            from repro.serving.engine import FlatServingEngine

            return FlatServingEngine(self).run(trace, fault_events)
        return self._run_processes(trace, fault_events)

    def _run_processes(
        self,
        trace: ArrivalTrace,
        fault_events: Sequence[FaultEvent] = (),
    ) -> ServingReport:
        """The legacy engine: one generator process per request per hop."""
        self._cluster = build_testbed(self.device_names, requester=self.requester)
        self._sim = self._cluster.sim
        self._engine = self._deploy_engine(self._cluster, trace)
        self._placement: Placement = self._engine.placement
        self._latency_model = self._engine.latency_model()
        self._live: Set[str] = set(self._cluster.device_names)
        self._crashed: Set[str] = set()
        self._slow: Dict[str, float] = {name: 1.0 for name in self._cluster.device_names}
        self._backlog: Dict[str, float] = {}
        self._router = StreamingQueueAwareRouter(
            self._cluster, self._latency_model, self._placement, self._live,
            self._backlog, self._slow,
        )
        self._controller = AdaptivePlacementController(
            self._cluster.network, expected_requests=self.adapt_expected_requests
        )
        # Churn toggles between a handful of live pools; caching the problem
        # per pool lets the controller's latency-model/tensor cache hit by
        # object identity instead of rebuilding on every assessment.
        self._problem_cache: Dict[Tuple[str, ...], PlacementProblem] = {}
        self._queues: Dict[Tuple[str, str], List[_Job]] = {}
        self._active_servers: Set[Tuple[str, str]] = set()
        self._nics = UplinkPool(self._sim)
        self._fail_times: Dict[str, List[float]] = {}
        self._radio_joules: Dict[str, float] = {}
        self._reconfig_event: Event = self._sim.event()
        self._recent_requests: List[InferenceRequest] = []
        self._migrations: List[MigrationRecord] = []
        self._churn_log: List[ChurnRecord] = []
        self._scaling_log: List[ScalingRecord] = []
        self._pending_adds: Set[str] = set()
        self._unresolved = len(trace.arrivals)
        self._brownout_level = 0
        self._brownout_shed: frozenset = frozenset()
        self._brownout_log: List[BrownoutRecord] = []
        if self.brownout is not None:
            self._brownout_rank = self._brownout_ranking()

        records: List[RequestRecord] = []
        for index, arrival in enumerate(trace.arrivals):
            record = RequestRecord(
                request_id=-1, model_name=arrival.model_name, arrival_time=arrival.time
            )
            records.append(record)
            self._sim.process(self._request_proc(record), name=f"serve-{index}")
        if fault_events:
            self._sim.process(self._fault_proc(fault_events), name="churn")
        if self.brownout is not None and trace.arrivals:
            self._sim.process(self._brownout_proc(), name="brownout")
        if self.autoscale and trace.arrivals:
            self._sim.process(self._autoscale_proc(), name="autoscale")
        self._sim.run(max_events=self.max_events)
        return build_report(
            trace.kind,
            trace.duration_s,
            trace.seed,
            records,
            self._migrations,
            self._churn_log,
            energy=self._energy_report() if self.track_energy else None,
            scaling=self._scaling_log,
            brownout=self._brownout_log,
            keep_records=self.keep_records,
        )

    # ==================================================================
    # Request lifecycle
    # ==================================================================
    def _request_proc(self, record: RequestRecord):
        try:
            yield from self._serve_one(record)
        finally:
            # Terminal either way (completed or rejected); the autoscaler's
            # control loop exits once nothing is left to serve.
            self._unresolved -= 1

    def _serve_one(self, record: RequestRecord):
        sim = self._sim
        if record.arrival_time > 0:
            yield sim.timeout(record.arrival_time)
        request = self._engine.request(record.model_name, arrival_time=sim.now)
        record.request_id = request.request_id

        isolated = self._isolated_estimate(request)
        if isolated is None:
            # Mid-migration window: some module has no live host right now.
            if self.slo.admission:
                record.slo_s = self.slo.slo_for(0.0)
                record.rejected_reason = "no live host for a required module"
                return
            record.slo_s = self.slo.slo_for(0.0)
            if record.model_name in self._brownout_shed:
                record.rejected_reason = (
                    f"brownout level {self._brownout_level}: "
                    f"shedding {record.model_name}"
                )
                return
        else:
            record.slo_s = self.slo.slo_for(isolated)
            if record.model_name in self._brownout_shed:
                record.rejected_reason = (
                    f"brownout level {self._brownout_level}: "
                    f"shedding {record.model_name}"
                )
                return
            predicted = isolated + self._queue_pressure(request)
            if not self.slo.admit(predicted, record.slo_s):
                record.rejected_reason = (
                    f"predicted {predicted:.2f}s exceeds SLO {record.slo_s:.2f}s"
                )
                return
        record.admitted = True
        self._remember(request)

        encoders = list(request.model.encoders)
        encoder_hosts: Dict[str, str] = {}
        paths = [
            sim.process(
                self._module_op(request, record, encoder_name, send_input=True),
                name=f"q{request.request_id}:{encoder_name}",
            )
            for encoder_name in encoders
        ]
        if paths:
            hosts = yield sim.all_of(paths)
            encoder_hosts = dict(zip(encoders, hosts))
        if record.timed_out:
            return
        yield from self._head_op(request, record, encoder_hosts)
        if record.timed_out:
            return
        record.finish_time = sim.now

    def _module_op(self, request: InferenceRequest, record: RequestRecord, module_name: str, send_input: bool):
        """Route -> (transfer input) -> micro-batch -> retry on failure.

        Returns the host that finally served the module, or None when the
        request's retry budget ran out (``record.timed_out`` is then set).

        The job is created at *routing* time so the retry watchdog covers
        the whole attempt (transfer + queue + service); its estimated
        service is priced at the same instant the router reserved it, so
        the reservation ledger releases the exact float it charged even if
        a straggler fault lands mid-transfer.
        """
        sim = self._sim
        attempt = 0
        while True:
            if record.timed_out:
                # A sibling path exhausted the shared retry budget.
                return None
            host = self._router.route_module(request, module_name, reserve=True)
            if host is None:
                # Wait out the migration; a new placement always arrives
                # (stranded modules force the controller's hand).
                yield self._reconfigured()
                continue
            if attempt > 0:
                record.retries += 1
            attempt += 1
            est_service = (
                self._latency_model.compute_seconds(request, module_name, host)
                * self._slow[host]
            )
            job = _Job(request=request, done=sim.event(), est_service=est_service)
            if self.retry.timeout_s is not None:
                self._arm_watchdog(job)
            delivered = True
            if send_input:
                module = self._latency_model.module(module_name)
                modality = module.modality or "image"
                payload = request.model.payload_bytes(modality)
                nic = self._nics.get(request.source)
                token = yield nic.acquire()
                delivered = False
                try:
                    if not job.cancelled and self._cluster.network.has_path(
                        request.source, host
                    ):
                        yield from transfer_proc(
                            self._cluster, request.source, host, payload,
                            f"{modality}->{host}", request.request_id,
                        )
                        delivered = True
                finally:
                    nic.release(token)
                if delivered:
                    self._charge_radio(request.source, host, payload)
            if job.cancelled or not delivered:
                # Timed out mid-transfer, or a partition kept the payload
                # from landing: undo the reservation and retry.
                self._router.release(host, est_service)
                ok = False
            else:
                self._enqueue(module_name, host, job)
                ok = yield job.done
            if ok:
                return host
            if not self.retry.allows_retry(record.retries):
                record.timed_out = True
                return None
            delay = self.retry.backoff_delay(record.retries)
            if delay > 0:
                yield sim.timeout(delay)

    def _head_op(self, request: InferenceRequest, record: RequestRecord, encoder_hosts: Dict[str, str]):
        """Ship embeddings to the head's host, run the head, retry on failure."""
        sim = self._sim
        head_name = request.model.head
        attempt = 0
        while True:
            if record.timed_out:
                return
            host = self._router.route_module(request, head_name, reserve=True)
            if host is None:
                yield self._reconfigured()
                continue
            if attempt > 0:
                record.retries += 1
            attempt += 1
            est_service = (
                self._latency_model.compute_seconds(request, head_name, host)
                * self._slow[host]
            )
            job = _Job(request=request, done=sim.event(), est_service=est_service)
            if self.retry.timeout_s is not None:
                self._arm_watchdog(job)
            delivered = True
            for encoder_name, encoder_host in encoder_hosts.items():
                if job.cancelled or not self._cluster.network.has_path(encoder_host, host):
                    # Cached embeddings can't reach the head right now
                    # (timeout or partition); abandon the attempt.
                    delivered = False
                    break
                module = self._latency_model.module(encoder_name)
                yield from transfer_proc(
                    self._cluster, encoder_host, host, module.output_bytes,
                    f"emb->{host}", request.request_id,
                )
                self._charge_radio(encoder_host, host, module.output_bytes)
            if job.cancelled or not delivered:
                self._router.release(host, est_service)
                ok = False
            else:
                self._enqueue(head_name, host, job)
                ok = yield job.done
            if ok:
                return host
            if not self.retry.allows_retry(record.retries):
                record.timed_out = True
                return
            delay = self.retry.backoff_delay(record.retries)
            if delay > 0:
                yield sim.timeout(delay)
            if not delivered and not job.cancelled:
                # A partition strands a cached embedding: every re-route at
                # this instant would fail the same reachability check, so
                # wait for the next reachability/placement change instead
                # of spinning (a cut link is always restored eventually —
                # the fault-plan validator rejects permanent cuts).
                yield self._reconfigured()

    # ==================================================================
    # Micro-batch servers
    # ==================================================================
    def _enqueue(self, module_name: str, host: str, job: _Job) -> None:
        key = (module_name, host)
        job.key = key
        self._queues.setdefault(key, []).append(job)
        # The routed work is now visible as backlog; release the in-flight
        # reservation the router took at routing time (same service value).
        self._router.release(host, job.est_service)
        self._backlog[host] = self._backlog.get(host, 0.0) + job.est_service
        if key not in self._active_servers:
            self._active_servers.add(key)
            self._sim.process(self._server_proc(module_name, host), name=f"srv:{module_name}@{host}")

    def _server_proc(self, module_name: str, host: str):
        """Drain one (module, host) queue in FIFO micro-batches."""
        sim = self._sim
        key = (module_name, host)
        queue = self._queues[key]
        device = self._cluster.device(host)
        module = self._latency_model.module(module_name)
        category = CATEGORY_HEAD if module.is_head else CATEGORY_COMPUTE
        try:
            while queue:
                if host not in self._live:
                    self._flush_queue(key)
                    break
                if self.batch_window_s > 0 and len(queue) < self.max_batch_size:
                    yield sim.timeout(self.batch_window_s)
                    if host not in self._live:
                        self._flush_queue(key)
                        break
                    if not queue:
                        # A failure flushed the queue during the window and
                        # the device already recovered; nothing left to run.
                        break
                chunk = queue[: self.max_batch_size]
                del queue[: self.max_batch_size]
                # Backlog tracks queued-but-unstarted work only; once a job
                # enters a batch, its remaining time is visible to the wait
                # estimate through the device's slot occupancy instead.
                for job in chunk:
                    self._drop_backlog(host, job)
                if not device.hosts(module_name):
                    # A migration moved the module off this host between
                    # routing and service; the jobs re-route.
                    self._finish_chunk(chunk, ok=False)
                    continue
                heaviest = max(
                    chunk, key=lambda j: j.request.model.scale_for(module_name)
                )
                submitted = sim.now
                yield from device.execute(
                    module,
                    model=heaviest.request.model,
                    batch_size=len(chunk),
                    label=f"batch[{len(chunk)}] {module_name}",
                    category=category,
                    service_scale=self._slow[host],
                )
                lost = self._failed_during(host, submitted)
                self._finish_chunk(chunk, ok=not lost)
        finally:
            self._active_servers.discard(key)

    def _finish_chunk(self, chunk: List[_Job], ok: bool) -> None:
        for job in chunk:
            if job.notified:
                continue  # the retry watchdog already resumed its owner
            job.notified = True
            job.done.succeed(ok)

    def _drop_backlog(self, host: str, job: _Job) -> None:
        self._backlog[host] = max(0.0, self._backlog.get(host, 0.0) - job.est_service)

    def _flush_queue(self, key: Tuple[str, str]) -> None:
        """Fail every queued (unstarted) job so it re-routes elsewhere."""
        queue = self._queues.get(key)
        if not queue:
            return
        jobs, queue[:] = list(queue), []
        for job in jobs:
            self._drop_backlog(key[1], job)
            if job.notified:
                continue
            job.notified = True
            job.done.succeed(False)

    # ==================================================================
    # Retry watchdogs (RetryPolicy timeouts)
    # ==================================================================
    def _arm_watchdog(self, job: _Job) -> None:
        """Race the attempt against the retry policy's per-attempt timeout."""
        self._sim.timeout(self.retry.timeout_s).add_callback(
            lambda _event: self._watch_fire(job)
        )

    def _watch_fire(self, job: _Job) -> None:
        """The attempt's deadline passed: cancel it wherever it is.

        Still queued — dequeue it and fail the job now.  Mid-service — the
        batch keeps the device busy, but the owner is resumed immediately
        and the stale result is dropped at chunk completion (``notified``).
        Mid-transfer (not yet enqueued) — only mark ``cancelled``; the
        owner checks the flag at its next checkpoint (events for the
        in-flight transfer are already scheduled and cannot be unwound).
        """
        if job.notified or job.cancelled:
            return
        job.cancelled = True
        if job.key is None:
            return
        queue = self._queues.get(job.key)
        if queue is not None and job in queue:
            queue.remove(job)
            self._drop_backlog(job.key[1], job)
        job.notified = True
        job.done.succeed(False)

    def _failed_during(self, host: str, since: float) -> bool:
        if host not in self._live:
            return True
        return any(since <= t <= self._sim.now for t in self._fail_times.get(host, ()))

    # ==================================================================
    # Fault injection and adaptive re-placement
    # ==================================================================
    def _fault_proc(self, events: Sequence[FaultEvent]):
        """Walk the merged fault stream, applying each event at its time.

        Events that change the *live pool* (crashes, recoveries,
        partitions healing or opening) trigger the adaptive re-placement
        controller; straggler and bandwidth-only link faults reprice
        without reconfiguring."""
        sim = self._sim
        for event in events:
            if event.time > sim.now:
                yield sim.timeout(event.time - sim.now)
            applied, detail, reconfigure = self._apply_fault(event)
            self._churn_log.append(
                ChurnRecord(sim.now, event.label, event.kind, applied, detail)
            )
            if reconfigure:
                yield from self._replace()
                self._signal_reconfigured()

    def _apply_fault(self, event: FaultEvent) -> Tuple[bool, str, bool]:
        """Apply one fault; returns ``(applied, detail, reconfigure)``."""
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
            self._set_slow(event.device, event.factor)
            return True, f"x{event.factor:g}", False
        if event.kind == SLOW_END:
            self._set_slow(event.device, 1.0)
            return True, "", False
        # Link faults: reprice through the network, then re-derive which
        # devices the requester can still reach.
        a, b = event.link  # type: ignore[misc]
        if event.kind == LINK_DEGRADE:
            self._cluster.network.degrade_link(a, b, event.factor)
            detail = "cut" if event.factor == 0.0 else f"bandwidth x{event.factor:g}"
        else:
            self._cluster.network.restore_link(a, b)
            detail = ""
        self._after_link_change()
        changed, change_detail = self._refresh_reachability()
        if change_detail:
            detail = f"{detail}; {change_detail}" if detail else change_detail
        return True, detail, changed

    def _set_slow(self, device_name: str, factor: float) -> None:
        """Install a straggler factor (the flat engine overlays cache
        invalidation on top of this hook)."""
        self._slow[device_name] = factor

    def _after_link_change(self) -> None:
        """Hook for the flat engine's transfer-price cache invalidation."""

    def _apply_failure(self, device_name: str):
        if device_name == self.requester:
            return False, "requester never fails"
        if device_name in self._crashed:
            return False, "already failed"
        remaining = [n for n in self._cluster.device_names if n in self._live and n != device_name]
        if not self._feasible(remaining):
            return False, "placement infeasible without it"
        self._crashed.add(device_name)
        if device_name in self._live:
            self._lose_device(device_name)
        return True, ""

    def _apply_recovery(self, device_name: str):
        if device_name not in self._crashed:
            if device_name not in self._cluster.devices:
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
        return True, ""

    def _lose_device(self, device_name: str) -> None:
        """Remove a device from the live pool: flush its queues and stamp
        the loss so in-flight batches detect it at completion."""
        self._live.discard(device_name)
        self._fail_times.setdefault(device_name, []).append(self._sim.now)
        for key in list(self._queues):
            if key[1] == device_name:
                self._flush_queue(key)

    def _requester_reaches(self, device_name: str) -> bool:
        if device_name == self.requester:
            return True
        return device_name in self._cluster.network.reachable_from(self.requester)

    def _refresh_reachability(self) -> Tuple[bool, str]:
        """Reconcile the live pool with requester-side reachability after a
        link change.  Partitioned devices leave exactly like failures
        (queues flushed, in-flight work lost); devices that are alive and
        newly reachable rejoin.  Returns whether the pool changed, plus a
        log detail."""
        reachable = self._cluster.network.reachable_from(self.requester)
        lost = [
            n for n in self._cluster.device_names
            if n in self._live and n != self.requester and n not in reachable
        ]
        gained = [
            n for n in self._cluster.device_names
            if n not in self._live and n not in self._crashed and n in reachable
        ]
        for name in lost:
            self._lose_device(name)
        for name in gained:
            self._live.add(name)
        parts = []
        if lost:
            parts.append("partitioned: " + ", ".join(lost))
        if gained:
            parts.append("rejoined: " + ", ".join(gained))
        return bool(lost or gained), "; ".join(parts)

    def _replace(self):
        """Let the adaptive controller re-place for the current live pool,
        charging any switching cost as simulated reload delay."""
        problem_now = self._live_problem()
        requests = self._recent_requests[-self.recent_window:]
        if not requests:
            requests = [self._engine.request(name) for name in self.models]
        try:
            decision = self._controller.evaluate(problem_now, self._placement, requests)
        except PlacementError:
            # Pre-checked via _feasible; a failure here means the pool
            # changed under us — keep serving on the old placement.
            return
        if decision.migrate and decision.new_placement is not None:
            decided_at = self._sim.now
            if decision.switching_cost_seconds > 0:
                yield self._sim.timeout(decision.switching_cost_seconds)
            self._install(decision.new_placement)
            # Stamped with the decision time so the log attributes the
            # migration to the churn event that triggered it; the new
            # placement takes effect switching_cost_s later.
            self._migrations.append(
                MigrationRecord(decided_at, decision.reason, decision.switching_cost_seconds)
            )

    def _install(self, placement: Placement) -> None:
        """Materialize ``placement`` on the live devices (unload then load)."""
        modules = self._engine.module_specs
        assignment = placement.as_dict()
        for name in self._cluster.device_names:
            if name not in self._live:
                continue  # failed devices keep their weights for a comeback
            device = self._cluster.devices[name]
            keep = {m for m, hosts in assignment.items() if name in hosts}
            for loaded_name in list(device.loaded):
                if loaded_name not in keep:
                    device.unload(loaded_name)
            for module_name in sorted(keep):
                if not device.hosts(module_name):
                    device.load(modules[module_name])
        self._placement = placement
        self._router.placement = placement

    def _problem_for(self, device_names: Sequence[str]) -> PlacementProblem:
        key = tuple(device_names)
        problem = self._problem_cache.get(key)
        if problem is None:
            problem = PlacementProblem(
                modules=self._engine.problem.modules,
                devices=tuple(self._cluster.devices[name].profile for name in device_names),
                models=self._engine.problem.models,
            )
            self._problem_cache[key] = problem
        return problem

    def _live_problem(self) -> PlacementProblem:
        return self._problem_for(
            [name for name in self._cluster.device_names if name in self._live]
        )

    def _feasible(self, live_names: Sequence[str]) -> bool:
        # The feasibility probe and the controller's candidate each run one
        # greedy solve per applied event; the problems are small (a handful
        # of modules x devices), so the duplication is cheaper than
        # widening the controller's API to accept a precomputed candidate.
        if not live_names:
            return False
        try:
            greedy_placement(self._problem_for(live_names))
        except PlacementError:
            return False
        return True

    def _reconfigured(self) -> Event:
        return self._reconfig_event

    def _signal_reconfigured(self) -> None:
        event, self._reconfig_event = self._reconfig_event, self._sim.event()
        event.succeed(True)

    # ==================================================================
    # Brownout controller (graceful load shedding)
    # ==================================================================
    def _brownout_ranking(self) -> List[str]:
        """Model classes ordered by SLO slack, smallest first.

        Slack = deadline minus isolated latency on the fresh deployment —
        the classes already closest to their deadlines are shed first
        (they are the least likely to produce goodput under pressure).
        Scoring uses ``request_id=-1`` prototypes so ranking never bumps
        the process-global request counter (bit-identity of served ids).
        """
        slacks = []
        for spec in self._engine.problem.models:
            proto = InferenceRequest(
                model=spec, source=self._cluster.requester, request_id=-1
            )
            isolated = self._isolated_estimate(proto)
            iso = isolated if isolated is not None else 0.0
            slacks.append((self.slo.slo_for(iso) - iso, spec.name))
        slacks.sort()
        return [name for _, name in slacks]

    def _brownout_pressure(self) -> float:
        """Cluster backlog pressure: queued-but-unstarted service-seconds
        per live compute slot (inf while no device is live)."""
        queued = 0.0
        capacity = 0
        for name in self._cluster.device_names:
            if name not in self._live:
                continue
            queued += self._backlog.get(name, 0.0)
            capacity += self._cluster.device(name).slots.capacity
        return queued / capacity if capacity else float("inf")

    def _brownout_assess(self, now: float) -> None:
        """One hysteresis step: raise the shed level above the high-water
        pressure, lower it at or below the low-water mark, and always keep
        at least one model class admitted."""
        policy = self.brownout
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

    def _brownout_proc(self):
        sim = self._sim
        while self._unresolved > 0:
            yield sim.timeout(self.brownout.interval_s)
            if self._unresolved <= 0:
                break
            self._brownout_assess(sim.now)

    # ==================================================================
    # Serving-layer replica autoscaling
    # ==================================================================
    def _module_pressure(self, module_name: str) -> Tuple[float, float]:
        """Queued-but-unstarted work for one module.

        Returns ``(pressure, queued_seconds)``: the sum of est_service over
        every live queue of the module (service-**seconds**), both raw and
        divided by the total slot capacity of its live hosts.  Modules with
        no live host report ``(0, 0)`` (churn re-placement, not the
        autoscaler, owns that situation)."""
        hosts = [h for h in self._placement.hosts(module_name) if h in self._live]
        if not hosts:
            return 0.0, 0.0
        queued = 0.0
        for host in hosts:
            for job in self._queues.get((module_name, host), ()):
                queued += job.est_service
        capacity = sum(self._cluster.device(h).slots.capacity for h in hosts)
        return queued / capacity, queued

    def _autoscale_proc(self):
        """The control loop: one add/drop assessment per module per round.

        Runs only while requests are outstanding, so an idle tail never
        keeps the simulator alive; modules are visited in sorted-name order
        for determinism.  Scale-up load waits run as their **own** sim
        processes, so a slow load never stalls the next round's pressure
        assessment of other modules.
        """
        sim = self._sim
        idle_rounds: Dict[str, int] = {}
        while self._unresolved > 0:
            yield sim.timeout(self.autoscale_interval_s)
            if self._unresolved <= 0:
                break
            for module_name in sorted(self._engine.module_specs):
                pressure, queued_seconds = self._module_pressure(module_name)
                if pressure > self.scale_up_backlog_s:
                    idle_rounds[module_name] = 0
                    self._scale_up(module_name, pressure, queued_seconds)
                elif pressure == 0.0:
                    idle_rounds[module_name] = idle_rounds.get(module_name, 0) + 1
                    if idle_rounds[module_name] >= self.scale_down_idle_rounds:
                        self._scale_down(module_name)
                        idle_rounds[module_name] = 0
                else:
                    idle_rounds[module_name] = 0

    def _scale_up(self, module_name: str, pressure: float, queued_seconds: float) -> None:
        """Decide an add for an overloaded module, charging its load time.

        The candidate is the live device (not already hosting the module,
        with the weights fitting in free memory, within the speed-ratio
        guard) with the smallest planning compute time, name tie-break.
        The load delay is spawned as its own sim process — the replica only
        joins the routable set ``cost_s`` later, the control loop keeps
        ticking meanwhile, and the decision is re-validated after the wait
        (the device may have failed or filled up; an aborted add is logged,
        never applied).  At most one add per module is in flight.
        """
        if module_name in self._pending_adds:
            return
        hosts = self._placement.hosts(module_name)
        if len(hosts) >= self.max_replicas:
            return
        module = self._engine.module_specs[module_name]
        problem = self._engine.problem
        live_hosts = [h for h in hosts if h in self._live]
        if not live_hosts:
            return  # churn re-placement, not the autoscaler, owns this
        fastest = min(
            problem.compute_seconds(module, self._cluster.device(h).profile)
            for h in live_hosts
        )
        candidates = [
            name for name in self._cluster.device_names
            if name in self._live and name not in hosts
            and self._cluster.device(name).can_load(module)
            and problem.compute_seconds(module, self._cluster.device(name).profile)
            <= self.scale_up_speed_ratio * fastest
        ]
        if not candidates:
            return
        chosen = min(
            candidates,
            key=lambda name: (
                problem.compute_seconds(module, self._cluster.device(name).profile),
                name,
            ),
        )
        device = self._cluster.device(chosen)
        cost = problem.compute_model.load_seconds(module, device.profile)
        # Amortization gate (the adaptive controller's hysteresis, scaled to
        # the backlog): loading must cost less than the queued work it can
        # relieve, otherwise the burst is over before the replica exists.
        if cost > queued_seconds:
            return
        self._pending_adds.add(module_name)
        detail = f"backlog {pressure:.2f}s/slot > {self.scale_up_backlog_s:.2f}s"
        self._sim.process(
            self._finish_scale_up(module_name, chosen, cost, detail),
            name=f"scale-up:{module_name}@{chosen}",
        )

    def _finish_scale_up(self, module_name: str, chosen: str, cost: float, detail: str):
        """Pay the load time, then install the replica if still valid."""
        sim = self._sim
        device = self._cluster.device(chosen)
        module = self._engine.module_specs[module_name]
        decided_at = sim.now
        try:
            if cost > 0:
                yield sim.timeout(cost)
            if (
                chosen not in self._live
                or not device.can_load(module)
                or chosen in self._placement.hosts(module_name)
                # A churn re-placement during the window may have re-grown
                # the host set (replicate=True deployments) — re-check the
                # cap too.
                or len(self._placement.hosts(module_name)) >= self.max_replicas
            ):
                self._scaling_log.append(
                    ScalingRecord(
                        decided_at, "add", module_name, chosen, cost, False,
                        "aborted: candidate failed or filled up during the load window",
                    )
                )
                return
            device.load(module)
            self._placement = self._placement.with_extra(module_name, chosen)
            self._router.placement = self._placement
            self._scaling_log.append(
                ScalingRecord(decided_at, "add", module_name, chosen, cost, True, detail)
            )
        finally:
            self._pending_adds.discard(module_name)

    def _scale_down(self, module_name: str) -> None:
        """Drop one surplus idle replica (free: unloading is instant).

        Only hosts with an empty micro-batch queue for the module are
        eligible, and at least one **live** host always remains, so no
        queued work is lost and routing never goes dark — the conservation
        guarantee is untouched.  Among eligible hosts the slowest (largest
        planning compute time, name tie-break) is dropped, keeping the
        fast replicas serving.
        """
        hosts = self._placement.hosts(module_name)
        live_hosts = [h for h in hosts if h in self._live]
        if len(hosts) <= 1 or len(live_hosts) <= 1:
            return
        module = self._engine.module_specs[module_name]
        problem = self._engine.problem
        # Eligible victims have an empty micro-batch queue AND no routed
        # work still crossing the uplink toward them (the router's exact
        # in-flight reservation ledger) — dropping a host a job is already
        # headed for would only force a retry and re-pay the transfer.
        droppable = [
            h for h in live_hosts
            if not self._queues.get((module_name, h))
            and self._router.reserved_seconds(h) == 0.0
        ]
        if not droppable:
            return
        # live_hosts has >= 2 members here, so dropping one victim always
        # leaves a live host serving.
        victim = max(
            droppable,
            key=lambda name: (
                problem.compute_seconds(module, self._cluster.device(name).profile),
                name,
            ),
        )
        self._cluster.device(victim).unload(module_name)
        self._placement = Placement(
            {
                name: (tuple(h for h in hs if h != victim) if name == module_name else hs)
                for name, hs in self._placement.as_dict().items()
            }
        )
        self._router.placement = self._placement
        self._scaling_log.append(
            ScalingRecord(
                self._sim.now, "drop", module_name, victim, 0.0, True,
                f"idle for {self.scale_down_idle_rounds} rounds",
            )
        )

    # ==================================================================
    # Energy accounting
    # ==================================================================
    def _charge_radio(self, src: str, dst: str, payload_bytes: int) -> None:
        """Charge per-byte radio joules to both transfer endpoints.

        Co-located hops are free — the same rule as the placement-time
        energy model and ``Network.transfer_seconds``.  Retried transfers
        charge again: the radios really did move the bytes twice.
        """
        if not self.track_energy or src == dst:
            return
        self._radio_joules[src] = self._radio_joules.get(src, 0.0) + (
            resolve_energy_profile(src).transfer_joules(payload_bytes)
        )
        self._radio_joules[dst] = self._radio_joules.get(dst, 0.0) + (
            resolve_energy_profile(dst).transfer_joules(payload_bytes)
        )

    def _energy_report(self) -> EnergyReport:
        """Per-device energy over the run's wall-clock horizon.

        Active time is the union of the device's compute/head spans from
        the execution timeline (overlapping batches on a multi-slot device
        count once); every other second draws ``idle_watts`` — so active +
        idle seconds equal the horizon per device, and the totals are an
        exact integral of the modeled power draw plus the radio ledger.
        """
        horizon = self._sim.now
        intervals: Dict[str, List[Tuple[float, float]]] = {}
        for span in self._cluster.trace.spans:
            if span.category in (CATEGORY_COMPUTE, CATEGORY_HEAD):
                intervals.setdefault(span.device, []).append((span.start, span.end))
        devices = []
        for name in self._cluster.device_names:
            profile = resolve_energy_profile(name)
            active_s = merged_busy_seconds(intervals.get(name, ()), horizon)
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
    # Admission helpers
    # ==================================================================
    def _isolated_estimate(self, request: InferenceRequest) -> Optional[float]:
        """Idle-cluster Eq. 1-3 latency under the live fastest-host routing,
        or None while some module has no live host."""
        hosts: Dict[str, str] = {}
        for module_name in request.model.module_names:
            candidates = [
                d for d in self._placement.hosts(module_name) if d in self._live
            ]
            if not candidates:
                return None
            hosts[module_name] = min(
                candidates,
                key=lambda d: (self._latency_model.compute_seconds(request, module_name, d), d),
            )
        decision = RoutingDecision(request=request, hosts=hosts)
        return self._latency_model.breakdown(request, self._placement, routing=decision).total

    def _queue_pressure(self, request: InferenceRequest) -> float:
        """Estimated extra wait (s) the live queues add to this request:
        the max over its parallel encoder paths plus the head's wait."""
        decision = self._router(request)
        if decision is None:
            return float("inf")
        encoder_wait = 0.0
        for encoder_name in request.model.encoders:
            host = decision.host_of(encoder_name)
            service = (
                self._latency_model.compute_seconds(request, encoder_name, host)
                * self._slow[host]
            )
            encoder_wait = max(encoder_wait, self._router.estimated_wait(host, service))
        head_name = request.model.head
        head_host = decision.host_of(head_name)
        head_service = (
            self._latency_model.compute_seconds(request, head_name, head_host)
            * self._slow[head_host]
        )
        return encoder_wait + self._router.estimated_wait(head_host, head_service)

    def _remember(self, request: InferenceRequest) -> None:
        self._recent_requests.append(request)
        if len(self._recent_requests) > 4 * self.recent_window:
            del self._recent_requests[: -self.recent_window]

