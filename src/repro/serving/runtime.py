"""The online serving runtime: streaming requests, SLOs, faults, re-placement.

This is the continuous-serving counterpart of the one-shot batch executors
in :mod:`repro.core.routing`.  A :class:`ServingRuntime` validates a
serving config, deploys the S2M3 placement, and replays an arrival trace
from :mod:`repro.serving.workload` through the
:class:`~repro.serving.engine.FlatServingEngine` event loop, serving every
request through:

1. **Admission** — the SLO policy (:mod:`repro.serving.slo`) prices the
   request (isolated Eq. 1-3 latency + live queue pressure) and rejects it
   at arrival if it is predicted to miss its deadline.
2. **Queue-aware routing** — the
   :class:`~repro.core.routing.queue_aware.QueueAwareRouter` cost on a
   live stream: only *live* hosts are candidates, and the wait estimate
   adds the micro-batcher's queued backlog plus an exact, non-decaying
   ledger of in-flight reservations (routed work still crossing the
   uplink, released when it lands in a queue).  Equal-cost replicas
   resolve toward the smaller (score, device name) pair.
3. **Micro-batched execution** — per ``(module, device)`` server loops
   drain their queues in FIFO chunks of up to ``max_batch_size`` and run
   each chunk as ONE batched service (footnote 4 scaling via
   :func:`~repro.core.routing.batching.batched_service_time` semantics),
   which is how a burst of requests sharing a vision encoder amortizes it.
4. **Fault handling** — injected faults (a
   :class:`~repro.serving.faults.FaultPlan`: device fail/recover,
   stragglers, link faults, regional outages) flush a lost device's
   queues, mark in-flight work lost (detected at service completion, like
   a timeout), and trigger the
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
from typing import Optional, Sequence

from repro.cluster.network import Network
from repro.cluster.requests import InferenceRequest
from repro.core.engine import PlacementAlgorithm, S2M3Engine
from repro.core.placement.problem import Placement, PlacementProblem
from repro.profiles.devices import edge_device_names
from repro.serving.engine import FlatServingEngine
from repro.serving.faults import BrownoutPolicy, FaultPlan
from repro.serving.report import ServingReport
from repro.serving.slo import RetryPolicy, SLOPolicy
from repro.serving.workload import ArrivalTrace
from repro.utils.checks import is_count


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
        recent_window: How many recently admitted requests price a candidate
            re-placement, at least 1 (falls back to one request per model
            when none has been admitted yet).
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
        max_events: Optional livelock cap forwarded to the event loop;
            ``None`` (default) derives it from the scheduled work (see
            :func:`repro.sim.flat.default_max_events`).
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
            ``docs/placement.md``).
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
        recent_window: int = 32,
        autoscale: bool = False,
        autoscale_interval_s: float = 0.5,
        scale_up_backlog_s: Optional[float] = None,
        scale_down_idle_rounds: int = 6,
        scale_up_speed_ratio: float = 3.0,
        max_replicas: int = 3,
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
        for name, count in (
            ("max_batch_size", max_batch_size),
            ("recent_window", recent_window),
            ("scale_down_idle_rounds", scale_down_idle_rounds),
            ("max_replicas", max_replicas),
            ("max_events", 1 if max_events is None else max_events),
        ):
            # The check execute_batched_burst makes: True, 2.0 and NaN are
            # not counts (a float batch cap dies mid-run slicing a queue).
            if not is_count(count) or count < 1:
                raise ValueError(f"{name} must be an int >= 1, got {count!r}")
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
        if not scale_up_speed_ratio >= 1:
            raise ValueError(f"scale_up_speed_ratio must be >= 1, got {scale_up_speed_ratio}")
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
        self.max_events = max_events
        self.keep_records = keep_records
        self.track_energy = track_energy
        self.retry = retry if retry is not None else RetryPolicy()
        self.brownout = brownout
        self.congestion_aware = congestion_aware
        self.placement_algorithm = placement_algorithm

    # ==================================================================
    # Deployment
    # ==================================================================
    def _deploy_engine(self, cluster, trace: ArrivalTrace) -> S2M3Engine:
        """Build, plan, and deploy the S2M3 engine for one run.

        Planner choices (``congestion_aware``, ``placement_algorithm``)
        all resolve here: identical config + trace ⇒ identical placement.
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
    def run(self, trace: ArrivalTrace, faults: Optional[FaultPlan] = None) -> ServingReport:
        """Serve ``trace``, optionally under a fault plan; returns the report.

        ``faults`` is the only fault input: a
        :class:`~repro.serving.faults.FaultPlan` of device fail/recover
        events (e.g. from :func:`~repro.serving.faults.generate_churn`),
        stragglers, link faults and regional outages.  The plan is
        validated against the device pool and network topology *before*
        any serving starts — unknown names raise :class:`ValueError`, never
        silently skip — and its events are replayed in the stable
        ``(time, label)`` order of :meth:`FaultPlan.ordered`.  An arrival
        whose time is negative, infinite or NaN raises too, and so does one
        for a model this runtime does not serve: the error names the first
        such arrival's index.

        The report enforces conservation: every arrival is completed,
        rejected, or timed out, never lost — a violation raises
        :class:`RuntimeError`.

        The run itself is one :class:`~repro.serving.engine.FlatServingEngine`
        replay: identical inputs, faulted or not, give identical reports.
        """
        served = set(self.models)
        times, names = trace.times, trace.model_names
        # Vectorized checks; the first bad index is searched for only to
        # name it, and the earlier of the two faults is the one reported.
        n = len(names)
        bad_time = ~((times >= 0.0) & (times < math.inf))  # NaN fails both
        first_time = int(bad_time.argmax()) if bad_time.any() else n
        first_model = n
        if not served.issuperset(names):
            first_model = next(i for i, name in enumerate(names) if name not in served)
        if first_time < n and first_time <= first_model:
            raise ValueError(
                f"arrival {first_time} has time {times[first_time].item()!r}; "
                "arrival times must be finite and non-negative"
            )
        if first_model < n:
            raise ValueError(
                f"arrival {first_model} asks for model {names[first_model]!r}, which "
                f"this runtime does not serve ({sorted(served)})"
            )
        events = ()
        if faults is not None:
            if not isinstance(faults, FaultPlan):
                raise TypeError(f"faults must be a FaultPlan, got {type(faults).__name__}")
            pool = set(self.device_names) | {self.requester}
            # build_testbed always wires the paper's Table III topology, so
            # a fresh Network validates link names exactly.
            faults.validate_for(sorted(pool), network=Network())
            events = FaultPlan.ordered(faults.events).events
        return FlatServingEngine(self).run(trace, events)
