"""Per-request routing and the end-to-end latency model (paper Sec. V).

- :mod:`repro.core.routing.latency` — analytic latency model (Eq. 1-3) and
  the fastest-host routing rule (Eq. 7); used by the planner and the
  brute-force optimum's objective.
- :mod:`repro.core.routing.executor` — discrete-event execution of routed
  requests on a live cluster: parallel encoders, head join, queueing on
  shared modules, and pipelining across requests (Algorithm 1 lines 13-19).
- :mod:`repro.core.routing.batching` — module-level batch scaling and
  its throughput gain (the Sec. VI-C queueing remedy).
"""

from repro.core.routing.latency import LatencyBreakdown, LatencyModel, RoutingDecision
from repro.core.routing.executor import ExecutionResult, RequestOutcome, execute_requests
from repro.core.routing.batching import batch_speedup, batched_service_time
from repro.core.routing.batched import execute_batched_burst
from repro.core.routing.queue_aware import QueueAwareRouter

__all__ = [
    "LatencyBreakdown",
    "LatencyModel",
    "RoutingDecision",
    "ExecutionResult",
    "RequestOutcome",
    "execute_requests",
    "batch_speedup",
    "batched_service_time",
    "execute_batched_burst",
    "QueueAwareRouter",
]
