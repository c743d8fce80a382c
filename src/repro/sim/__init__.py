"""Discrete-event simulation kernel.

One dependency-free callback kernel emulates the paper's physical testbed
and drives every simulated run: device compute slots with FIFO queueing
(the source of the shared-module queueing delay in Table X), network
transfers, per-request parallel encoder execution (Fig. 3), and the
million-arrival serving replays.

Public surface:

- :class:`FlatEventLoop` — timed callbacks, an arrival stream and a virtual
  clock, dispatched in (time, insertion-order) order.
- :class:`SlotPool` — capacity-limited FIFO slots on a loop (device compute
  slots, requester uplinks).
- :func:`default_max_events` — the loop's derived livelock cap.
- :class:`TraceRecorder`, :class:`Span` — timeline capture for Fig. 3.
"""

from repro.sim.flat import FlatEventLoop, SlotPool, default_max_events
from repro.sim.trace import Span, TraceRecorder

__all__ = [
    "FlatEventLoop",
    "SlotPool",
    "default_max_events",
    "Span",
    "TraceRecorder",
]
