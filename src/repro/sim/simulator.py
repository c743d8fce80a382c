"""The simulation event loop and virtual clock."""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

#: Floor for the derived livelock cap: small runs keep the historic guard.
MIN_MAX_EVENTS = 10_000_000
#: Derived-cap budget: how many processed events each initially scheduled
#: event may fan out into before the run is declared a livelock.  Serving
#: runs spend a few dozen events per request, so 200x leaves an order of
#: magnitude of headroom while still catching unbounded self-rescheduling.
EVENTS_PER_SCHEDULED = 200


def default_max_events(pending: int) -> int:
    """Livelock cap for a run that starts with ``pending`` scheduled events.

    Scales with the initially scheduled work instead of a fixed constant, so
    a legitimate million-arrival serving run (tens of millions of events) is
    not spuriously killed while a buggy two-process ping-pong loop still is.
    """
    return max(MIN_MAX_EVENTS, EVENTS_PER_SCHEDULED * pending)


class Simulator:
    """A discrete-event simulator with a floating-point clock in seconds.

    Events are processed in (time, insertion-order) order, so simultaneous
    events run FIFO — deterministic regardless of heap internals.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._counter = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule_event(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue ``event`` to be processed ``delay`` seconds from now."""
        # Written so that NaN fails too.
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self._counter += 1
        heapq.heappush(self._queue, (self._now + delay, self._counter, event))

    def event(self) -> Event:
        """Create a fresh untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``generator``; returns its join handle."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> AllOf:
        """Join: an event firing when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Select: an event firing when any event in ``events`` fires.

        ``events`` must be non-empty — "any of nothing" can never fire and
        raises :class:`ValueError` (see :class:`repro.sim.events.AnyOf`).
        """
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise RuntimeError("no scheduled events")
        time, _seq, event = heapq.heappop(self._queue)
        self._now = time
        event._process()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or a safety cap.

        Returns the final simulated time.  The ``max_events`` cap guards
        against runaway loops in buggy workloads; hitting it raises.  When
        ``None`` (the default) the cap is derived from the work scheduled at
        entry via :func:`default_max_events`, so large-but-legitimate runs
        scale the guard instead of tripping it.
        """
        if max_events is None:
            max_events = default_max_events(len(self._queue))
        processed = 0
        while self._queue:
            next_time = self._queue[0][0]
            if until is not None and next_time > until:
                self._now = until
                return self._now
            self.step()
            processed += 1
            if processed >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events; likely a livelock")
        return self._now

    def run_process(self, generator: ProcessGenerator, name: str = "") -> Any:
        """Convenience: start ``generator`` as a process, run to completion, return its value."""
        handle = self.process(generator, name=name)
        self.run()
        if not handle.processed and not handle.triggered:
            raise RuntimeError(f"process {handle.name!r} never completed (deadlock?)")
        return handle.value
