"""A flat (callback-based) event loop for vectorized serving runs.

The generator-process kernel in :mod:`repro.sim.simulator` spends one Python
frame plus several :class:`~repro.sim.events.Event` objects per request per
hop — fine at testbed scale, dominant at a million arrivals.  This module is
the slimmed kernel behind :class:`repro.serving.engine.FlatServingEngine`:
entries are plain ``(time, seq, fn, args)`` tuples and "resuming a process"
is a direct function call, so there are no generator frames, no Event
allocation, and no callback lists.

Entries wait in one of three queues:

- the **ready** queue: delay-zero work for the current instant, FIFO;
- the **lane**: timed entries pushed in non-decreasing time order, FIFO —
  a replay schedules its whole (sorted) arrival trace here up front;
- the **heap**: every other timed entry.

Ordering is identical to :class:`Simulator`: entries run in
``(time, insertion-order)`` order, so simultaneous entries run FIFO.  The
lane is sorted by ``(time, seq)`` by construction (times non-decreasing,
seqs strictly increasing), so dispatching the smaller of the heap top and
the lane head replays exactly the order one heap holding both would give —
while an in-order push and its dispatch cost O(1) instead of O(log n).  The
livelock guard is shared with the process kernel
(:func:`repro.sim.simulator.default_max_events`).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.simulator import default_max_events


class FlatEventLoop:
    """A minimal scheduler: three queues of timed callbacks and a clock.

    Continuations are ordinary callables invoked as ``fn(*args)`` when their
    entry is dispatched; whatever state they need travels in ``args``
    (indices into the caller's arrays), not in closures, so a million queued
    entries stay cheap.

    Delay-zero entries — the majority in a serving replay — skip the timed
    queues entirely and go to a FIFO ready queue.  This preserves the global
    ``(time, insertion-order)`` order: a timed entry at the current time was
    necessarily pushed before every ready entry (a same-time push lands in
    the ready queue instead), so draining same-time timed entries before the
    ready queue replays exactly the order a single counter would give,
    while saving an O(log n) heap operation per immediate event.

    A :meth:`push_at` no earlier than the lane's last entry is appended to
    the lane; only an out-of-order time falls back to the heap.  Timed
    entries are dispatched as the ``(time, seq)`` minimum of the heap top
    and the lane head, which is the heap's own order over both queues.
    """

    __slots__ = ("now", "_heap", "_lane", "_ready", "_seq")

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[..., None], Tuple[Any, ...]]] = []
        self._lane: deque = deque()
        self._ready: deque = deque()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap) + len(self._lane) + len(self._ready)

    def push(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay == 0:
            self._ready.append((fn, args))
            return
        # Written so that NaN fails too.
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def push_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time`` (>= now)."""
        if time == self.now:
            self._ready.append((fn, args))
            return
        if not time >= self.now:
            raise ValueError(f"time must be a number >= now ({self.now}), got {time}")
        self._seq += 1
        lane = self._lane
        if not lane or time >= lane[-1][0]:
            lane.append((time, self._seq, fn, args))
        else:
            heapq.heappush(self._heap, (time, self._seq, fn, args))

    def run(self, max_events: Optional[int] = None) -> float:
        """Drain the queues; returns the final simulated time.

        ``max_events`` guards against runaway loops exactly like
        :meth:`Simulator.run`; ``None`` derives the cap from the entries
        scheduled at entry.
        """
        if max_events is None:
            max_events = default_max_events(len(self))
        heap = self._heap
        lane = self._lane
        ready = self._ready
        pop = heapq.heappop
        lane_popleft = lane.popleft
        popleft = ready.popleft
        now = self.now
        processed = 0
        while True:
            # Same-time timed entries predate every ready entry; run them
            # first to keep global insertion order.
            if ready:
                if lane and lane[0][0] == now:
                    if heap and heap[0] < lane[0]:
                        _time, _seq, fn, args = pop(heap)
                    else:
                        _time, _seq, fn, args = lane_popleft()
                elif heap and heap[0][0] == now:
                    _time, _seq, fn, args = pop(heap)
                else:
                    fn, args = popleft()
            elif lane:
                if heap and heap[0] < lane[0]:
                    time, _seq, fn, args = pop(heap)
                else:
                    time, _seq, fn, args = lane_popleft()
                self.now = now = time
            elif heap:
                time, _seq, fn, args = pop(heap)
                self.now = now = time
            else:
                break
            fn(*args)
            processed += 1
            if processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; likely a livelock"
                )
        return self.now
