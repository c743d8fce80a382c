"""A flat (callback-based) event loop for vectorized serving runs.

The generator-process kernel in :mod:`repro.sim.simulator` spends one Python
frame plus several :class:`~repro.sim.events.Event` objects per request per
hop — fine at testbed scale, dominant at a million arrivals.  This module is
the slimmed kernel behind :class:`repro.serving.engine.FlatServingEngine`:
entries are plain ``(time, seq, fn, args)`` tuples and "resuming a process"
is a direct function call, so there are no generator frames, no Event
allocation, and no callback lists.

Work waits in one of three places:

- the **ready** queue: delay-zero work for the current instant, FIFO;
- the **heap**: every timed entry pushed one at a time;
- the **stream**: one :meth:`FlatEventLoop.feed` of a nondecreasing time
  sequence — a replay's sorted arrival trace — read through a cursor, so
  an item costs no tuple, no seq int and no float until it is dispatched.

Ordering is identical to :class:`Simulator`: entries run in
``(time, insertion-order)`` order, so simultaneous entries run FIFO.  A feed
reserves one consecutive block of seqs, so the stream's items are sorted by
``(time, seq)`` by construction, and dispatching the smaller of the heap top
and the cursor's item replays exactly the order one heap holding both would
give.  The livelock guard is shared with the process kernel
(:func:`repro.sim.simulator.default_max_events`).
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import islice
from operator import le
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.sim.simulator import default_max_events


class FlatEventLoop:
    """A minimal scheduler: timed callbacks, an arrival stream and a clock.

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
    """

    __slots__ = (
        "now", "_heap", "_ready", "_seq",
        "_times", "_keys", "_stream_fn", "_base", "_cursor", "_running",
    )

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[..., None], Tuple[Any, ...]]] = []
        self._ready: deque = deque()
        self._seq = 0
        # The stream: item k is fn(keys[k]) at times[k] with seq base + k;
        # items before the cursor have run.
        self._times: Sequence[float] = ()
        self._keys: Sequence[Any] = ()
        self._stream_fn: Optional[Callable[[Any], None]] = None
        self._base = 0
        self._cursor = 0
        self._running = False

    def __len__(self) -> int:
        return len(self._heap) + len(self._ready) + len(self._times) - self._cursor

    def push(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay == 0:
            self._ready.append((fn, args))
            return
        # Written so that NaN fails too.
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        if time == self.now:
            # A delay below an ulp of now is a same-time push.
            self._ready.append((fn, args))
            return
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    def push_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time`` (>= now)."""
        if time == self.now:
            self._ready.append((fn, args))
            return
        if not time >= self.now:
            raise ValueError(f"time must be a number >= now ({self.now}), got {time}")
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    def feed(self, times: Sequence[float], fn: Callable[[Any], None],
             keys: Sequence[Any]) -> None:
        """Schedule ``fn(keys[k])`` at ``times[k]`` for every ``k``.

        The order is exactly that of ``push_at(times[k], fn, keys[k])``
        called for each ``k`` in turn, but the items are read through a
        cursor when they come due: feeding allocates nothing per item.
        ``times`` must be nondecreasing and no earlier than ``now``, and
        neither sequence may change until the stream has run.  One stream
        at a time, fed outside :meth:`run`.
        """
        if self._running or self._cursor < len(self._times):
            raise RuntimeError("feed() needs an idle loop with no unfed stream")
        n = len(times)
        if len(keys) != n:
            raise ValueError(f"{n} times but {len(keys)} keys")
        if n and not times[0] >= self.now:
            raise ValueError(f"times must be numbers >= now ({self.now}), got {times[0]}")
        # le is False against NaN, so this rejects NaN anywhere too.
        if not all(map(le, times, islice(times, 1, None))):
            raise ValueError("times must be nondecreasing numbers")
        # Same-time items go to the ready queue, as push_at would send them.
        k = 0
        while k < n and times[k] == self.now:
            self._ready.append((fn, (keys[k],)))
            k += 1
        self._times, self._keys, self._stream_fn = times, keys, fn
        self._base, self._cursor = self._seq + 1, k
        self._seq += n

    def run(self, max_events: Optional[int] = None) -> float:
        """Drain the queues and the stream; returns the final simulated time.

        ``max_events`` guards against runaway loops exactly like
        :meth:`Simulator.run`; ``None`` derives the cap from the entries
        scheduled at entry.
        """
        if max_events is None:
            max_events = default_max_events(len(self))
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        times, keys, stream_fn, base = self._times, self._keys, self._stream_fn, self._base
        end = len(times)
        k = self._cursor
        next_t = times[k] if k < end else 0.0   # the cursor item's time
        now = self.now
        processed = 0
        self._running = True
        try:
            while True:
                # Same-time timed entries predate every ready entry; run them
                # first to keep global insertion order.
                if ready and not (
                    (heap and heap[0][0] == now) or (k < end and next_t == now)
                ):
                    fn, args = popleft()
                    fn(*args)
                # The stream's item k has seq base + k, and every heap seq lies
                # outside the stream's block: on a time tie the heap entry runs
                # first iff it was pushed before the feed (seq < base).
                elif k < end and (
                    not heap
                    or next_t < heap[0][0]
                    or (next_t == heap[0][0] and base < heap[0][1])
                ):
                    self.now = now = next_t
                    key = keys[k]
                    k += 1
                    self._cursor = k
                    if k < end:
                        next_t = times[k]
                    stream_fn(key)
                elif heap:
                    time, _seq, fn, args = pop(heap)
                    self.now = now = time
                    fn(*args)
                else:
                    break
                processed += 1
                if processed >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events; likely a livelock"
                    )
            # The stream is spent: let go of the caller's sequences.
            self._times, self._keys, self._stream_fn, self._cursor = (), (), None, 0
        finally:
            self._running = False
        return self.now
