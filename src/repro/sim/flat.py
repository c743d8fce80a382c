"""The flat (callback-based) event kernel: one loop for every simulated run.

Entries are plain ``(time, seq, fn, args)`` tuples and "resuming a process"
is a direct function call, so there are no generator frames, no event
objects and no callback lists.  The serving engine
(:class:`repro.serving.engine.FlatServingEngine`) replays a million arrivals
on it, and the paper's executor (:mod:`repro.core.routing.executor`,
:mod:`repro.core.routing.batched`) runs on the cluster's loop in
continuation-passing style, with a :class:`SlotPool` for each device's
compute slots and each requester's uplink.

Work waits in one of three places:

- the **ready** queue: delay-zero work for the current instant, FIFO;
- the **heap**: every timed entry pushed one at a time;
- the **stream**: one :meth:`FlatEventLoop.feed` of a nondecreasing time
  sequence — a replay's sorted arrival trace — read through a cursor, so
  an item costs no tuple, no seq int and no float until it is dispatched.

Entries run in ``(time, insertion-order)`` order, so simultaneous entries
run FIFO.  A feed reserves one consecutive block of seqs, so the stream's
items are sorted by ``(time, seq)`` by construction, and dispatching the
smaller of the heap top and the cursor's item replays exactly the order one
heap holding both would give.  :func:`default_max_events` is the livelock
guard.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import islice
from operator import le
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

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
    not spuriously killed while a buggy two-callback ping-pong loop still is.
    """
    return max(MIN_MAX_EVENTS, EVENTS_PER_SCHEDULED * pending)


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

        Hitting ``max_events`` dispatched entries raises: it guards against
        runaway loops.  ``None`` derives the cap from the entries scheduled
        at entry via :func:`default_max_events`.
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


class SlotPool:
    """``capacity`` FIFO slots on a :class:`FlatEventLoop`.

    A device's compute slots and a requester's uplink NIC: a one-slot pool
    serializes its users (the shared-module queueing of the paper's
    Table X), while the GPU server's two slots let two encoders overlap.
    :meth:`acquire` runs its continuation one zero-delay hop later when a
    slot is free, or queues it; :meth:`release` hands the slot straight to
    the oldest waiter, again one hop later, so a grant is always an event.
    """

    __slots__ = ("loop", "capacity", "in_use", "_waiters")

    def __init__(self, loop: FlatEventLoop, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.loop = loop
        self.capacity = capacity
        #: Slots held, including ones granted but not yet dispatched.
        self.in_use = 0
        self._waiters: Deque[Tuple[Callable[..., None], Tuple[Any, ...]]] = deque()

    @property
    def queue_length(self) -> int:
        """Continuations waiting for a slot."""
        return len(self._waiters)

    def acquire(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` once a slot is held by the caller."""
        if self.in_use < self.capacity:
            self.in_use += 1
            self.loop.push(0.0, fn, *args)
        else:
            self._waiters.append((fn, args))

    def release(self) -> None:
        """Give one slot back, granting it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError("release() without a matching acquire()")
        if self._waiters:
            fn, args = self._waiters.popleft()
            self.loop.push(0.0, fn, *args)
        else:
            self.in_use -= 1
