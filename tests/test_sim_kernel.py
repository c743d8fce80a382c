"""The discrete-event simulation kernel: the flat loop, its clock and guard."""

import heapq
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FlatEventLoop


class TestClock:
    def test_clock_starts_at_zero(self):
        assert FlatEventLoop().now == 0.0

    def test_push_advances_clock(self):
        loop = FlatEventLoop()
        loop.push(2.5, lambda: None)
        assert loop.run() == 2.5
        assert loop.now == 2.5

    def test_clock_persists_across_runs(self):
        # A cluster's loop serves several executor calls in turn.
        loop = FlatEventLoop()
        loop.push(2.0, lambda: None)
        loop.run()
        seen = []
        loop.push(1.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [3.0]


class TestDefaultMaxEvents:
    def test_floor_preserved_for_small_queues(self):
        from repro.sim import default_max_events
        from repro.sim.flat import MIN_MAX_EVENTS

        assert default_max_events(0) == MIN_MAX_EVENTS
        assert default_max_events(1) == MIN_MAX_EVENTS

    def test_scales_with_scheduled_work(self):
        from repro.sim import default_max_events
        from repro.sim.flat import EVENTS_PER_SCHEDULED, MIN_MAX_EVENTS

        pending = 10_000_000
        assert default_max_events(pending) == EVENTS_PER_SCHEDULED * pending
        assert default_max_events(pending) > MIN_MAX_EVENTS

    def test_explicit_cap_still_raises(self):
        loop = FlatEventLoop()

        def livelock():
            loop.push(1.0, livelock)

        loop.push(0.0, livelock)
        with pytest.raises(RuntimeError, match="livelock"):
            loop.run(max_events=7)
        assert loop.now == 6.0


class TestFlatEventLoop:
    def test_fifo_at_same_time(self):
        from repro.sim import FlatEventLoop

        loop = FlatEventLoop()
        seen = []
        loop.push(1.0, seen.append, "b")
        loop.push(0.0, seen.append, "a")
        loop.push(1.0, seen.append, "c")
        loop.run()
        assert seen == ["a", "b", "c"]
        assert loop.now == 1.0

    def test_handlers_can_push_more_work(self):
        from repro.sim import FlatEventLoop

        loop = FlatEventLoop()
        seen = []

        def chain(n):
            seen.append((loop.now, n))
            if n:
                loop.push(0.5, chain, n - 1)

        loop.push(0.0, chain, 3)
        loop.run()
        assert seen == [(0.0, 3), (0.5, 2), (1.0, 1), (1.5, 0)]

    def test_negative_delay_rejected(self):
        from repro.sim import FlatEventLoop

        with pytest.raises(ValueError):
            FlatEventLoop().push(-0.1, lambda: None)

    def test_livelock_guard(self):
        from repro.sim import FlatEventLoop

        loop = FlatEventLoop()

        def spin():
            loop.push(0.0, spin)

        loop.push(0.0, spin)
        with pytest.raises(RuntimeError, match="livelock"):
            loop.run(max_events=50)

    def test_nan_times_rejected(self):
        loop = FlatEventLoop()
        with pytest.raises(ValueError, match="non-negative"):
            loop.push(float("nan"), lambda: None)
        with pytest.raises(ValueError, match="must be a number"):
            loop.push_at(float("nan"), lambda: None)
        assert len(loop) == 0
        assert loop.run() == 0.0

    def test_past_time_rejected(self):
        loop = FlatEventLoop()
        loop.push(1.0, lambda: loop.push_at(0.5, lambda: None))
        with pytest.raises(ValueError, match=">= now"):
            loop.run()

    def test_sub_ulp_delay_runs_after_earlier_ready_entries(self):
        # now + 1e-18 == now: a same-time push, FIFO behind the ready queue.
        loop = FlatEventLoop()
        seen = []
        loop.push(0.0, seen.append, "a")
        loop.push(1e-18, seen.append, "b")
        loop.push(1.0, lambda: (loop.push(0.0, seen.append, "c"),
                                loop.push(1e-18, seen.append, "d")))
        loop.run()
        assert seen == ["a", "b", "c", "d"]
        assert loop.now == 1.0

    def test_len_counts_stream_items(self):
        loop = FlatEventLoop()
        lens = []
        loop.feed([1.0, 2.0, 2.0, 3.0], lambda key: lens.append(len(loop)), "abcd")
        loop.push_at(0.5, lambda: None)        # the heap
        loop.push(0.0, lambda: None)           # now: the ready queue
        assert (loop._cursor, len(loop._heap), len(loop._ready)) == (0, 1, 1)
        assert len(loop) == 6
        loop.run()
        assert lens == [3, 2, 1, 0]            # unfed items still count
        assert len(loop) == 0

    def test_livelock_cap_counts_stream_items(self, monkeypatch):
        import repro.sim.flat as flat

        real, seen = flat.default_max_events, []
        monkeypatch.setattr(
            flat, "default_max_events", lambda pending: seen.append(pending) or real(pending)
        )
        loop = FlatEventLoop()
        loop.feed([1.0 + i for i in range(5)], lambda key: None, range(5))
        loop.run()
        assert seen == [5]

    @pytest.mark.parametrize(
        "times, match",
        [
            ([float("nan")], ">= now"),
            ([1.0, float("nan"), 2.0], "nondecreasing"),
            ([1.0, float("nan")], "nondecreasing"),
            ([2.0, 1.0], "nondecreasing"),
            ([0.5], ">= now"),
        ],
    )
    def test_feed_rejects_bad_times(self, times, match):
        loop = FlatEventLoop()
        loop.push(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError, match=match):
            loop.feed(times, lambda key: None, range(len(times)))
        assert len(loop) == 0
        assert loop.run() == 1.0

    def test_feed_needs_an_idle_loop(self):
        loop = FlatEventLoop()
        with pytest.raises(ValueError, match="keys"):
            loop.feed([1.0, 2.0], lambda key: None, [0])
        loop.feed([1.0], lambda key: loop.feed([2.0], lambda key: None, [0]), [0])
        with pytest.raises(RuntimeError, match="no unfed stream"):
            loop.feed([1.0], lambda key: None, [0])
        with pytest.raises(RuntimeError, match="idle loop"):
            loop.run()

    def test_feed_at_now_queues_behind_ready_entries(self):
        # As push_at(now) would: same-time items join the ready queue.
        loop = FlatEventLoop()
        seen = []
        loop.push(0.0, seen.append, "ready")
        loop.feed([0.0, 0.0, 1.0], seen.append, ["s0", "s1", "s2"])
        loop.push(0.0, seen.append, "later")
        loop.run()
        assert seen == ["ready", "s0", "s1", "later", "s2"]

    def test_spent_stream_releases_its_sequences(self):
        import weakref
        from array import array

        times = array("d", [1.0, 2.0])
        released = weakref.ref(times)
        loop = FlatEventLoop()
        loop.feed(memoryview(times), lambda key: None, range(2))
        del times
        assert released() is not None
        loop.run()
        assert released() is None
        loop.feed([3.0], lambda key: None, [0])   # the loop takes a new stream
        assert loop.run() == 3.0

    def test_feed_allocates_nothing_per_item(self):
        import tracemalloc
        from array import array

        n = 100_000
        times = array("d", (i * 0.01 for i in range(n)))
        keys = range(n)
        count = [0]

        def on_item(key):
            count[0] += 1

        loop = FlatEventLoop()
        tracemalloc.start()
        try:
            loop.feed(memoryview(times), on_item, keys)
            loop.run()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count[0] == n
        assert peak < 2_000_000


# ----------------------------------------------------------------------
# Dispatch order: the stream-fed loop against a single-heap reference
# ----------------------------------------------------------------------
class _ReferenceLoop:
    """The flat loop as one heap for every timed entry plus the same-time
    ready queue, with no arrival stream.  Kept as the ordering oracle."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._ready = deque()
        self._seq = 0

    def push(self, delay, fn, *args):
        if self.now + delay == self.now:
            self._ready.append((fn, args))
            return
        assert delay > 0
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def push_at(self, time, fn, *args):
        if time == self.now:
            self._ready.append((fn, args))
            return
        assert time > self.now
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    def run(self):
        heap, ready, now = self._heap, self._ready, self.now
        while True:
            if ready:
                if heap and heap[0][0] == now:
                    _time, _seq, fn, args = heapq.heappop(heap)
                else:
                    fn, args = ready.popleft()
            elif heap:
                time, _seq, fn, args = heapq.heappop(heap)
                self.now = now = time
            else:
                break
            fn(*args)
        return self.now


#: Offsets on a binary grid so sums stay exact and collide (ties, including
#: ``time == now`` for a zero offset), plus one far below an ulp of ``now``.
OFFSETS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.75, 1e-18])
#: A program is a tuple of (kind, offset, program): the child program runs
#: when the entry is dispatched, so handlers push more work.
PROGRAMS = st.recursive(
    st.just(()),
    lambda children: st.lists(
        st.tuples(st.sampled_from(["push", "push_at"]), OFFSETS, children),
        max_size=4,
    ).map(tuple),
    max_leaves=40,
)
#: Up-front absolute times, like a replay's arrival trace.
TIMES = st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 4.0, 7.75]), max_size=25)


def _dispatch_order(loop, times, sort, program, program_first):
    """Run ``program`` plus one arrival per entry of ``times`` (in trace
    order).  ``FlatEventLoop`` gets the arrivals through ``feed``, in stable
    time order as the serving engine feeds them; the reference pushes each
    one with ``push_at``."""
    log = []
    times = sorted(times) if sort else times

    def fire(tag, children):
        log.append((tag, loop.now))
        schedule(children, tag)

    def schedule(children, parent):
        for i, (kind, offset, grandchildren) in enumerate(children):
            tag = f"{parent}.{i}"
            if kind == "push":
                loop.push(offset, fire, tag, grandchildren)
            else:
                loop.push_at(loop.now + offset, fire, tag, grandchildren)

    def arrive(i):
        fire(f"a{i}", program if i == 0 else ())

    if program_first:
        schedule(program, "p")
    if isinstance(loop, FlatEventLoop):
        order = sorted(range(len(times)), key=times.__getitem__)
        loop.feed([times[i] for i in order], arrive, order)
    else:
        for i, time in enumerate(times):
            loop.push_at(time, arrive, i)
    if not program_first:
        schedule(program, "p")
    final = loop.run()
    return log, final, loop.now


class TestFlatEventLoopOrdering:
    @settings(max_examples=300, deadline=None)
    @given(times=TIMES, sort=st.booleans(), program=PROGRAMS,
           program_first=st.booleans())
    def test_matches_single_heap_reference(self, times, sort, program, program_first):
        got = _dispatch_order(FlatEventLoop(), times, sort, program, program_first)
        want = _dispatch_order(_ReferenceLoop(), times, sort, program, program_first)
        assert got == want
