"""The discrete-event simulation kernel: events, processes, clock."""

import heapq
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FlatEventLoop, Simulator, Timeout


class TestSimulatorBasics:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="non-negative"):
            sim.schedule_event(sim.event(), delay=float("nan"))
        with pytest.raises(ValueError, match="non-negative"):
            sim.timeout(float("nan"))
        assert sim.run() == 0.0  # nothing was scheduled

    def test_run_until_stops_early(self):
        sim = Simulator()
        sim.timeout(10.0)
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_run_until_leaves_queue_intact(self):
        # Stopping early must not drop the pending event: resuming run()
        # still fires it at its original time.
        sim = Simulator()
        event = sim.timeout(10.0, value="later")
        sim.run(until=3.0)
        assert not event.processed
        sim.run()
        assert sim.now == 10.0
        assert event.processed
        assert event.value == "later"

    def test_run_until_between_events_processes_due_ones(self):
        sim = Simulator()
        first = sim.timeout(1.0)
        second = sim.timeout(5.0)
        sim.run(until=2.0)
        assert first.processed
        assert not second.processed
        assert sim.now == 2.0

    def test_step_without_events_raises(self):
        with pytest.raises(RuntimeError):
            Simulator().step()

    def test_events_fifo_at_same_time(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            event = sim.timeout(1.0, value=tag)
            event.add_callback(lambda e: order.append(e.value))
        sim.run()
        assert order == ["a", "b", "c"]


class TestProcesses:
    def test_process_returns_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return 42

        assert sim.run_process(proc()) == 42

    def test_yield_receives_timeout_value(self):
        sim = Simulator()

        def proc():
            got = yield sim.timeout(0.5, value="payload")
            return got

        assert sim.run_process(proc()) == "payload"

    def test_timeout_value_default_none(self):
        sim = Simulator()

        def proc():
            got = yield sim.timeout(0.5)
            return got

        assert sim.run_process(proc()) is None

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return sim.now

        assert sim.run_process(proc()) == 3.0

    def test_process_waiting_on_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2.0)
            return "done"

        def parent():
            result = yield sim.process(child())
            return (result, sim.now)

        assert sim.run_process(parent()) == ("done", 2.0)

    def test_yielding_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 5

        sim.process(bad())
        with pytest.raises(TypeError):
            sim.run()


class TestConditions:
    def test_all_of_waits_for_slowest(self):
        sim = Simulator()

        def proc():
            yield sim.all_of([sim.timeout(1.0), sim.timeout(3.0), sim.timeout(2.0)])
            return sim.now

        assert sim.run_process(proc()) == 3.0

    def test_all_of_collects_values(self):
        sim = Simulator()

        def proc():
            values = yield sim.all_of([sim.timeout(1.0, "a"), sim.timeout(2.0, "b")])
            return values

        assert sim.run_process(proc()) == ["a", "b"]

    def test_any_of_fires_on_fastest(self):
        sim = Simulator()

        def proc():
            yield sim.any_of([sim.timeout(5.0), sim.timeout(1.0)])
            return sim.now

        assert sim.run_process(proc()) == 1.0

    def test_all_of_empty_fires_immediately(self):
        sim = Simulator()

        def proc():
            yield sim.all_of([])
            return sim.now

        assert sim.run_process(proc()) == 0.0

    def test_any_of_empty_rejected(self):
        # "Any of nothing" can never fire; waiting on it would deadlock.
        sim = Simulator()
        with pytest.raises(ValueError, match="at least one event"):
            sim.any_of([])

    def test_any_of_delivers_first_value(self):
        sim = Simulator()

        def proc():
            value = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
            return value

        assert sim.run_process(proc()) == "fast"


class TestEventSemantics:
    def test_double_succeed_raises(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(RuntimeError):
            event.succeed(2)

    def test_callback_after_processed_runs_immediately(self):
        sim = Simulator()
        event = sim.timeout(0.0, value="x")
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_max_events_guard(self):
        sim = Simulator()

        def livelock():
            while True:
                yield sim.timeout(0.0)

        sim.process(livelock())
        with pytest.raises(RuntimeError, match="events"):
            sim.run(max_events=100)


class TestDefaultMaxEvents:
    def test_floor_preserved_for_small_queues(self):
        from repro.sim import default_max_events
        from repro.sim.simulator import MIN_MAX_EVENTS

        assert default_max_events(0) == MIN_MAX_EVENTS
        assert default_max_events(1) == MIN_MAX_EVENTS

    def test_scales_with_scheduled_work(self):
        from repro.sim import default_max_events
        from repro.sim.simulator import EVENTS_PER_SCHEDULED, MIN_MAX_EVENTS

        pending = 10_000_000
        assert default_max_events(pending) == EVENTS_PER_SCHEDULED * pending
        assert default_max_events(pending) > MIN_MAX_EVENTS

    def test_explicit_cap_still_raises(self):
        sim = Simulator()

        def livelock():
            while True:
                yield sim.timeout(0.0)

        sim.process(livelock())
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run(max_events=7)


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
