"""Slot pools: FIFO compute slots and uplinks on the flat event loop."""

import pytest

from repro.sim import FlatEventLoop, SlotPool


def _worker(loop, pool, finish, name, duration):
    """Acquire a slot, hold it ``duration`` seconds, release, log the time."""

    def granted():
        loop.push(duration, done)

    def done():
        pool.release()
        finish[name] = loop.now

    pool.acquire(granted)


class TestSlotPool:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SlotPool(FlatEventLoop(), capacity=0)

    def test_acquire_below_capacity_is_immediate(self):
        loop = FlatEventLoop()
        pool = SlotPool(loop, capacity=2)
        granted = []
        pool.acquire(lambda: granted.append(loop.now))
        loop.run()
        assert granted == [0.0]

    def test_grant_is_one_hop_later(self):
        # A free slot is granted through the ready queue, never by a
        # synchronous call: work queued before the acquire runs first.
        loop = FlatEventLoop()
        pool = SlotPool(loop, capacity=1)
        seen = []
        loop.push(0.0, seen.append, "queued first")
        pool.acquire(seen.append, "granted")
        assert seen == [] and pool.in_use == 1
        loop.run()
        assert seen == ["queued first", "granted"]

    def test_single_slot_serializes(self):
        loop = FlatEventLoop()
        pool = SlotPool(loop, capacity=1)
        finish = {}
        _worker(loop, pool, finish, "first", 2.0)
        _worker(loop, pool, finish, "second", 3.0)
        loop.run()
        assert finish == {"first": 2.0, "second": 5.0}

    def test_two_slots_overlap(self):
        loop = FlatEventLoop()
        pool = SlotPool(loop, capacity=2)
        finish = {}
        _worker(loop, pool, finish, "first", 2.0)
        _worker(loop, pool, finish, "second", 3.0)
        loop.run()
        assert finish == {"first": 2.0, "second": 3.0}

    def test_fifo_wakeup_order(self):
        loop = FlatEventLoop()
        pool = SlotPool(loop, capacity=1)
        order = []

        def worker(name):
            def granted():
                order.append(name)
                loop.push(1.0, pool.release)

            pool.acquire(granted)

        for name in ["a", "b", "c"]:
            worker(name)
        loop.run()
        assert order == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_release_without_acquire_raises(self):
        pool = SlotPool(FlatEventLoop(), capacity=1)
        with pytest.raises(RuntimeError):
            pool.release()

    def test_queue_length_tracks_waiters(self):
        loop = FlatEventLoop()
        pool = SlotPool(loop, capacity=1)
        finish = {}
        _worker(loop, pool, finish, "hold", 10.0)
        _worker(loop, pool, finish, "wait", 0.0)
        seen = []
        loop.push(1.0, lambda: seen.append((pool.in_use, pool.queue_length)))
        loop.run()
        assert seen == [(1, 1)]
        assert (pool.in_use, pool.queue_length) == (0, 0)
        assert finish == {"hold": 10.0, "wait": 10.0}
