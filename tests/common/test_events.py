"""Tests for the discrete-event queue."""

import pytest

from repro.common.errors import SimulationError
from repro.common.events import EventQueue


class TestScheduling:
    def test_fires_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(5, fired.append, "late")
        q.schedule(3, fired.append, "early")
        q.run_until(10)
        assert fired == ["early", "late"]

    def test_same_time_fires_in_fifo_order(self):
        q = EventQueue()
        fired = []
        for tag in ("a", "b", "c"):
            q.schedule(7, fired.append, tag)
        q.run_until(7)
        assert fired == ["a", "b", "c"]

    def test_event_beyond_window_not_fired(self):
        q = EventQueue()
        fired = []
        q.schedule(11, fired.append, "x")
        q.run_until(10)
        assert fired == []
        assert len(q) == 1

    def test_event_at_window_boundary_fires(self):
        q = EventQueue()
        fired = []
        q.schedule(10, fired.append, "x")
        q.run_until(10)
        assert fired == ["x"]

    def test_scheduling_in_past_raises(self):
        q = EventQueue()
        q.schedule(5, lambda: None)
        q.run_until(5)
        with pytest.raises(SimulationError):
            q.schedule(4, lambda: None)

    def test_scheduling_at_now_is_allowed(self):
        q = EventQueue()
        q.run_until(5)
        fired = []
        q.schedule(5, fired.append, "x")
        q.run_until(5)
        assert fired == ["x"]

    def test_multiple_args_passed(self):
        q = EventQueue()
        seen = []
        q.schedule(1, lambda a, b, c: seen.append((a, b, c)), 1, 2, 3)
        q.run_until(1)
        assert seen == [(1, 2, 3)]


class TestEmptyHeapFastPath:
    def test_empty_queue_advances_now(self):
        q = EventQueue()
        assert q.run_until(42) == 0  # nothing fired
        assert q.now == 42

    def test_head_beyond_window_advances_now_without_firing(self):
        q = EventQueue()
        fired = []
        q.schedule(100, fired.append, "x")
        assert q.run_until(50) == 0
        assert q.now == 50
        assert fired == []
        assert len(q) == 1

    def test_fast_path_then_past_scheduling_still_raises(self):
        q = EventQueue()
        q.run_until(10)  # empty-heap early-out must still move the clock
        with pytest.raises(SimulationError):
            q.schedule(9, lambda: None)


class TestCascading:
    def test_event_scheduling_event_within_window(self):
        q = EventQueue()
        fired = []

        def first():
            fired.append("first")
            q.schedule(8, lambda: fired.append("second"))

        q.schedule(3, first)
        q.run_until(10)
        assert fired == ["first", "second"]

    def test_cascade_beyond_window_deferred(self):
        q = EventQueue()
        fired = []
        q.schedule(3, lambda: q.schedule(20, fired.append, "late"))
        q.run_until(10)
        assert fired == []
        q.run_until(20)
        assert fired == ["late"]

    def test_now_tracks_fired_event_time(self):
        q = EventQueue()
        times = []
        q.schedule(4, lambda: times.append(q.now))
        q.schedule(9, lambda: times.append(q.now))
        q.run_until(15)
        assert times == [4, 9]
        assert q.now == 15


class TestNextTime:
    def test_empty_queue_returns_none(self):
        assert EventQueue().peek_time() is None

    def test_reports_earliest(self):
        q = EventQueue()
        q.schedule(9, lambda: None)
        q.schedule(4, lambda: None)
        assert q.peek_time() == 4

    def test_run_until_counts_fired_events(self):
        q = EventQueue()
        for t in (2, 3, 3, 30):
            q.schedule(t, lambda: None)
        assert q.run_until(10) == 3
        assert q.run_until(30) == 1
        assert q.run_until(40) == 0

    def test_run_all_drains_everything(self):
        q = EventQueue()
        fired = []
        for t in (5, 1, 9):
            q.schedule(t, fired.append, t)
        end = q.run_all()
        assert fired == [1, 5, 9]
        assert end == 9
        assert len(q) == 0

    def test_run_all_limit_catches_runaway(self):
        q = EventQueue()

        def respawn():
            q.schedule(q.now + 1, respawn)

        q.schedule(0, respawn)
        with pytest.raises(SimulationError):
            q.run_all(limit=100)


class TestSameCycleOrderingRegression:
    """Pins the same-cycle tie-break contract: insertion order, always.

    Schedulers and controllers rely on FIFO ordering among events at
    one cycle (the `_seq` heap field); these tests freeze that
    behaviour so an event-queue refactor cannot silently reshuffle
    same-cycle work.
    """

    def test_insertion_order_survives_interleaved_pops(self):
        q = EventQueue()
        fired = []
        q.schedule(5, fired.append, "a")
        q.schedule(5, fired.append, "b")
        q.run_until(4)  # moves the clock without firing anything
        q.schedule(5, fired.append, "c")
        q.run_until(5)
        assert fired == ["a", "b", "c"]

    def test_cascaded_same_cycle_events_fire_after_queued_ones(self):
        q = EventQueue()
        fired = []

        def first():
            fired.append("first")
            # Scheduled *at the current cycle* mid-fire: runs after
            # everything already queued for this cycle.
            q.schedule(3, fired.append, "cascade")

        q.schedule(3, first)
        q.schedule(3, fired.append, "second")
        q.run_until(3)
        assert fired == ["first", "second", "cascade"]

    def test_order_independent_of_callable_identity(self):
        # Heap entries carry (time, seq, fn, args); seq must decide
        # ties before fn ever gets compared.
        q = EventQueue()
        fired = []

        def make(tag):
            def fn():
                fired.append(tag)
            return fn

        callables = [make(i) for i in (3, 1, 2, 0)]
        for fn in callables:
            q.schedule(9, fn)
        q.run_until(9)
        assert fired == [3, 1, 2, 0]

    def test_run_all_preserves_same_cycle_fifo(self):
        q = EventQueue()
        fired = []
        for tag in ("x", "y", "z"):
            q.schedule(2, fired.append, tag)
        q.schedule(1, fired.append, "w")
        q.run_all()
        assert fired == ["w", "x", "y", "z"]


class TestHeavyLoad:
    def test_many_events_fire_in_order(self):
        import random

        q = EventQueue()
        rng = random.Random(5)
        fired = []
        times = [rng.randrange(10000) for _ in range(5000)]
        for t in times:
            q.schedule(t, fired.append, t)
        q.run_all()
        assert fired == sorted(times)
        assert len(fired) == 5000

    def test_len_tracks_pending(self):
        q = EventQueue()
        for t in range(10):
            q.schedule(t, lambda: None)
        assert len(q) == 10
        q.run_until(4)
        assert len(q) == 5
