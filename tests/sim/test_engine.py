"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Event, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule(1.0, lambda l=label: fired.append(l))
        sim.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append("x")))
        sim.run_until_idle()
        assert fired == ["x"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        sim.cancel(event)
        sim.run_until_idle()
        assert fired == []

    def test_cancel_twice_is_safe(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        sim.cancel(drop)
        assert sim.pending_events == 1

    def test_pending_events_counts_down_as_events_run(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.pending_events == 4
        sim.run(max_events=1)
        assert sim.pending_events == 3
        sim.run_until_idle()
        assert sim.pending_events == 0

    def test_cancel_after_execution_keeps_counter_consistent(self):
        sim = Simulator()
        executed = sim.schedule(1.0, lambda: None)
        pending = sim.schedule(2.0, lambda: None)
        sim.run(max_events=1)
        # Cancelling an event that already fired must be a no-op — in
        # particular it must not decrement the live pending counter.
        sim.cancel(executed)
        assert sim.pending_events == 1
        sim.cancel(pending)
        assert sim.pending_events == 0

    def test_pending_events_tracks_reschedules_during_run(self):
        sim = Simulator()
        observed = []

        def chain(depth):
            observed.append(sim.pending_events)
            if depth:
                sim.schedule(1.0, lambda: chain(depth - 1))

        sim.schedule(1.0, lambda: chain(3))
        sim.run_until_idle()
        # The fired event is already excluded inside its own callback.
        assert observed == [0, 0, 0, 0]
        assert sim.pending_events == 0


class TestBoundedRuns:
    def test_run_until_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0  # clock lands exactly on the bound
        sim.run(until=10.0)
        assert fired == [1, 5]

    def test_run_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_processed_events_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        assert sim.processed_events == 3


class TestHeapHygiene:
    """Cancelled-event compaction keeps the heap bounded under churn."""

    def test_compaction_bounds_heap_under_cancel_churn(self):
        # Timer-heavy churn: schedule a far-out timeout, cancel it,
        # repeat. Without compaction the heap grows linearly with the
        # number of cancelled timers; with it, heap size stays within a
        # small multiple of the threshold.
        sim = Simulator(compaction_threshold=256)
        for round_ in range(10_000):
            event = sim.schedule(1000.0 + round_, lambda: None)
            sim.cancel(event)
        assert sim.compactions > 0
        assert sim.heap_size <= 2 * 256

    def test_compaction_preserves_live_events(self):
        sim = Simulator(compaction_threshold=64)
        fired = []
        for i in range(500):
            keep = sim.schedule(float(i + 1), lambda i=i: fired.append(i))
            doomed = sim.schedule(float(i + 1) + 0.5, lambda: fired.append(-1))
            sim.cancel(doomed)
        assert sim.compactions > 0
        sim.run_until_idle()
        assert fired == list(range(500))

    def test_compaction_only_when_cancelled_dominates(self):
        # A heap full of live events never compacts, no matter how many
        # cancellations happened historically.
        sim = Simulator(compaction_threshold=8)
        for i in range(1000):
            sim.schedule(float(i + 1), lambda: None)
        for _ in range(7):
            sim.cancel(sim.schedule(5000.0, lambda: None))
        # 7 cancelled < threshold: no compaction yet.
        assert sim.compactions == 0
        assert sim.pending_events == 1000

    def test_fifo_survives_interleaved_cancels_across_compaction(self):
        # Equal timestamps, every other event cancelled: compaction
        # re-heapifies the survivors, and they must still fire in the
        # order they were scheduled.
        sim = Simulator(compaction_threshold=16)
        fired = []
        for i in range(200):
            sim.schedule(1.0, lambda i=i: fired.append(i))
            sim.cancel(sim.schedule(1.0, lambda: fired.append(-1)))
            if i % 50 == 49:
                sim.schedule(1.0, lambda i=i: fired.append(1000 + i))
        assert sim.compactions > 0
        sim.run_until_idle()
        expected = []
        for i in range(200):
            expected.append(i)
            if i % 50 == 49:
                expected.append(1000 + i)
        assert fired == expected

    def test_events_define_no_ordering(self):
        # The heap orders (time, sequence, event) tuples; sequences are
        # unique, so the event is never compared — and must not be
        # comparable, or a Python-level comparison could slip back in.
        first = Event(lambda: None)
        second = Event(lambda: None)
        with pytest.raises(TypeError):
            first < second  # noqa: B015

    def test_next_event_time_skips_cancelled_heads(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.next_event_time() == 1.0
        sim.cancel(first)
        assert sim.next_event_time() == 2.0
        assert sim.next_event_time() == 2.0  # pruning is idempotent

    def test_next_event_time_empty(self):
        sim = Simulator()
        assert sim.next_event_time() is None
        event = sim.schedule(3.0, lambda: None)
        sim.cancel(event)
        assert sim.next_event_time() is None
