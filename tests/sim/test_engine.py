"""Unit tests for the discrete-event engine."""

import heapq

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim.engine import TIMER_WIDTH, Event, Simulator
from repro.sim.network import SimNetwork, SimTransport


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

    def test_compaction_inside_a_callback_during_run(self):
        # A callback that cancels enough heap events compacts the heap
        # while ``run`` is between pops; ``run`` must keep reading the
        # compacted heap, stop at ``until`` and leave later events queued.
        sim = Simulator(compaction_threshold=4)
        fired = []
        doomed = [sim.schedule(5.0, fired.append, "doomed") for _ in range(10)]

        def cancel_all():
            fired.append("cancel")
            for event in doomed:
                sim.cancel(event)

        sim.schedule(1.0, cancel_all)
        for i in range(3):
            sim.schedule(2.0, fired.append, i)
        sim.schedule(20.0, fired.append, "late")
        # The budget only ends a run that fails to stop at ``until``.
        sim.run(until=10.0, max_events=100)
        assert sim.compactions == 1
        assert fired == ["cancel", 0, 1, 2]
        assert sim.now == 10.0
        assert sim.pending_events == 1
        assert sim.next_event_time() == 20.0
        sim.run_until_idle()
        assert fired[-1] == "late"

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


class TestTimerWheel:
    """Timers wait in the wheel; cancelled in time, they never hit the heap."""

    def test_timer_fires_like_a_scheduled_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("event"))
        sim.schedule_timer(1.0, fired.append, "timer")
        sim.schedule(1.0, lambda: fired.append("later"))
        sim.run_until_idle()
        assert fired == ["event", "timer", "later"]
        assert sim.now == 1.0

    def test_cancelled_timer_never_enters_the_heap(self):
        sim = Simulator()
        for round_ in range(1000):
            sim.cancel(sim.schedule_timer(30.0 + round_ * 0.01, lambda: None))
        assert sim.heap_size == 0
        assert sim.pending_events == 0
        assert sim.run_until_idle() == 0
        assert sim.heap_cancellations == 0

    def test_timer_on_a_bucket_edge_keeps_fifo_order(self):
        sim = Simulator()
        fired = []
        edge = 4 * TIMER_WIDTH
        sim.schedule_timer(edge, fired.append, "timer")
        sim.schedule(edge, fired.append, "event")
        sim.run(until=edge)
        assert fired == ["timer", "event"]

    def test_run_until_leaves_later_buckets_in_the_wheel(self):
        sim = Simulator()
        timer = sim.schedule_timer(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.heap_size == 0 and sim.now == 5.0
        sim.cancel(timer)
        assert sim.heap_cancellations == 0

    def test_next_event_time_sees_the_wheel(self):
        sim = Simulator()
        sim.schedule_timer(3.0, lambda: None)
        sim.schedule(7.0, lambda: None)
        assert sim.next_event_time() == 3.0

    def test_late_cancel_counts_as_a_heap_cancellation(self):
        sim = Simulator()
        timer = sim.schedule_timer(1.0, lambda: None)
        assert sim.next_event_time() == 1.0  # its bucket moved into the heap
        sim.cancel(timer)
        assert sim.heap_cancellations == 1
        assert sim.next_event_time() is None


class _ReferenceSimulator:
    """One heap for everything: the engine before the timer wheel."""

    def __init__(self):
        self.now = 0.0
        self.processed_events = 0
        self.pending_events = 0
        self._heap = []
        self._sequence = 0

    def schedule(self, delay, callback):
        self._sequence += 1
        event = [callback, False, False]  # callback, cancelled, executed
        heapq.heappush(self._heap, (self.now + delay, self._sequence, event))
        self.pending_events += 1
        return event

    def cancel(self, event):
        if not (event[1] or event[2]):
            event[1] = True
            self.pending_events -= 1

    def _prune(self):
        while self._heap and self._heap[0][2][1]:
            heapq.heappop(self._heap)

    def step(self):
        self._prune()
        if not self._heap:
            return False
        time, _, event = heapq.heappop(self._heap)
        event[2] = True
        self.pending_events -= 1
        self.now = time
        self.processed_events += 1
        event[0]()
        return True

    def run(self, until=None, max_events=None):
        executed = 0
        while True:
            self._prune()
            if not self._heap:
                break
            if max_events is not None and executed >= max_events:
                return
            if until is not None and self._heap[0][0] > until:
                break
            self.step()
            executed += 1
        if until is not None and self.now < until:
            self.now = until

    def next_event_time(self):
        self._prune()
        return self._heap[0][0] if self._heap else None


#: Delays in 1/64 s: sums of them stay exact, so timers land exactly on
#: bucket edges (every ``TIMER_WIDTH * 64`` units) as often as inside.
ticks = st.integers(0, 4 * 64).map(lambda units: units / 64.0)
NODES = (1, 2)


class TimerWheelMachine(RuleBasedStateMachine):
    """The wheel engine against the single-heap reference, step for step.

    Every operation runs on both; the order of fired callbacks, the clock,
    ``processed_events`` and ``pending_events`` must agree after each.
    Transport timers go through :class:`SimTransport`, whose nodes crash
    and restart, against a reference that models the incarnation guard.
    """

    def __init__(self):
        super().__init__()
        # A low threshold, so cancels compact the heap often, callbacks
        # included.
        self.sim = Simulator(compaction_threshold=2)
        self.ref = _ReferenceSimulator()
        self.network = SimNetwork(self.sim)
        self.transports = {
            node: SimTransport(self.network, node) for node in NODES
        }
        for node in NODES:
            self.network.attach(node, lambda sender, message: None)
        self.alive = set(NODES)
        self.incarnation = {node: 1 for node in NODES}
        self.fired, self.ref_fired = [], []
        self.handles = []
        self.labels = 0

    def _label(self):
        self.labels += 1
        return self.labels

    def _callbacks(self, label):
        """A (wheel, reference) pair; odd labels re-arm a child timer."""

        def wheel():
            self.fired.append(label)
            if label % 2:
                self.sim.schedule_timer(label % 7 / 8.0, self.fired.append, -label)

        def reference():
            self.ref_fired.append(label)
            if label % 2:
                self.ref.schedule(
                    label % 7 / 8.0, lambda: self.ref_fired.append(-label)
                )

        return wheel, reference

    @rule(delay=ticks)
    def schedule(self, delay):
        wheel, reference = self._callbacks(self._label())
        self.handles.append(
            (self.sim.schedule(delay, wheel), self.ref.schedule(delay, reference))
        )

    @rule(delay=st.one_of(ticks, st.floats(0.0, 4.0)))
    def timer(self, delay):
        wheel, reference = self._callbacks(self._label())
        self.handles.append(
            (
                self.sim.schedule_timer(delay, wheel),
                self.ref.schedule(delay, reference),
            )
        )

    @rule(node=st.sampled_from(NODES), delay=ticks)
    def transport_timer(self, node, delay):
        label = self._label()
        armed = self.incarnation[node]

        def reference():
            if node in self.alive and self.incarnation[node] == armed:
                self.ref_fired.append(label)

        self.handles.append(
            (
                self.transports[node].call_later(delay, self.fired.append, label),
                self.ref.schedule(delay, reference),
            )
        )

    @rule(node=st.sampled_from(NODES))
    def crash(self, node):
        self.network.detach(node)
        self.alive.discard(node)

    @rule(node=st.sampled_from(NODES))
    def restart(self, node):
        if node not in self.alive:
            self.network.attach(node, lambda sender, message: None)
            self.alive.add(node)
            self.incarnation[node] += 1

    @rule(delay=ticks, timer=st.booleans(), data=st.data())
    def canceller(self, delay, timer, data):
        """An event whose callback cancels other handles, then sends.

        The cancels may compact the heap in the middle of a ``run``; the
        zero-delay follow-up must still run inside that same ``run``.
        """
        victims = (
            data.draw(st.lists(st.sampled_from(self.handles), max_size=12))
            if self.handles
            else []
        )
        label = self._label()

        def wheel():
            self.fired.append(label)
            for event, _ in victims:
                self.sim.cancel(event)
            self.sim.schedule(0.0, self.fired.append, -label)

        def reference():
            self.ref_fired.append(label)
            for _, event in victims:
                self.ref.cancel(event)
            self.ref.schedule(0.0, lambda: self.ref_fired.append(-label))

        arm = self.sim.schedule_timer if timer else self.sim.schedule
        self.handles.append((arm(delay, wheel), self.ref.schedule(delay, reference)))

    @rule(data=st.data())
    def cancel(self, data):
        if self.handles:
            event, reference = data.draw(st.sampled_from(self.handles))
            self.sim.cancel(event)
            self.ref.cancel(reference)

    @rule()
    def step(self):
        assert self.sim.step() == self.ref.step()

    @rule(span=ticks)
    def run_until(self, span):
        until = self.sim.now + span
        # Far above any run's event count: it only ends a run that fails
        # to stop at ``until``, so the comparison below can catch it.
        self.sim.run(until=until, max_events=10_000)
        self.ref.run(until=until, max_events=10_000)

    @rule(count=st.integers(0, 5))
    def run_budget(self, count):
        self.sim.run(max_events=count)
        self.ref.run(max_events=count)

    @rule()
    def next_event_time(self):
        assert self.sim.next_event_time() == self.ref.next_event_time()

    @invariant()
    def agree(self):
        assert self.fired == self.ref_fired
        assert self.sim.now == self.ref.now
        assert self.sim.processed_events == self.ref.processed_events
        assert self.sim.pending_events == self.ref.pending_events

    def teardown(self):
        self.sim.run_until_idle()
        self.ref.run()
        self.agree()


TimerWheelMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)
TestTimerWheelMachine = TimerWheelMachine.TestCase
