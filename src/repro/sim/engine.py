"""Discrete-event simulation engine.

A minimal but complete event scheduler in the style of PeerSim's
event-driven mode: a priority queue of timestamped callbacks with stable
FIFO ordering for simultaneous events, cancellation, and bounded runs.
Time is a float in seconds.

Heap entries are ``(time, sequence, event)`` tuples. The sequence number
is unique, so tuple comparison never reaches the event: every heap
operation compares two floats or two ints in C, and :class:`Event`
defines no ordering at all.

Timers armed with :meth:`Simulator.schedule_timer` — failure timers that a
reply almost always cancels — wait in a bucketed *wheel* beside the heap.
A bucket spans :data:`TIMER_WIDTH` seconds; before any event at or after a
bucket's start is popped, the bucket's live timers move into the heap with
the ``(time, sequence)`` they were given when armed. The heap therefore
pops exactly what it would have popped had every timer been pushed at arm
time, while a timer cancelled before its bucket comes due never touches
the heap at all.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Seconds spanned by one timer-wheel bucket. A power of two, so the
#: bucket index ``int(time * _BUCKETS_PER_SECOND)`` and the bucket start
#: ``index * TIMER_WIDTH`` are exact in floating point.
TIMER_WIDTH = 2.0**-3
_BUCKETS_PER_SECOND = 1.0 / TIMER_WIDTH
_INF = float("inf")

HeapEntry = Tuple[float, int, "Event"]


class Event:
    """A scheduled callback; cancel via :meth:`Simulator.cancel`.

    Its time and sequence number live in the heap entry, not here.
    ``in_wheel`` is True while a timer waits in the wheel, not the heap.
    """

    __slots__ = ("callback", "args", "cancelled", "executed", "in_wheel")

    def __init__(self, callback: Callable[..., None], args: Tuple = ()) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.executed = False
        self.in_wheel = False


class Simulator:
    """Event loop: schedule callbacks and run them in timestamp order.

    ``now`` is the current simulated time in seconds; only the simulator
    advances it.

    Parameters
    ----------
    compaction_threshold:
        Cancelled events are only flagged, not removed from the heap (heap
        deletion is O(n)). Once at least this many cancelled events sit in
        the heap *and* they outnumber the live ones, the heap is compacted
        (filter + re-heapify, O(n)); amortized cost stays O(1) per cancel.
        Timers cancelled while still in the wheel never count here.
    """

    __slots__ = (
        "now",
        "_events",
        "_sequence",
        "_processed",
        "_pending",
        "_wheel",
        "_wheel_keys",
        "_wheel_next",
        "_cancelled_in_heap",
        "_heap_cancellations",
        "compaction_threshold",
        "_compactions",
    )

    def __init__(self, compaction_threshold: int = 4096) -> None:
        self.now = 0.0
        self._events: List[HeapEntry] = []
        #: The last sequence number handed out (FIFO among equal times).
        self._sequence = 0
        self._processed = 0
        # Live count of scheduled, non-cancelled, not-yet-executed events
        # (wheel timers included). Maintained incrementally so
        # ``pending_events`` never scans the heap or the wheel.
        self._pending = 0
        # The timer wheel: bucket index -> entries armed into it, a heap
        # of the bucket indices, and the earliest bucket's start time.
        self._wheel: Dict[int, List[HeapEntry]] = {}
        self._wheel_keys: List[int] = []
        self._wheel_next = _INF
        # Cancelled events still sitting in the heap, every cancellation
        # that hit the heap, and how often the heap has been compacted
        # (telemetry for the regression tests).
        self._cancelled_in_heap = 0
        self._heap_cancellations = 0
        self.compaction_threshold = compaction_threshold
        self._compactions = 0

    @property
    def processed_events(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Event(callback, args)
        self._sequence += 1
        heapq.heappush(self._events, (self.now + delay, self._sequence, event))
        self._pending += 1
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated *time*."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        event = Event(callback, args)
        self._sequence += 1
        heapq.heappush(self._events, (time, self._sequence, event))
        self._pending += 1
        return event

    def schedule_timer(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Arm a timer for ``callback(*args)`` *delay* seconds from now.

        Runs exactly when :meth:`schedule` would have run it, but waits in
        the wheel until its bucket comes due, so cancelling it before then
        costs no heap entry.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        time = self.now + delay
        event = Event(callback, args)
        self._sequence += 1
        entry = (time, self._sequence, event)
        self._pending += 1
        key = int(time * _BUCKETS_PER_SECOND)
        start = key * TIMER_WIDTH
        if start <= self.now:
            # The bucket is due before the next pop anyway.
            heapq.heappush(self._events, entry)
            return event
        event.in_wheel = True
        bucket = self._wheel.get(key)
        if bucket is None:
            bucket = self._wheel[key] = []
            heapq.heappush(self._wheel_keys, key)
            if start < self._wheel_next:
                self._wheel_next = start
        bucket.append(entry)
        return event

    def _flush_timers(self) -> None:
        """Move the earliest bucket's live timers into the heap, as armed."""
        keys = self._wheel_keys
        bucket = self._wheel.pop(heapq.heappop(keys))
        self._wheel_next = keys[0] * TIMER_WIDTH if keys else _INF
        events = self._events
        for entry in bucket:
            event = entry[2]
            if not event.cancelled:
                event.in_wheel = False
                heapq.heappush(events, entry)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (safe to call more than once)."""
        if event.cancelled or event.executed:
            return
        event.cancelled = True
        self._pending -= 1
        if event.in_wheel:
            return  # its bucket drops it when it comes due
        self._cancelled_in_heap += 1
        self._heap_cancellations += 1
        if (
            self._cancelled_in_heap >= self.compaction_threshold
            and self._cancelled_in_heap * 2 >= len(self._events)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from the heap and restore heap order.

        Works in place: :meth:`step`, :meth:`run` and :meth:`next_event_time`
        hold the heap list across callbacks, and a callback may cancel.
        """
        events = self._events
        events[:] = [entry for entry in events if not entry[2].cancelled]
        heapq.heapify(events)
        self._cancelled_in_heap = 0
        self._compactions += 1

    @property
    def heap_size(self) -> int:
        """Raw heap length, including not-yet-compacted cancelled events."""
        return len(self._events)

    @property
    def compactions(self) -> int:
        """How many times the heap has been compacted."""
        return self._compactions

    @property
    def heap_cancellations(self) -> int:
        """Cancellations that hit an event already in the heap.

        A wheel timer cancelled before its bucket comes due is not one.
        """
        return self._heap_cancellations

    def step(self) -> bool:
        """Execute the next pending event; returns False if none remain."""
        events = self._events
        while True:
            if events:
                if events[0][0] >= self._wheel_next:
                    self._flush_timers()
                    continue
            elif self._wheel_keys:
                self._flush_timers()
                continue
            else:
                return False
            time, _, event = heapq.heappop(events)
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            event.executed = True
            self._pending -= 1
            self.now = time
            self._processed += 1
            event.callback(*event.args)
            return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, *until* passes, or the budget ends.

        With ``until`` given, the clock is left at exactly ``until`` even if
        the queue drained earlier, so periodic measurements stay aligned.
        Wheel buckets that start after ``until`` stay in the wheel.
        """
        limit = _INF if until is None else until
        executed = 0
        events = self._events
        while True:
            due = self._wheel_next
            if (
                self._wheel_keys
                and due <= limit
                and (not events or events[0][0] >= due)
            ):
                self._flush_timers()
                continue
            if not events:
                break
            if max_events is not None and executed >= max_events:
                return
            time, _, event = events[0]
            if event.cancelled:
                heapq.heappop(events)
                self._cancelled_in_heap -= 1
                continue
            if time > limit:
                break
            self.step()
            executed += 1
        if until is not None and self.now < until:
            self.now = until

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest live event, or None when idle.

        Used by the sharded engine to fast-forward over empty lookahead
        windows; prunes cancelled events encountered at the heap head and
        moves the wheel's earliest bucket into the heap when it could hold
        the answer.
        """
        events = self._events
        while True:
            if events:
                time, _, event = events[0]
                if time >= self._wheel_next:
                    self._flush_timers()
                elif event.cancelled:
                    heapq.heappop(events)
                    self._cancelled_in_heap -= 1
                else:
                    return time
            elif self._wheel_keys:
                self._flush_timers()
            else:
                return None

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain; returns the number executed."""
        executed = 0
        while executed < max_events and self.step():
            executed += 1
        return executed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events still queued (O(1))."""
        return self._pending
