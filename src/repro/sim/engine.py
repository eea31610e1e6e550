"""Discrete-event simulation engine.

A minimal but complete event scheduler in the style of PeerSim's
event-driven mode: a priority queue of timestamped callbacks with stable
FIFO ordering for simultaneous events, cancellation, and bounded runs.
Time is a float in seconds.

Heap entries are ``(time, sequence, event)`` tuples. The sequence number
is unique, so tuple comparison never reaches the event: every heap
operation compares two floats or two ints in C, and :class:`Event`
defines no ordering at all.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class Event:
    """A scheduled callback; cancel via :meth:`Simulator.cancel`.

    Its time and sequence number live in the heap entry, not here.
    """

    __slots__ = ("callback", "cancelled", "executed")

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback = callback
        self.cancelled = False
        self.executed = False


class Simulator:
    """Event loop: schedule callbacks and run them in timestamp order.

    Parameters
    ----------
    compaction_threshold:
        Cancelled events are only flagged, not removed from the heap (heap
        deletion is O(n)). Under heavy churn — retry timers armed and then
        cancelled for every forward — the heap can grow far beyond the
        live event count. Once at least this many cancelled events sit in
        the heap *and* they outnumber the live ones, the heap is compacted
        (filter + re-heapify, O(n)); amortized cost stays O(1) per cancel.
    """

    __slots__ = (
        "_events",
        "_sequence",
        "_now",
        "_processed",
        "_pending",
        "_cancelled_in_heap",
        "compaction_threshold",
        "_compactions",
    )

    def __init__(self, compaction_threshold: int = 4096) -> None:
        self._events: List[Tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0
        # Live count of scheduled, non-cancelled, not-yet-executed events.
        # Maintained incrementally so ``pending_events`` never scans the heap.
        self._pending = 0
        # Cancelled events still sitting in the heap, and how often the
        # heap has been compacted (telemetry for the regression test).
        self._cancelled_in_heap = 0
        self.compaction_threshold = compaction_threshold
        self._compactions = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* to run *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* at absolute simulated *time*."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        event = Event(callback)
        heapq.heappush(self._events, (time, next(self._sequence), event))
        self._pending += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (safe to call more than once)."""
        if event.cancelled or event.executed:
            return
        event.cancelled = True
        self._pending -= 1
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= self.compaction_threshold
            and self._cancelled_in_heap * 2 >= len(self._events)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from the heap and restore heap order."""
        self._events = [
            entry for entry in self._events if not entry[2].cancelled
        ]
        heapq.heapify(self._events)
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

    def step(self) -> bool:
        """Execute the next pending event; returns False if none remain."""
        while self._events:
            time, _, event = heapq.heappop(self._events)
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            event.executed = True
            self._pending -= 1
            self._now = time
            self._processed += 1
            event.callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, *until* passes, or the budget ends.

        With ``until`` given, the clock is left at exactly ``until`` even if
        the queue drained earlier, so periodic measurements stay aligned.
        """
        executed = 0
        while self._events:
            if max_events is not None and executed >= max_events:
                return
            time, _, head = self._events[0]
            if head.cancelled:
                heapq.heappop(self._events)
                self._cancelled_in_heap -= 1
                continue
            if until is not None and time > until:
                break
            self.step()
            executed += 1
        if until is not None and self._now < until:
            self._now = until

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest live event, or None when idle.

        Used by the sharded engine to fast-forward over empty lookahead
        windows; prunes cancelled events encountered at the heap head.
        """
        while self._events and self._events[0][2].cancelled:
            heapq.heappop(self._events)
            self._cancelled_in_heap -= 1
        return self._events[0][0] if self._events else None

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
