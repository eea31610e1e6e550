"""Transport abstraction: the node protocol is written sans-I/O.

A :class:`Transport` gives a node three capabilities — sending a message to
an address, reading a clock, and scheduling timers. The discrete-event
simulator (:mod:`repro.sim`), the asyncio runtime
(:mod:`repro.runtime.aio`) and the in-process test harness all implement
this interface around the *identical* protocol code in
:mod:`repro.core.node`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.descriptors import Address

TimerHandle = object


class Transport:
    """Interface between a node and the outside world."""

    def send(self, sender: Address, receiver: Address, message: Any) -> None:
        """Deliver *message* to *receiver* (best effort, asynchronous)."""
        raise NotImplementedError

    def now(self) -> float:
        """Current time in seconds."""
        raise NotImplementedError

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        """Schedule ``callback(*args)`` after *delay* seconds; returns a handle.

        Passing the arguments, as asyncio's ``loop.call_later`` takes
        them, spares the caller a closure per timer.
        """
        raise NotImplementedError

    def cancel(self, handle: TimerHandle) -> None:
        """Cancel a timer created by :meth:`call_later` (idempotent)."""
        raise NotImplementedError


class _Timer:
    __slots__ = ("deadline", "sequence", "callback", "args", "cancelled")

    def __init__(
        self,
        deadline: float,
        sequence: int,
        callback: Callable[..., None],
        args: Tuple,
    ) -> None:
        self.deadline = deadline
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "_Timer") -> bool:
        return (self.deadline, self.sequence) < (other.deadline, other.sequence)


class DirectTransport(Transport):
    """Synchronous in-process transport for unit tests.

    Messages are queued and drained in FIFO order by :meth:`run`, which also
    fires due timers; time only advances when :meth:`advance` is called, so
    tests fully control both ordering and the clock. Delivery is reliable
    and instantaneous unless an address has been :meth:`disconnect`-ed.
    """

    def __init__(self) -> None:
        self._handlers: Dict[Address, Callable[[Address, Any], None]] = {}
        self._queue: deque = deque()
        self._timers: List[_Timer] = []
        self._time = 0.0
        self._sequence = itertools.count()
        self._down: set = set()

    # -- wiring ---------------------------------------------------------------

    def register(
        self, address: Address, handler: Callable[[Address, Any], None]
    ) -> None:
        """Attach a message handler (``handler(sender, message)``)."""
        self._handlers[address] = handler

    def disconnect(self, address: Address) -> None:
        """Silently drop all traffic to *address* (simulated crash)."""
        self._down.add(address)

    def reconnect(self, address: Address) -> None:
        """Resume delivery to a previously disconnected address."""
        self._down.discard(address)

    # -- Transport ------------------------------------------------------------

    def send(self, sender: Address, receiver: Address, message: Any) -> None:
        self._queue.append((sender, receiver, message))

    def now(self) -> float:
        return self._time

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        timer = _Timer(self._time + delay, next(self._sequence), callback, args)
        heapq.heappush(self._timers, timer)
        return timer

    def cancel(self, handle: TimerHandle) -> None:
        if isinstance(handle, _Timer):
            handle.cancelled = True

    # -- test driving ---------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> int:
        """Drain queued messages (breadth-first); returns messages delivered."""
        delivered = 0
        while self._queue:
            if max_steps is not None and delivered >= max_steps:
                break
            sender, receiver, message = self._queue.popleft()
            if receiver in self._down:
                continue
            handler = self._handlers.get(receiver)
            if handler is not None:
                handler(sender, message)
            delivered += 1
        return delivered

    def advance(self, seconds: float) -> None:
        """Advance the clock, firing due timers and draining messages."""
        target = self._time + seconds
        while self._timers and self._timers[0].deadline <= target:
            timer = heapq.heappop(self._timers)
            if timer.cancelled:
                continue
            self._time = max(self._time, timer.deadline)
            timer.callback(*timer.args)
            self.run()
        self._time = target
        self.run()

    @property
    def pending_messages(self) -> int:
        """Number of queued, undelivered messages."""
        return len(self._queue)

    @property
    def pending_timers(self) -> int:
        """Number of scheduled, non-cancelled timers.

        Leak-detector hook: after a query completes, every failure timer
        it armed must have been cancelled or fired, so this returns to
        zero on a quiescent transport. Cancelled timers still sitting in
        the heap (they are pruned lazily) do not count.
        """
        return sum(1 for timer in self._timers if not timer.cancelled)
