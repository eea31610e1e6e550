"""Simulated network: message delivery with latency, loss, and failures.

The network owns node liveness. Messages to a node that is dead at
*delivery* time vanish silently — exactly how an ungraceful departure looks
to the rest of a real system. Per-message latency comes from a pluggable
:data:`~repro.sim.latency.LatencyModel`; optional uniform message loss
models an unreliable wide-area substrate, and a pluggable fault layer
(:mod:`repro.faults`) can script partitions, burst loss, stragglers and
message duplication on top.

Loss accounting separates the two ways a message can die:

* ``messages_lost`` — substrate loss (uniform ``loss_rate`` plus any
  injected fault drops), i.e. the network ate the message;
* ``messages_dropped_dead`` — the message arrived, but the receiver had
  crashed. Conflating the two skews overhead/traffic accounting under
  churn (crashes masquerade as a lossy substrate), so they are reported
  separately.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Callable, Dict, Optional, Protocol, Set

from repro.core.descriptors import Address
from repro.core.transport import TimerHandle, Transport
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel, constant_latency, nominal_rtt

MessageHandler = Callable[[Address, Any], None]


class FaultLayer(Protocol):
    """Anything that can judge a message (see :mod:`repro.faults.model`)."""

    def apply(
        self,
        sender: Address,
        receiver: Address,
        message: Any,
        now: float,
        rng: random.Random,
    ) -> Any:
        """Judge one delivery; returns a Delivery (drop flag + delay list)."""
        ...


class SimNetwork:
    """Message fabric connecting simulated hosts."""

    def __init__(
        self,
        simulator: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.simulator = simulator
        self.latency = latency or constant_latency()
        #: The latency model's a-priori round trip (None if it advertises
        #: none), resolved once: every host seeds its health monitor
        #: from it.
        self.nominal_rtt = nominal_rtt(self.latency)
        self.loss_rate = loss_rate
        self.rng = rng or random.Random(0)
        self._handlers: Dict[Address, MessageHandler] = {}
        self._alive: Set[Address] = set()
        #: Per-address attach generation; bumped on every (re)attach so
        #: timers armed before a crash cannot fire into the next life of
        #: a restarted node (see :meth:`SimTransport.call_later`).
        self._incarnations: Dict[Address, int] = {}
        #: Scripted fault injection (None = healthy substrate).
        self.faults: Optional[FaultLayer] = None
        self.messages_sent = 0
        self.messages_delivered = 0
        #: Messages eaten by the substrate (uniform loss + injected drops).
        self.messages_lost = 0
        #: Of ``messages_lost``, how many were injected by the fault layer.
        self.messages_lost_injected = 0
        #: Messages that arrived at a crashed (detached) receiver.
        self.messages_dropped_dead = 0
        #: Extra copies delivered by the fault layer's duplication.
        self.messages_duplicated = 0
        #: Messages sent, keyed by message class name (traffic accounting).
        self.type_counts: Counter = Counter()
        #: Sharded-engine bridge (see :mod:`repro.sim.shard`). When
        #: ``local_addresses`` is set, this network instance owns only a
        #: partition of the overlay; a message whose receiver lies outside
        #: the partition is handed to ``remote_route(sender, receiver,
        #: message, arrival_time)`` instead of being scheduled locally.
        #: Latency (and loss/fault judgement) is computed sender-side so
        #: the receiving shard can inject the message at the exact
        #: arrival timestamp.
        self.local_addresses: Optional[Set[Address]] = None
        self.remote_route: Optional[
            Callable[[Address, Address, Any, float], None]
        ] = None
        #: Messages handed to the cross-shard bridge.
        self.messages_forwarded_remote = 0

    def stats(self) -> Dict[str, int]:
        """Substrate counters as one flat dict (telemetry/dash source).

        Monotonic totals, so timeline recorders can register them as
        counter sources and plot per-interval rates.
        """
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_lost": self.messages_lost,
            "messages_lost_injected": self.messages_lost_injected,
            "messages_dropped_dead": self.messages_dropped_dead,
            "messages_duplicated": self.messages_duplicated,
            "messages_forwarded_remote": self.messages_forwarded_remote,
            "alive": len(self._alive),
        }

    # -- membership ----------------------------------------------------------------

    def attach(self, address: Address, handler: MessageHandler) -> None:
        """Register a live host and its message handler."""
        self._handlers[address] = handler
        self._alive.add(address)
        self._incarnations[address] = self._incarnations.get(address, 0) + 1

    def detach(self, address: Address) -> None:
        """Remove a host (crash): all traffic to it is silently dropped."""
        self._alive.discard(address)
        self._handlers.pop(address, None)

    def is_alive(self, address: Address) -> bool:
        """True if *address* is currently attached."""
        return address in self._alive

    def incarnation(self, address: Address) -> int:
        """The attach generation of *address* (0 = never attached)."""
        return self._incarnations.get(address, 0)

    @property
    def alive_addresses(self) -> Set[Address]:
        """Snapshot of the currently live addresses."""
        return set(self._alive)

    # -- fault injection -----------------------------------------------------------

    def install_faults(self, layer: Optional[FaultLayer]) -> None:
        """Install (or, with None, remove) a scripted fault layer."""
        self.faults = layer

    def clear_faults(self) -> None:
        """Remove the fault layer (the substrate heals instantly)."""
        self.faults = None

    # -- transfer ---------------------------------------------------------------------

    def send(self, sender: Address, receiver: Address, message: Any) -> None:
        """Queue *message* for delivery after the modeled latency."""
        self.messages_sent += 1
        self.type_counts[type(message).__name__] += 1
        if (
            not self.loss_rate
            and self.faults is None
            and self.local_addresses is None
        ):
            # The direct path: no loss draw, no fault layer, no bridge.
            self.simulator.schedule(
                self.latency(sender, receiver, self.rng),
                self._deliver, sender, receiver, message,
            )
            return
        if self.loss_rate and self.rng.random() < self.loss_rate:
            self.messages_lost += 1
            return
        delay = self.latency(sender, receiver, self.rng)
        remote = (
            self.local_addresses is not None
            and receiver not in self.local_addresses
        )
        if self.faults is None:
            if remote:
                self._route_remote(sender, receiver, message, delay)
            else:
                self.simulator.schedule(
                    delay, self._deliver, sender, receiver, message
                )
            return
        delivery = self.faults.apply(
            sender, receiver, message, self.simulator.now, self.rng
        )
        if delivery.drop:
            self.messages_lost += 1
            self.messages_lost_injected += 1
            return
        self.messages_duplicated += len(delivery.delays) - 1
        for extra in delivery.delays:
            if remote:
                self._route_remote(sender, receiver, message, delay + extra)
            else:
                self.simulator.schedule(
                    delay + extra, self._deliver, sender, receiver, message
                )

    def _route_remote(
        self, sender: Address, receiver: Address, message: Any, delay: float
    ) -> None:
        assert self.remote_route is not None
        self.messages_forwarded_remote += 1
        self.remote_route(sender, receiver, message, self.simulator.now + delay)

    def inject(
        self, sender: Address, receiver: Address, message: Any, arrival: float
    ) -> None:
        """Deliver a message routed in from another shard at *arrival*.

        The sending shard already charged ``messages_sent``, drew loss and
        latency, and ran the fault layer; this side only performs the
        delivery (and its dead-receiver accounting) at the precomputed
        arrival timestamp.
        """
        self.simulator.schedule_at(
            arrival, self._deliver, sender, receiver, message
        )

    def _deliver(self, sender: Address, receiver: Address, message: Any) -> None:
        handler = self._handlers.get(receiver)
        if handler is None:
            # The receiver crashed while the message was in flight: this
            # is a crash drop, not substrate loss — account it apart.
            self.messages_dropped_dead += 1
            return
        self.messages_delivered += 1
        handler(sender, message)


class SimTransport(Transport):
    """Per-node :class:`Transport` view over the shared network.

    Timer callbacks are suppressed once the owning node has been detached,
    so a crashed node's pending timeouts cannot resurrect protocol
    activity. Each timer is also pinned to the node's attach incarnation:
    a timer armed before a crash stays dead even after the node restarts
    under the same address, instead of firing into the fresh process state.
    """

    __slots__ = ("network", "address")

    def __init__(self, network: SimNetwork, address: Address) -> None:
        self.network = network
        self.address = address

    def send(self, sender: Address, receiver: Address, message: Any) -> None:
        self.network.send(sender, receiver, message)

    def now(self) -> float:
        return self.network.simulator.now

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        network = self.network
        return network.simulator.schedule_timer(
            delay, self._fire, network._incarnations.get(self.address, 0),
            callback, args,
        )

    def _fire(
        self, incarnation: int, callback: Callable[..., None], args: tuple
    ) -> None:
        """Run a timer unless its node crashed, or restarted, since arming."""
        network = self.network
        if (
            self.address in network._alive
            and network._incarnations[self.address] == incarnation
        ):
            callback(*args)

    def cancel(self, handle: TimerHandle) -> None:
        self.network.simulator.cancel(handle)
