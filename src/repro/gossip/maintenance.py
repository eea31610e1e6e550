"""Two-layer overlay maintenance: CYCLON below, Vicinity above.

Section 5: "for each gossip cycle, each node initiates exactly two gossips
(one per gossip layer), and receives on average two other gossips." This
module schedules both layers on a common period (with per-node phase jitter
so the system does not gossip in lock-step), dispatches their messages, and
detects unanswered exchanges so dead peers are purged continuously —
"no particular measure should be taken to handle churn".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.descriptors import Address, NodeDescriptor
from repro.core.health import HealthMonitor
from repro.core.node import ResourceNode
from repro.core.transport import TimerHandle, Transport
from repro.gossip.cyclon import CyclonProtocol
from repro.gossip.messages import (
    CyclonReply,
    CyclonRequest,
    VicinityReply,
    VicinityRequest,
)
from repro.gossip.vicinity import VicinityProtocol
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY


@dataclass(frozen=True)
class GossipConfig:
    """Gossip parameters (Table 1 defaults: period 10 s, cache size 20)."""

    period: float = 10.0
    cache_size: int = 20
    shuffle_length: int = 8
    exchange_size: int = 20
    #: How long to wait for a gossip answer before declaring the peer dead.
    answer_timeout: float = 5.0


class TwoLayerMaintenance:
    """Drives both gossip layers for one node and feeds its routing table."""

    def __init__(
        self,
        node: ResourceNode,
        transport: Transport,
        rng: random.Random,
        config: Optional[GossipConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        health: Optional[HealthMonitor] = None,
    ) -> None:
        self.node = node
        self.transport = transport
        self.rng = rng
        self.config = config or GossipConfig()
        #: Shared failure-detection state (usually the node's own monitor):
        #: gossip answer round trips warm the per-neighbor RTT estimators
        #: before any query travels a link, answer timeouts feed the
        #: breakers, and each cycle probes one half-open neighbor. ``None``
        #: keeps the gossip layer fully static (the compare-static mode of
        #: the chaos harness).
        self.health = health
        registry = registry if registry is not None else NULL_REGISTRY
        self.cyclon = CyclonProtocol(
            descriptor=node.descriptor,
            send=self._send,
            rng=rng,
            cache_size=self.config.cache_size,
            shuffle_length=self.config.shuffle_length,
            sink=self._cyclon_sink,
            registry=registry,
        )
        self.vicinity = VicinityProtocol(
            descriptor=node.descriptor,
            routing=node.routing,
            cyclon=self.cyclon,
            send=self._send,
            rng=rng,
            exchange_size=self.config.exchange_size,
            registry=registry,
        )
        self._cycles = registry.counter("gossip.cycles")
        # Per-layer series: a cyclon shuffle timing out and a vicinity
        # exchange timing out point at different failure surfaces.
        self._answer_timeouts = {
            "cyclon": registry.counter("gossip.answer_timeouts", layer="cyclon"),
            "vicinity": registry.counter(
                "gossip.answer_timeouts", layer="vicinity"
            ),
        }
        self._running = False
        self._cycle_timer: Optional[TimerHandle] = None
        #: Per-peer (timer, sent_at) for outstanding exchange answers.
        self._answer_timers: Dict[Address, Tuple[TimerHandle, float]] = {}
        self.cycles_run = 0

    # -- lifecycle -----------------------------------------------------------------

    def seed(self, descriptors) -> None:
        """Provide initial contacts (the join procedure)."""
        self.cyclon.seed(descriptors)
        self.vicinity.consider_descriptors(list(descriptors))

    def start(self) -> None:
        """Begin periodic gossiping, phase-shifted by a random offset."""
        if self._running:
            return
        self._running = True
        offset = self.rng.random() * self.config.period
        self._cycle_timer = self.transport.call_later(offset, self._cycle)

    def stop(self) -> None:
        """Stop gossiping (graceful shutdown)."""
        self._running = False
        if self._cycle_timer is not None:
            self.transport.cancel(self._cycle_timer)
            self._cycle_timer = None
        for timer, _ in self._answer_timers.values():
            self.transport.cancel(timer)
        self._answer_timers.clear()

    def update_descriptor(self, descriptor: NodeDescriptor) -> None:
        """Propagate an attribute change into both layers."""
        self.cyclon.update_descriptor(descriptor)
        self.vicinity.update_descriptor(descriptor)

    # -- periodic cycle ---------------------------------------------------------------

    def _cycle(self) -> None:
        if not self._running:
            return
        self.cycles_run += 1
        self._cycles.inc()
        self.vicinity.tick()
        cyclon_peer = self.cyclon.initiate_shuffle()
        if cyclon_peer is not None:
            self._arm_answer_timer(cyclon_peer, layer="cyclon")
        vicinity_peer = self.vicinity.initiate_exchange()
        if vicinity_peer is not None and vicinity_peer != cyclon_peer:
            self._arm_answer_timer(vicinity_peer, layer="vicinity")
        self._probe_half_open(cyclon_peer, vicinity_peer)
        self._cycle_timer = self.transport.call_later(
            self.config.period, self._cycle
        )

    def _probe_half_open(
        self, cyclon_peer: Optional[Address], vicinity_peer: Optional[Address]
    ) -> None:
        """Send one liveness probe to a half-open neighbor, if any is due.

        The circuit-breaker state machine needs an out-of-band way back to
        ``closed``: queries skip open-circuit peers, so without probes a
        breaker tripped by a transient fault would pin its peer suspect
        forever. Gossip maintenance is the natural prober — one extra
        Vicinity exchange per cycle, answer-timed like any other, whose
        reply closes the breaker (and whose silence re-opens it).
        """
        if self.health is None:
            return
        probe = self.health.probe_candidate(self.transport.now())
        if (
            probe is None
            or probe == cyclon_peer
            or probe == vicinity_peer
            or probe in self._answer_timers
        ):
            return
        self.vicinity.probe(probe)
        self.health.probe_sent()
        self._arm_answer_timer(probe, layer="vicinity")

    def _arm_answer_timer(self, peer: Address, layer: str) -> None:
        existing = self._answer_timers.pop(peer, None)
        if existing is not None:
            self.transport.cancel(existing[0])
        delay = self.config.answer_timeout
        if self.health is not None:
            # Under a latency spike a static answer timeout declares live
            # peers dead wholesale and shreds routing tables. Let the
            # learned per-peer rto extend the wait, bounded so a dead peer
            # still gets purged within a few nominal timeouts.
            rto = self.health.rto(peer)
            if rto is not None:
                delay = min(max(delay, rto), 3.0 * self.config.answer_timeout)
        now = self.transport.now()
        self._answer_timers[peer] = (
            self.transport.call_later(
                delay, self._answer_timeout, peer, layer
            ),
            now,
        )

    def _answer_timeout(self, peer: Address, layer: str) -> None:
        self._answer_timeouts[layer].inc()
        self._answer_timers.pop(peer, None)
        if self.health is not None:
            self.health.record_failure(peer, self.transport.now())
        if layer == "cyclon":
            self.cyclon.shuffle_timed_out(peer)
        else:
            self.vicinity.exchange_timed_out(peer)
        # Either way the peer looks dead; purge it everywhere.
        self.node.routing.remove(peer)
        self.cyclon.view.remove(peer)

    def _clear_answer_timer(self, peer: Address) -> None:
        entry = self._answer_timers.pop(peer, None)
        if entry is not None:
            timer, sent_at = entry
            self.transport.cancel(timer)
            if self.health is not None:
                self.health.observe_rtt(peer, self.transport.now() - sent_at)

    # -- message plumbing ----------------------------------------------------------------

    def _send(self, receiver: Address, message: object) -> None:
        self.transport.send(self.node.address, receiver, message)

    def handle_message(self, sender: Address, message: object) -> bool:
        """Dispatch a gossip message; returns False if not a gossip message."""
        if isinstance(message, CyclonRequest):
            self.cyclon.handle_request(sender, message)
            self.vicinity.consider(message.entries)
        elif isinstance(message, CyclonReply):
            self._clear_answer_timer(sender)
            self.cyclon.handle_reply(sender, message)
        elif isinstance(message, VicinityRequest):
            self.vicinity.handle_request(sender, message)
        elif isinstance(message, VicinityReply):
            self._clear_answer_timer(sender)
            self.vicinity.handle_reply(sender, message)
        else:
            return False
        return True

    def _cyclon_sink(self, entries) -> None:
        """CYCLON feeds the top layer with random nodes (Section 5)."""
        self.vicinity.consider(entries)
