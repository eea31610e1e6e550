"""Vicinity-style semantic gossip layer.

Section 5 of the paper: "the second gossip-based layer executes a protocol
very similar to the first one ... however, links are associated with the
attribute values of the node they represent. Nodes do not randomly select
links to keep in their list, but according to their attributes.
Specifically, each node X selects only links to nodes located in its
neighboring cells N(l,k)(X)."

In this implementation the node's :class:`~repro.core.routing.RoutingTable`
*is* the semantic view: the selection function is the table's slot
classification (one primary plus a few alternates per neighboring cell, and
the full C0 member list). Each cycle the node exchanges a mixed sample of
its semantic and random (CYCLON) links with one semantic neighbor; every
descriptor learned from either layer is offered to the routing table.

Freshness: like Vicinity's view entries, every semantic link carries an
*age* (gossip cycles since its owner last advertised it). Ages travel in
the exchange payloads, the freshest copy wins, and links that have not been
re-advertised for ``max_age`` cycles are purged — this is what flushes dead
nodes out of routing tables without any explicit failure detector. A live
node re-injects an age-0 self-descriptor into its neighborhood every cycle,
so live links never age out.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.cells import ZERO_SLOT, slot_of
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.routing import RoutingTable
from repro.gossip.cyclon import CyclonProtocol
from repro.gossip.messages import VicinityReply, VicinityRequest
from repro.gossip.view import ViewEntry
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY

SendFunction = Callable[[Address, object], None]


class VicinityProtocol:
    """Cell-aware semantic layer maintaining the routing table."""

    def __init__(
        self,
        descriptor: NodeDescriptor,
        routing: RoutingTable,
        cyclon: CyclonProtocol,
        send: SendFunction,
        rng: random.Random,
        exchange_size: int = 20,
        max_age: int = 15,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.descriptor = descriptor
        self.routing = routing
        self.cyclon = cyclon
        self.send = send
        self.rng = rng
        self.exchange_size = exchange_size
        self.max_age = max_age
        self._age: Dict[Address, int] = {}
        self._outstanding: Optional[Address] = None
        # Telemetry (no-op instruments unless a real registry is wired in).
        registry = registry if registry is not None else NULL_REGISTRY
        self._exchanges = registry.counter("vicinity.exchanges")
        self._links_added = registry.counter("vicinity.links_added")
        self._links_expired = registry.counter("vicinity.links_expired")
        self._timeouts = registry.counter("vicinity.exchange_timeouts")
        self._payload_sizes = registry.histogram("vicinity.payload_size")

    @property
    def address(self) -> Address:
        """Owner's address."""
        return self.descriptor.address

    def update_descriptor(self, descriptor: NodeDescriptor) -> None:
        """Adopt a new self-descriptor (attributes changed)."""
        self.descriptor = descriptor

    # -- candidate intake -------------------------------------------------------

    def consider(self, entries: Sequence[ViewEntry]) -> None:
        """Offer aged descriptors to the routing table (selection function).

        Entries older than ``max_age`` are ignored; for known addresses the
        freshest age wins.
        """
        for entry in entries:
            address = entry.address
            if address == self.address or entry.age > self.max_age:
                continue
            if self.routing.add(entry.descriptor):
                self._links_added.inc()
            known = self._age.get(address)
            if known is None or entry.age < known:
                self._age[address] = entry.age

    def consider_descriptors(
        self, descriptors: Sequence[NodeDescriptor], age: int = 0
    ) -> None:
        """Convenience intake for bare descriptors (join seeds etc.)."""
        self.consider([ViewEntry(d, age=age) for d in descriptors])

    # -- cycle -------------------------------------------------------------------

    def tick(self) -> None:
        """Start-of-cycle housekeeping: age all links, purge expired ones."""
        expired = []
        for address in list(self._age):
            self._age[address] += 1
            if self._age[address] > self.max_age:
                expired.append(address)
        for address in expired:
            del self._age[address]
            self.routing.remove(address)
            self._links_expired.inc()

    def initiate_exchange(self) -> Optional[Address]:
        """Run one active cycle; returns the contacted peer (or None).

        The gossip partner is a random semantic link (falling back to a
        random CYCLON link while the semantic view is still empty, which is
        how a joining node finds its cell neighborhood in the first place).
        """
        target = self._pick_partner()
        if target is None:
            return None
        payload = self._exchange_payload(
            exclude=target, peer=self._descriptor_of(target)
        )
        self._outstanding = target
        self._exchanges.inc()
        self._payload_sizes.observe(len(payload))
        self.send(target, VicinityRequest(entries=tuple(payload)))
        return target

    def probe(self, address: Address) -> None:
        """Send one unsolicited exchange to *address* as a liveness probe.

        Used by the maintenance layer to test a half-open circuit-breaker
        peer: the request is a normal Vicinity exchange (so even the probe
        does useful repair work), but ``_outstanding`` is left untouched —
        a concurrent regular exchange must not have its completion
        swallowed by a probe reply. The caller arms the answer timer.
        """
        payload = self._exchange_payload(
            exclude=address, peer=self._descriptor_of(address)
        )
        self._exchanges.inc()
        self._payload_sizes.observe(len(payload))
        self.send(address, VicinityRequest(entries=tuple(payload)))

    def handle_request(self, sender: Address, message: VicinityRequest) -> None:
        """Passive side: answer with our own sample, absorb theirs.

        The requester's payload leads with its fresh self-descriptor, so
        the answer can be tailored to *its* neighborhood — the key to
        Vicinity's fast convergence.
        """
        peer = message.entries[0].descriptor if message.entries else None
        payload = self._exchange_payload(exclude=sender, peer=peer)
        self.send(sender, VicinityReply(entries=tuple(payload)))
        self.consider(message.entries)

    def handle_reply(self, sender: Address, message: VicinityReply) -> None:
        """Active side completion: absorb the peer's sample."""
        if self._outstanding == sender:
            self._outstanding = None
        self.consider(message.entries)

    def exchange_timed_out(self, peer: Address) -> None:
        """The contacted peer never answered: purge it from both layers."""
        self._timeouts.inc()
        if self._outstanding == peer:
            self._outstanding = None
        self.routing.remove(peer)
        self._age.pop(peer, None)
        self.cyclon.view.remove(peer)

    # -- internals ------------------------------------------------------------------

    def _pick_partner(self) -> Optional[Address]:
        # Draw an index first (same stream consumption as rng.choice on the
        # materialized list), then walk the table's iterator just far
        # enough — no intermediate address list every cycle.
        count = self.routing.link_count()
        if count:
            index = self.rng.randrange(count)
            descriptor = next(islice(self.routing.descriptors(), index, None))
            return descriptor.address
        entry = self.cyclon.view.random_entry(self.rng)
        return entry.address if entry is not None else None

    def _descriptor_of(self, address: Address) -> Optional[NodeDescriptor]:
        descriptor = self.routing.get(address)
        if descriptor is not None:
            return descriptor
        entry = self.cyclon.view.get(address)
        return entry.descriptor if entry is not None else None

    def _exchange_payload(
        self, exclude: Address, peer: Optional[NodeDescriptor] = None
    ) -> List[ViewEntry]:
        """An aged sample of semantic + random links, plus ourselves.

        When the peer's coordinates are known, the semantic share of the
        payload is *tailored*: our links are ranked by how deep a slot they
        would fill at the peer (its C0 mates first, then the finest
        neighboring cells — the rare, hard-to-find links). This
        peer-awareness is the selection-function exchange that makes
        Vicinity converge fast. A random tail keeps exploratory diversity,
        and each link travels with its current age so staleness is never
        laundered into freshness.
        """
        pool: List[ViewEntry] = [
            ViewEntry(descriptor, age=self._age.get(descriptor.address, 0))
            for descriptor in self.routing.descriptors()
            if descriptor.address != exclude
        ]
        random_pool = [
            entry
            for entry in self.cyclon.view
            if entry.address != exclude
        ]
        budget = self.exchange_size - 1
        semantic_budget = min(len(pool), (2 * budget) // 3)
        if peer is not None and pool:
            pool.sort(
                key=lambda entry: self._usefulness_to(peer, entry.descriptor)
            )
            sample = pool[:semantic_budget]
        else:
            sample = (
                self.rng.sample(pool, semantic_budget)
                if semantic_budget
                else []
            )
        remaining = budget - len(sample)
        if remaining > 0 and random_pool:
            sample.extend(
                self.rng.sample(random_pool, min(remaining, len(random_pool)))
            )
        return [ViewEntry(self.descriptor, age=0)] + sample

    def _usefulness_to(
        self, peer: NodeDescriptor, candidate: NodeDescriptor
    ) -> int:
        """Rank key: which slot *candidate* fills at *peer* (lower = rarer)."""
        slot = slot_of(peer.code, candidate.code, self.routing.dimensions)
        if slot == ZERO_SLOT:
            return 0  # a C0 mate: the hardest link to find at random
        return slot[0]  # finer levels (small l) before coarse ones
