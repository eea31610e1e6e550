"""A simulated host: protocol node + gossip maintenance + transport glue."""

from __future__ import annotations

import random
from typing import Callable, Mapping, Optional, Sequence, Tuple

from repro.core.attributes import AttributeSchema, AttributeValue
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.health import HealthMonitor
from repro.core.node import CompletionCallback, NodeConfig, ResourceNode
from repro.core.observer import ProtocolObserver
from repro.core.query import Query
from repro.gossip.maintenance import GossipConfig, TwoLayerMaintenance
from repro.obs.registry import MetricsRegistry
from repro.sim.network import SimNetwork, SimTransport
from repro.util.errors import HostDownError
from repro.util.rng import derive_rng

#: A lifecycle watcher, called with ``(host, event)``; see :meth:`SimHost.watch`.
Watcher = Callable[["SimHost", str], None]


class SimHost:
    """One overlay participant inside the simulated network.

    A host owns a :class:`ResourceNode` (the query protocol) and, when a
    gossip configuration is supplied, a :class:`TwoLayerMaintenance` stack
    that continuously maintains the node's routing table. Messages arriving
    from the network are dispatched to whichever component understands them.

    The host's random stream is ``derive_rng(seed, f"host:{address}")``,
    derived on first use: only the gossip stack consumes it, so
    gossip-less hosts never pay for seeding one. *watchers* is the
    initial lifecycle watcher tuple, which a deployment shares among all
    its hosts (see :meth:`watch`).
    """

    __slots__ = (
        "schema",
        "network",
        "seed",
        "_rng",
        "_watchers",
        "transport",
        "health",
        "node",
        "maintenance",
        "alive",
    )

    def __init__(
        self,
        descriptor: NodeDescriptor,
        schema: AttributeSchema,
        network: SimNetwork,
        seed: int,
        node_config: Optional[NodeConfig] = None,
        gossip_config: Optional[GossipConfig] = None,
        observer: Optional[ProtocolObserver] = None,
        registry: Optional[MetricsRegistry] = None,
        watchers: Tuple[Watcher, ...] = (),
    ) -> None:
        self.schema = schema
        self.network = network
        self.seed = seed
        self._rng: Optional[random.Random] = None
        self._watchers = watchers
        self.transport = SimTransport(network, descriptor.address)
        config = node_config or NodeConfig()
        #: Per-neighbor failure-detection state, shared between the query
        #: protocol and gossip maintenance and seeded from the network's
        #: nominal round trip so failure timers adapt from the first
        #: forward (hedging still waits for real samples).
        self.health = HealthMonitor(
            config.health,
            initial_rtt=network.nominal_rtt,
            registry=registry,
        )
        self.node = ResourceNode(
            descriptor,
            schema,
            self.transport,
            config=node_config,
            observer=observer,
            health=self.health,
        )
        self.maintenance: Optional[TwoLayerMaintenance] = None
        if gossip_config is not None:
            self.maintenance = TwoLayerMaintenance(
                self.node,
                self.transport,
                self.rng,
                gossip_config,
                registry=registry,
                health=self.node.reliability.gossip_health,
            )
        network.attach(descriptor.address, self.handle_message)
        self.alive = True

    @property
    def rng(self) -> random.Random:
        """This host's random stream (derived on first use)."""
        if self._rng is None:
            self._rng = derive_rng(self.seed, f"host:{self.address}")
        return self._rng

    # -- identity ------------------------------------------------------------------

    @property
    def address(self) -> Address:
        """This host's address."""
        return self.node.address

    @property
    def descriptor(self) -> NodeDescriptor:
        """This host's current self-descriptor."""
        return self.node.descriptor

    # -- message dispatch -------------------------------------------------------------

    def handle_message(self, sender: Address, message: object) -> None:
        """Network callback: route to gossip stack or query protocol."""
        if self.maintenance is not None and self.maintenance.handle_message(
            sender, message
        ):
            return
        self.node.handle_message(sender, message)

    # -- lifecycle ---------------------------------------------------------------------

    def watch(self, callback: Watcher) -> None:
        """Register a lifecycle watcher.

        *callback* is invoked with ``(host, event)`` where event is
        ``"fail"`` (the host crashed), ``"restart"`` (it came back under
        the same identity) or ``"update"`` (its attributes — and thus its
        descriptor — changed). The deployment uses this to keep its cell
        index and alive caches consistent even when ``fail()`` is called
        directly, e.g. by the churn scenarios. The watchers are a tuple,
        copied here, so a tuple shared with other hosts never changes.
        """
        self._watchers = self._watchers + (callback,)

    def _notify(self, event: str) -> None:
        for callback in self._watchers:
            callback(self, event)

    def start_gossip(self, seeds: Sequence[NodeDescriptor] = ()) -> None:
        """Seed the gossip views and begin periodic maintenance."""
        if self.maintenance is None:
            raise RuntimeError("host was built without a gossip configuration")
        if seeds:
            self.maintenance.seed(seeds)
        self.maintenance.start()

    def fail(self) -> None:
        """Ungraceful departure: vanish from the network immediately."""
        self.alive = False
        self.network.detach(self.address)
        if self.maintenance is not None:
            self.maintenance.stop()
        self._notify("fail")

    def restart(self) -> None:
        """Crash-recovery: rejoin under the *same* identity.

        Unlike :meth:`~repro.sim.deployment.Deployment.join` (a fresh
        node), a restarted host keeps its address and its now-stale
        routing table, but loses every in-flight query — exactly what a
        process restart looks like. Timers armed before the crash stay
        dead (the network bumps the host's incarnation on re-attach), and
        gossip maintenance resumes from the stale views, which is the
        repair path the paper's churn experiments exercise.
        """
        if self.alive:
            return
        self.alive = True
        self.network.attach(self.address, self.handle_message)
        self.node.restart()
        if self.maintenance is not None:
            self.maintenance.start()
        self._notify("restart")

    def update_attributes(self, values: Mapping[str, AttributeValue]) -> None:
        """Change this node's attributes in place (no registry involved)."""
        descriptor = NodeDescriptor.build(self.address, self.schema, values)
        self.node.update_attributes(descriptor)
        if self.maintenance is not None:
            self.maintenance.update_descriptor(descriptor)
        self._notify("update")

    # -- queries ------------------------------------------------------------------------

    def issue_query(
        self,
        query: Query,
        sigma: Optional[int] = None,
        on_complete: Optional[CompletionCallback] = None,
    ):
        """Originate a query at this host; refused while it is down."""
        if not self.alive:
            raise HostDownError(f"origin {self.address} is down")
        return self.node.issue_query(query, sigma=sigma, on_complete=on_complete)
