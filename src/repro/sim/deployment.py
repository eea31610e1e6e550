"""Deployment: build, bootstrap and drive a simulated overlay.

This is the workhorse behind every experiment. It assembles the simulator,
network and hosts; populates the attribute space from a sampler in one
:meth:`~repro.core.store.DescriptorStore.sample` pass (the stream and
store the sharded engine uses), whose flyweight descriptors the hosts wrap
and whose rows are the ground-truth index's base; wires routing tables
either *exactly* (:meth:`Deployment.bootstrap` seeds the converged state
the gossip stack reaches after warm-up from one
:class:`~repro.core.store.BootstrapPlan` — the paper likewise lets the
overlay converge before measuring) or through the real gossip protocols;
and provides synchronous query execution plus membership operations used
by the churn scenarios.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Mapping, Optional

from repro.core.attributes import AttributeSchema, AttributeValue
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.node import NodeConfig
from repro.core.observer import ProtocolObserver
from repro.core.query import Query
from repro.core.store import ColumnarCellIndex, DescriptorStore, seed_tables
from repro.gossip.maintenance import GossipConfig
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.host import SimHost
from repro.sim.latency import LatencyModel
from repro.sim.network import SimNetwork
from repro.util.perf import paused_gc
from repro.util.rng import derive_rng

#: A sampler draws one node's raw attribute values.
ValueSampler = Callable[[random.Random], Mapping[str, AttributeValue]]


class Deployment:
    """A complete simulated system: engine, network, and hosts."""

    def __init__(
        self,
        schema: AttributeSchema,
        seed: int = 42,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        node_config: Optional[NodeConfig] = None,
        gossip_config: Optional[GossipConfig] = None,
        observer: Optional[ProtocolObserver] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.schema = schema
        self.seed = seed
        self.simulator = Simulator()
        self.network = SimNetwork(
            self.simulator,
            latency=latency,
            loss_rate=loss_rate,
            rng=derive_rng(seed, "network"),
        )
        self.node_config = node_config or NodeConfig()
        self.gossip_config = gossip_config
        self.observer = observer
        #: Shared metrics registry handed to every host's gossip stack.
        self.registry = registry
        self.hosts: Dict[Address, SimHost] = {}
        #: Live descriptors bucketed by C0 cell — the ground-truth index.
        #: ``populate`` extends its columnar base; joins, crashes and
        #: attribute updates go through its churn overlay, so
        #: ``matching_descriptors`` never scans the population.
        self.index = ColumnarCellIndex(
            DescriptorStore.from_descriptors(schema, ())
        )
        self._alive: Dict[Address, SimHost] = {}
        #: The lifecycle watchers every host starts with: one tuple,
        #: shared, instead of a list and a bound method per host.
        self._watchers = (self._host_changed,)
        self._alive_descriptors: Optional[List[NodeDescriptor]] = None
        self._next_address = 0
        self._rng = derive_rng(seed, "deployment")
        self._population_rng = derive_rng(seed, "population")

    # -- construction -------------------------------------------------------------

    def add_host(
        self, values: Mapping[str, AttributeValue]
    ) -> SimHost:
        """Create one host with the given raw attribute values."""
        descriptor = NodeDescriptor.build(
            self._next_address, self.schema, values
        )
        self._next_address += 1
        self.index.add(descriptor)
        return self._attach(descriptor)

    def _attach(self, descriptor: NodeDescriptor) -> SimHost:
        """Create the host around *descriptor* (already in the index)."""
        address = descriptor.address
        host = SimHost(
            descriptor,
            self.schema,
            self.network,
            self.seed,
            node_config=self.node_config,
            gossip_config=self.gossip_config,
            observer=self.observer,
            registry=self.registry,
            watchers=self._watchers,
        )
        self.hosts[address] = host
        self._alive[address] = host
        self._alive_descriptors = None
        return host

    def _host_changed(self, host: SimHost, event: str) -> None:
        """Keep the index and alive caches in sync with host lifecycle."""
        if event == "fail":
            self.index.discard(host.address)
            self._alive.pop(host.address, None)
        elif event == "restart":  # same identity, back in the ground truth
            self._alive[host.address] = host
            self.index.add(host.descriptor)
        else:  # attribute update: re-bucket the new descriptor
            if host.alive:
                self.index.add(host.descriptor)
        self._alive_descriptors = None

    def populate(self, sampler: ValueSampler, count: int) -> List[SimHost]:
        """Create *count* hosts with values drawn from *sampler*.

        One :meth:`~repro.core.store.DescriptorStore.sample` pass: its rows
        extend the ground-truth index's base and its flyweight descriptors
        become the hosts'. The sampler stream persists across calls, so
        successive batches draw fresh values.
        """
        with paused_gc():
            rows = DescriptorStore.sample(
                self.schema,
                sampler,
                self._population_rng,
                count,
                base_address=self._next_address,
            )
            self._next_address += count
            rows.materialize_all()
            self.index.extend(rows)
            return [
                self._attach(descriptor) for descriptor in rows.descriptors()
            ]

    def bootstrap(self) -> None:
        """Install converged routing tables for every live host.

        The plan is derived from the ground-truth index's store, which
        holds exactly the live population: a host that is down at this
        point is neither seeded nor linked from any other table.
        """
        with paused_gc():
            seed_tables(
                self.index.store(),
                lambda address: self.hosts[address].node.routing,
                self.seed,
            )

    def start_gossip(self, seeds_per_node: int = 5) -> None:
        """Seed every host with random contacts and start maintenance."""
        if self.gossip_config is None:
            raise RuntimeError("deployment was built without a gossip config")
        rng = derive_rng(self.seed, "gossip-seeds")
        descriptors = [host.descriptor for host in self.hosts.values()]
        for host in self.hosts.values():
            pool = [
                descriptor
                for descriptor in rng.sample(
                    descriptors, min(len(descriptors), seeds_per_node + 1)
                )
                if descriptor.address != host.address
            ][:seeds_per_node]
            host.start_gossip(pool)

    # -- membership -------------------------------------------------------------------

    def alive_hosts(self) -> List[SimHost]:
        """Hosts currently attached to the network."""
        return list(self._alive.values())

    def alive_descriptors(self) -> List[NodeDescriptor]:
        """Descriptors of all live hosts (treat as read-only).

        The list is cached and rebuilt lazily after membership or
        attribute changes, so repeated calls between changes are O(1).
        """
        if self._alive_descriptors is None:
            self._alive_descriptors = [
                host.descriptor for host in self._alive.values()
            ]
        return self._alive_descriptors

    def kill(self, address: Address) -> None:
        """Crash one host (it stays in ``hosts`` for post-mortem metrics)."""
        host = self.hosts.get(address)
        if host is not None and host.alive:
            host.fail()

    def restart(self, address: Address) -> None:
        """Bring a crashed host back under its original identity."""
        host = self.hosts.get(address)
        if host is not None and not host.alive:
            host.restart()

    def kill_fraction(
        self, fraction: float, rng: Optional[random.Random] = None
    ) -> List[Address]:
        """Crash a random *fraction* of the live hosts; returns the victims."""
        rng = rng or self._rng
        alive = self.alive_hosts()
        count = int(round(len(alive) * fraction))
        victims = rng.sample(alive, min(count, len(alive)))
        for host in victims:
            host.fail()
        return [host.address for host in victims]

    def join(
        self,
        values: Mapping[str, AttributeValue],
        contacts: int = 5,
        rng: Optional[random.Random] = None,
    ) -> SimHost:
        """Add a brand-new node that joins through the gossip layer."""
        rng = rng or self._rng
        host = self.add_host(values)
        if self.gossip_config is not None:
            alive = [
                peer.descriptor
                for peer in self.alive_hosts()
                if peer.address != host.address
            ]
            seeds = rng.sample(alive, min(contacts, len(alive))) if alive else []
            host.start_gossip(seeds)
        return host

    # -- queries ------------------------------------------------------------------------

    def matching_descriptors(self, query: Query) -> List[NodeDescriptor]:
        """Ground truth: live descriptors whose attributes satisfy *query*.

        Served from the cell index: only the cells overlapping the query's
        routing region are examined, so the cost scales with the query's
        selectivity rather than the population size.
        """
        return self.index.matching(query)

    def execute_query(
        self,
        query: Query,
        sigma: Optional[int] = None,
        origin: Optional[Address] = None,
        timeout: float = 600.0,
    ) -> List[NodeDescriptor]:
        """Issue a query and run the simulator until it completes.

        *origin* defaults to a random live host ("a query can be issued at
        any node; there is no designated node").
        """
        if not self._alive:
            raise RuntimeError("no live hosts to issue the query from")
        if origin is None:
            host = self._rng.choice(self.alive_hosts())
        else:
            host = self.hosts[origin]
        result: Dict[str, List[NodeDescriptor]] = {}

        def on_complete(query_id, descriptors) -> None:
            result["matching"] = descriptors

        host.issue_query(query, sigma=sigma, on_complete=on_complete)
        deadline = self.simulator.now + timeout
        while "matching" not in result and self.simulator.now < deadline:
            if not self.simulator.step():
                break
        return result.get("matching", [])

    def run(self, seconds: float) -> None:
        """Advance the simulation by *seconds*."""
        self.simulator.run(until=self.simulator.now + seconds)
