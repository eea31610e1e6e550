"""Deployment: build, bootstrap and drive a simulated overlay.

This is the workhorse behind every experiment. It assembles the simulator,
network and hosts; populates the attribute space from a sampler; wires
routing tables either *exactly* (:func:`bootstrap_links`, the converged
state the gossip stack reaches after warm-up — the paper likewise lets the
overlay converge before measuring) or through the real gossip protocols;
and provides synchronous query execution plus membership operations used by
the churn scenarios.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.attributes import AttributeSchema, AttributeValue
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.index import CellIndex
from repro.core.node import NodeConfig
from repro.core.routing import PICKS_CAP, RoutingTable
from repro.core import vector
from repro.core.store import ground_truth_index
from repro.core.observer import ProtocolObserver
from repro.core.query import Query
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


def _slot_buckets_by_cell(
    index: CellIndex,
    schema: AttributeSchema,
    picks_cap: int,
) -> Dict[Tuple[int, ...], List]:
    """Per occupied C0 cell, the ``(level, dim, bucket, picks)`` list.

    A node Y lies in N(l,k)(X) iff Y's bucket key under (l,k) equals X's
    key with the dimension-k component flipped in its lowest bit (same
    C_l prefix, same halves below k, sibling half at k, free below). All
    members of a C0 cell share every bucket key, so keys are derived once
    per occupied cell, not once per node, as one packed-code vector per
    slot (:func:`repro.core.vector.pack_codes`). The scalar
    ``bucket_key``/``flipped_key`` derivation is the test oracle.

    :class:`repro.core.store.BootstrapPlan` derives the same buckets from
    a columnar store, but ``sim.Deployment`` keeps this in-process
    derivation on purpose. Measured on a 2-vCPU host at N=40,000, routing
    it through the plan cost 0.21-0.24 s to build the plan plus 0.20 s
    of ``materialize()``; over 7 interleaved ``scale_single`` pairs
    (``python3 -m bench``, seed 2009, 20 s) it was worse in all 7 on both
    ``build_s`` (3.83-4.20 s vs 3.39-3.81 s) and ``capped_ms_p50`` (by
    2-9 %).
    """
    max_level = schema.max_level
    cell_items = list(index.cells())
    coords_matrix = np.array(
        [cell for cell, _ in cell_items], dtype=np.int64
    ).reshape(-1, schema.dimensions)
    slot_buckets_of: Dict[Tuple[int, ...], List] = {
        cell: [] for cell, _ in cell_items
    }
    for level in range(1, max_level + 1):
        for dim in range(schema.dimensions):
            codes = vector.pack_codes(
                coords_matrix, level, dim, max_level
            ).tolist()
            flipped = vector.pack_codes(
                coords_matrix, level, dim, max_level, flip=True
            ).tolist()
            by_code: Dict[int, List[NodeDescriptor]] = {}
            for code, (_cell, members) in zip(codes, cell_items):
                existing = by_code.get(code)
                if existing is None:
                    by_code[code] = list(members)
                else:
                    existing.extend(members)
            for code, (cell, _members) in zip(flipped, cell_items):
                bucket = by_code.get(code)
                if bucket:
                    slot_buckets_of[cell].append(
                        (level, dim, bucket, min(len(bucket), picks_cap))
                    )
    return slot_buckets_of


def bootstrap_rng(seed: int, address: Address, stream: str = "bootstrap") -> random.Random:
    """The per-node bootstrap draw stream for *address*.

    Each node's slot draws come from its own derived stream instead of
    one shared sequential stream. The streams are pure functions of
    ``(seed, stream, address)``, so any worker holding any subset of the
    population seeds bit-identical tables for the nodes it owns — no
    replaying (and no draw-consuming) of other nodes' randomness, which
    is what makes a sharded worker's bootstrap O(owned) instead of O(N).
    """
    return derive_rng(seed, f"{stream}:{address}")


def bootstrap_tables(
    descriptors: Sequence[NodeDescriptor],
    seed: int,
    table_for: Callable[[Address], Optional[RoutingTable]],
    schema: AttributeSchema,
    stream: str = "bootstrap",
) -> None:
    """Seed converged routing tables for a (possibly partial) population.

    *descriptors* is the **whole** overlay population in a deterministic
    order (the buckets every table samples from span all of it);
    *table_for* resolves an address to the routing table to seed, or
    None for nodes this caller does not own (a caller seeding only part
    of the population). Draws come from per-node streams
    (:func:`bootstrap_rng`), so unowned nodes cost nothing.
    """
    if not descriptors:
        return
    max_level = schema.max_level
    dimensions = schema.dimensions

    # The CellIndex provides the C0 grouping: all nodes sharing a
    # coordinate vector land in the same cell bucket.
    index = CellIndex(schema)
    by_cell: Dict[Tuple[int, ...], List[NodeDescriptor]] = defaultdict(list)
    for descriptor in descriptors:
        index.add(descriptor)
        by_cell[descriptor.coordinates].append(descriptor)

    slot_buckets_of = _slot_buckets_by_cell(index, schema, PICKS_CAP)
    for coordinates, cell_descriptors in by_cell.items():
        # Nodes in the same C0 cell see the same slot buckets; resolve
        # them once per cell. Each node still draws its *own* random
        # sample per slot — the independent selection the paper credits
        # for spreading links evenly across cell inhabitants.
        zero_members = index.members(coordinates)
        slot_buckets = slot_buckets_of[coordinates]
        for descriptor in cell_descriptors:
            routing = table_for(descriptor.address)
            if routing is None:
                continue
            routing.seed_zero(zero_members)  # skips the self-descriptor
            routing.seed_slots(
                slot_buckets, bootstrap_rng(seed, descriptor.address, stream)
            )


def bootstrap_links(
    hosts: Sequence[SimHost],
    seed: int,
    stream: str = "bootstrap",
) -> None:
    """Install the converged routing tables directly (no gossip warm-up).

    For every node and every neighboring cell ``N(l,k)`` this picks a
    *random* inhabitant as the selected neighbor — mirroring the randomness
    of the gossip selection that the paper credits for load balance
    ("each node selects its neighbors independently ... evenly distributes
    the links across all nodes of a given cell") — plus a few alternates,
    and links every node to all members of its C0 cell. Draws come from
    per-node streams derived from ``(seed, stream, address)``.
    """
    if not hosts:
        return
    # Any object exposing ``.node`` (SimHost, RuntimeHost) can be linked.
    schema = hosts[0].node.schema
    tables = {host.node.descriptor.address: host.node.routing for host in hosts}
    bootstrap_tables(
        [host.node.descriptor for host in hosts],
        seed,
        tables.get,
        schema,
        stream=stream,
    )


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
        #: Maintained incrementally across joins, crashes and attribute
        #: updates, so ``matching_descriptors`` never scans the population.
        self.index = ground_truth_index(schema)
        self._alive: Dict[Address, SimHost] = {}
        self._alive_descriptors: Optional[List[NodeDescriptor]] = None
        self._next_address = 0
        self._rng = derive_rng(seed, "deployment")
        self._population_rng = derive_rng(seed, "population")

    # -- construction -------------------------------------------------------------

    def add_host(
        self, values: Mapping[str, AttributeValue]
    ) -> SimHost:
        """Create one host with the given raw attribute values."""
        address = self._next_address
        self._next_address += 1
        descriptor = NodeDescriptor.build(address, self.schema, values)
        host = SimHost(
            descriptor,
            self.schema,
            self.network,
            # Deferred: the host RNG only feeds the gossip stack, and
            # hashing a fresh seed for every host dominates populate()
            # in gossip-less deployments.
            rng=lambda: derive_rng(self.seed, f"host:{address}"),
            node_config=self.node_config,
            gossip_config=self.gossip_config,
            observer=self.observer,
            registry=self.registry,
        )
        host.watch(self._host_changed)
        self.hosts[address] = host
        self._alive[address] = host
        self.index.add(descriptor)
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

        The sampler stream persists across calls, so successive batches
        draw fresh values.
        """
        with paused_gc():
            return [
                self.add_host(sampler(self._population_rng))
                for _ in range(count)
            ]

    def bootstrap(self) -> None:
        """Install converged routing tables for all current hosts."""
        with paused_gc():
            bootstrap_links(list(self.hosts.values()), self.seed)

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
        selectivity rather than the population size. The first call folds
        the descriptors ``populate`` added into the columnar base.
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
