"""High-level facade: a ready-to-query simulated overlay.

:class:`SimulatedCluster` wires together the schema, a node population, the
simulated network and the metric collector, and exposes the one primitive
the paper's resource-selection service offers: ``select(query, max_nodes)``
→ a list of machines suitable for running the application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.attributes import AttributeSchema
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.node import NodeConfig
from repro.core.query import Query
from repro.gossip.maintenance import GossipConfig
from repro.metrics.collectors import MetricsCollector
from repro.sim.deployment import Deployment, ValueSampler
from repro.sim.latency import LatencyModel
from repro.workloads.distributions import uniform_sampler


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one resource-selection request."""

    #: Candidate machines, capped at the requested ``max_nodes``.
    descriptors: List[NodeDescriptor]
    #: All matches the query gathered before the cap was applied.
    total_found: int
    #: Routing overhead: non-matching nodes the query traveled through.
    hops: int
    #: Duplicate receptions observed for this query (0 when converged).
    duplicates: int


class SimulatedCluster:
    """A populated, converged overlay ready to answer selection queries.

    Parameters
    ----------
    schema:
        The attribute space.
    size:
        Number of nodes.
    sampler:
        Node-attribute sampler; defaults to uniform over the schema domains.
    gossip:
        When True, run the real two-layer gossip stack and warm it up for
        ``warmup`` simulated seconds; when False (default), install the
        converged routing tables directly (exact bootstrap).
    """

    def __init__(
        self,
        schema: AttributeSchema,
        size: int,
        seed: int = 42,
        sampler: Optional[ValueSampler] = None,
        gossip: bool = False,
        warmup: float = 300.0,
        latency: Optional[LatencyModel] = None,
        node_config: Optional[NodeConfig] = None,
        gossip_config: Optional[GossipConfig] = None,
    ) -> None:
        self.schema = schema
        self.metrics = MetricsCollector()
        self.deployment = Deployment(
            schema,
            seed=seed,
            latency=latency,
            node_config=node_config,
            gossip_config=(gossip_config or GossipConfig()) if gossip else None,
            observer=self.metrics,
        )
        self.deployment.populate(sampler or uniform_sampler(schema), size)
        if gossip:
            self.deployment.start_gossip()
            self.deployment.run(warmup)
        else:
            self.deployment.bootstrap()

    @property
    def size(self) -> int:
        """Current number of live nodes."""
        return len(self.deployment.alive_hosts())

    def select(
        self,
        query: Query,
        max_nodes: Optional[int] = None,
        origin: Optional[Address] = None,
    ) -> SelectionResult:
        """Find machines matching *query*; stop early after *max_nodes*.

        The query is injected at *origin* (default: a random node — "a
        query can be issued at any node") and the simulation is run until
        the depth-first dissemination completes.
        """
        self.metrics.consume_opened()  # discard records opened before
        found = self.deployment.execute_query(
            query, sigma=max_nodes, origin=origin
        )
        record = self.metrics.consume_opened()
        capped = found if max_nodes is None else found[:max_nodes]
        return SelectionResult(
            descriptors=capped,
            total_found=len(found),
            hops=record.routing_overhead() if record else 0,
            duplicates=record.duplicates if record else 0,
        )

    def ground_truth(self, query: Query) -> List[NodeDescriptor]:
        """All live nodes whose attributes match *query* (oracle view)."""
        return self.deployment.matching_descriptors(query)
