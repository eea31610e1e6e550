"""Bounded-memory tests for the duplicate-suppression (_seen) set.

Before this fix ``_seen`` grew one entry per distinct query forever: a
long-running node on a busy deployment leaked memory linearly in query
volume. It is now an LRU with a hard ``seen_history`` size bound.
"""

from repro.core.attributes import AttributeSchema, numeric
from repro.core.descriptors import NodeDescriptor
from repro.core.messages import QueryMessage
from repro.core.node import NodeConfig, ResourceNode
from repro.core.query import Query
from repro.core.transport import DirectTransport
from repro.metrics.collectors import MetricsCollector


def build_node(config):
    schema = AttributeSchema.regular(
        [numeric("d0", 0, 8), numeric("d1", 0, 8)], max_level=3
    )
    transport = DirectTransport()
    metrics = MetricsCollector()
    descriptor = NodeDescriptor.build(1, schema, {"d0": 0.5, "d1": 0.5})
    node = ResourceNode(
        descriptor, schema, transport, config=config, observer=metrics
    )
    node.routing.bulk_load([descriptor])
    transport.register(1, node.handle_message)
    return schema, transport, metrics, node


def query_message(schema, query_id):
    query = Query.where(schema, d0=(0, 1))
    return QueryMessage(
        query_id=query_id,
        sender=0,
        query=query,
        index_ranges=query.index_ranges(),
        sigma=None,
        level=3,
        dimensions=0b11,
    )


class TestSizeBound:
    def test_ten_thousand_queries_stay_bounded(self):
        config = NodeConfig(query_timeout=5.0)
        schema, transport, metrics, node = build_node(config)
        for i in range(10_000):
            node.receive_query(query_message(schema, (i, 0)))
            transport.run()
        assert len(node._seen) == config.seen_history == 4096

    def test_configured_bound_is_respected(self):
        config = NodeConfig(query_timeout=5.0, seen_history=64)
        schema, transport, metrics, node = build_node(config)
        for i in range(500):
            node.receive_query(query_message(schema, (i, 0)))
            transport.run()
        assert len(node._seen) == 64

    def test_eviction_is_oldest_first(self):
        config = NodeConfig(query_timeout=5.0, seen_history=3)
        schema, transport, metrics, node = build_node(config)
        for i in range(5):
            node.receive_query(query_message(schema, (i, 0)))
            transport.run()
        assert set(node._seen) == {(2, 0), (3, 0), (4, 0)}

    def test_duplicate_reception_refreshes_recency(self):
        config = NodeConfig(query_timeout=5.0, seen_history=3)
        schema, transport, metrics, node = build_node(config)
        for i in range(3):
            node.receive_query(query_message(schema, (i, 0)))
            transport.run()
        # Re-deliver the oldest id: the duplicate must refresh its LRU
        # position so it outlives a colder entry.
        node.receive_query(query_message(schema, (0, 0)))
        transport.run()
        node.receive_query(query_message(schema, (9, 0)))
        transport.run()
        assert (0, 0) in node._seen  # refreshed, survived
        assert (1, 0) not in node._seen  # coldest, evicted

    def test_evicted_queries_still_counted_as_duplicates_while_remembered(
        self,
    ):
        config = NodeConfig(query_timeout=5.0, seen_history=8)
        schema, transport, metrics, node = build_node(config)
        node.receive_query(query_message(schema, (7, 0)))
        transport.run()
        node.receive_query(query_message(schema, (7, 0)))
        transport.run()
        assert metrics.records[(7, 0)].duplicates == 1


class TestTtlBound:
    """There is no age bound: only the size bound evicts an id."""

    def test_no_ttl_stores_no_timestamps(self):
        config = NodeConfig(query_timeout=5.0, seen_history=2)
        schema, transport, metrics, node = build_node(config)
        for i in range(3):
            transport.advance(1.0)
            node.receive_query(query_message(schema, (i, 0)))
            transport.run()
        assert list(node._seen.items()) == [((1, 0), None), ((2, 0), None)]

    def test_no_ttl_means_size_bound_only(self):
        config = NodeConfig(query_timeout=5.0, seen_history=16)
        schema, transport, metrics, node = build_node(config)
        node.receive_query(query_message(schema, (1, 0)))
        transport.run()
        transport.advance(1e6)
        node.receive_query(query_message(schema, (2, 0)))
        transport.run()
        assert (1, 0) in node._seen
