"""Protocol tests for ResourceNode over the synchronous DirectTransport."""

import pytest

from repro.core.attributes import AttributeSchema, numeric
from repro.core.descriptors import NodeDescriptor
from repro.core.node import NodeConfig, ResourceNode
from repro.core.query import Query
from repro.core.transport import DirectTransport
from repro.metrics.collectors import MetricsCollector


def build_overlay(coordinates_list, max_level=3, dimensions=2, config=None):
    """Create fully-informed nodes at the given integer cell coordinates.

    Node attribute values are placed at ``coordinate + 0.5`` so the value
    and the cell index coincide. Every node learns every other descriptor,
    which yields exact (converged) routing tables.
    """
    schema = AttributeSchema.regular(
        [numeric(f"d{i}", 0, 1 << max_level) for i in range(dimensions)],
        max_level=max_level,
    )
    transport = DirectTransport()
    metrics = MetricsCollector()
    descriptors = [
        NodeDescriptor.build(
            address,
            schema,
            {f"d{i}": coords[i] + 0.5 for i in range(dimensions)},
        )
        for address, coords in enumerate(coordinates_list)
    ]
    nodes = []
    for descriptor in descriptors:
        node = ResourceNode(
            descriptor, schema, transport,
            config=config or NodeConfig(query_timeout=5.0),
            observer=metrics,
        )
        node.routing.bulk_load(descriptors)
        transport.register(descriptor.address, node.handle_message)
        nodes.append(node)
    return schema, transport, metrics, nodes


def run_query(transport, node, query, sigma=None):
    results = {}
    node.issue_query(
        query, sigma=sigma,
        on_complete=lambda qid, found: results.update(qid=qid, found=found),
    )
    transport.run()
    return results


class TestBasicRouting:
    def test_single_node_matches_itself(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0)])
        results = run_query(transport, nodes[0], Query.where(schema))
        assert [d.address for d in results["found"]] == [0]

    def test_single_node_no_match(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0)])
        query = Query.where(schema, d0=(4, None))
        results = run_query(transport, nodes[0], query)
        assert results["found"] == []

    def test_two_distant_nodes(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0), (7, 7)])
        query = Query.where(schema, d0=(7, None))
        results = run_query(transport, nodes[0], query)
        assert [d.address for d in results["found"]] == [1]

    def test_full_space_query_reaches_everyone(self):
        coords = [(x, y) for x in range(8) for y in range(8)]
        schema, transport, metrics, nodes = build_overlay(coords)
        results = run_query(transport, nodes[17], Query.where(schema))
        assert len(results["found"]) == 64
        assert metrics.total_duplicates() == 0

    def test_exactly_once_per_matching_node(self):
        coords = [(x, y) for x in range(8) for y in range(8)]
        schema, transport, metrics, nodes = build_overlay(coords)
        query = Query.where(schema, d0=(2, 5.5), d1=(1, 6.5))
        results = run_query(transport, nodes[0], query)
        expected = {
            node.address
            for node in nodes
            if query.matches(node.descriptor.values)
        }
        assert {d.address for d in results["found"]} == expected
        record = metrics.records[results["qid"]]
        assert record.matched_receivers >= expected  # all were reached
        assert record.duplicates == 0

    def test_zero_cell_fanout(self):
        # Five nodes in the same C0 cell plus the origin elsewhere.
        coords = [(0, 0)] + [(5, 5)] * 5
        schema, transport, metrics, nodes = build_overlay(coords)
        query = Query.where(schema, d0=(5, 5.9), d1=(5, 5.9))
        results = run_query(transport, nodes[0], query)
        assert {d.address for d in results["found"]} == {1, 2, 3, 4, 5}
        assert metrics.total_duplicates() == 0


class TestSigma:
    def test_sigma_limits_exploration(self):
        coords = [(x, y) for x in range(8) for y in range(8)]
        schema, transport, metrics, nodes = build_overlay(coords)
        results = run_query(transport, nodes[0], Query.where(schema), sigma=5)
        assert len(results["found"]) >= 5
        record = metrics.records[results["qid"]]
        # Far fewer receptions than the 64 nodes of the full space.
        assert len(record.received_by) < 40

    def test_sigma_one_self_match_sends_nothing(self):
        coords = [(0, 0), (1, 1)]
        schema, transport, metrics, nodes = build_overlay(coords)
        results = run_query(transport, nodes[0], Query.where(schema), sigma=1)
        assert [d.address for d in results["found"]] == [0]
        assert metrics.records[results["qid"]].queries_sent == 0

    def test_sigma_stops_at_intermediate_node(self):
        coords = [(0, 0)] + [(6, 6)] * 10
        schema, transport, metrics, nodes = build_overlay(coords)
        query = Query.where(schema, d0=(6, 6.9), d1=(6, 6.9))
        results = run_query(transport, nodes[0], query, sigma=3)
        assert len(results["found"]) >= 3


class TestDimensionRemoval:
    def test_no_node_receives_twice_with_multilevel_query(self):
        coords = [(x, y) for x in range(0, 8, 1) for y in range(0, 8, 2)]
        schema, transport, metrics, nodes = build_overlay(coords)
        # A query straddling the top-level split in both dimensions.
        query = Query.where(schema, d0=(2.5, 6.5), d1=(2.5, 6.5))
        results = run_query(transport, nodes[3], query)
        assert metrics.total_duplicates() == 0
        expected = {
            node.address
            for node in nodes
            if query.matches(node.descriptor.values)
        }
        assert {d.address for d in results["found"]} == expected


class TestFailures:
    def test_timeout_completes_with_partial_results(self):
        coords = [(0, 0), (7, 7)]
        schema, transport, metrics, nodes = build_overlay(coords)
        transport.disconnect(1)
        query = Query.where(schema, d0=(7, None))
        results = {}
        nodes[0].issue_query(
            query, on_complete=lambda qid, found: results.update(found=found)
        )
        transport.run()
        assert "found" not in results  # still waiting on the dead node
        transport.advance(10.0)  # past the 5 s query timeout
        assert results["found"] == []

    def test_timeout_fails_over_to_alternate(self):
        # Two nodes in the same far cell: one dead, one alive.
        coords = [(0, 0), (7, 7), (7, 7)]
        schema, transport, metrics, nodes = build_overlay(coords)
        # Make sure the primary link of node 0 for slot (3,0) is node 1.
        primary = nodes[0].routing.neighbor(3, 0)
        dead = primary.address
        alive = 3 - dead  # the other of {1, 2}
        transport.disconnect(dead)
        query = Query.where(schema, d0=(7, None))
        results = {}
        nodes[0].issue_query(
            query, on_complete=lambda qid, found: results.update(found=found)
        )
        transport.run()
        transport.advance(10.0)
        assert [d.address for d in results["found"]] == [alive]

    def test_retry_disabled_drops_branch(self):
        coords = [(0, 0), (7, 7), (7, 7)]
        config = NodeConfig(query_timeout=5.0, retry_on_timeout=False)
        schema, transport, metrics, nodes = build_overlay(coords, config=config)
        primary = nodes[0].routing.neighbor(3, 0)
        transport.disconnect(primary.address)
        results = {}
        nodes[0].issue_query(
            Query.where(schema, d0=(7, None)),
            on_complete=lambda qid, found: results.update(found=found),
        )
        transport.run()
        transport.advance(10.0)
        assert results["found"] == []


class TestDuplicates:
    def test_duplicate_query_answered_with_empty_reply(self):
        from repro.core.messages import QueryMessage

        coords = [(0, 0), (7, 7)]
        schema, transport, metrics, nodes = build_overlay(coords)
        query = Query.where(schema, d0=(7, None))
        message = QueryMessage(
            query_id=(99, 0),
            sender=0,
            query=query,
            index_ranges=query.index_ranges(),
            sigma=None,
            level=3,
            dimensions=0b11,
        )
        nodes[1].receive_query(message)
        nodes[1].receive_query(message)  # duplicate
        transport.run()
        record = metrics.records[(99, 0)]
        assert record.duplicates == 1
        assert nodes[1].pending == {}


class TestAttributeUpdate:
    def test_update_attributes_rebuilds_routing(self):
        coords = [(0, 0), (7, 7)]
        schema, transport, metrics, nodes = build_overlay(coords)
        new_descriptor = NodeDescriptor.build(
            0, schema, {"d0": 7.2, "d1": 7.2}
        )
        nodes[0].update_attributes(new_descriptor)
        assert nodes[0].routing.zero_count() == 1  # node 1 is now a C0 peer

    def test_pending_query_forwards_by_new_coordinates(self):
        """A move mid-query re-derives the level's forward decision.

        The origin at (0, 0) forwards along (3, 0), then moves to (4, 0)
        before the reply arrives. From (0, 0), N(3, 1) misses Q; from
        (4, 0), it is exactly Q. The resumed scan must follow the new
        geometry, not a decision cached under the old coordinates.
        """
        from repro.core.cells import neighboring_region
        from repro.core.messages import ReplyMessage
        from repro.core.observer import ProtocolObserver

        class Forwards(ProtocolObserver):
            def __init__(self):
                self.slots = []

            def query_forwarded(
                self, sender, receiver, query_id, level, dim, dimensions
            ):
                self.slots.append((receiver, level, dim))

        schema, transport, metrics, nodes = build_overlay(
            [(0, 0), (7, 0), (5, 5)]
        )
        origin = nodes[0]
        origin.observer = forwards = Forwards()
        query = Query.where(schema, d0=(4, None), d1=(4, None))
        ranges = query.index_ranges()
        query_id = origin.issue_query(query)
        assert forwards.slots == [(1, 3, 0)]

        transport.disconnect(1)  # the reply is injected by hand below
        transport.run()
        moved = NodeDescriptor.build(0, schema, {"d0": 4.5, "d1": 0.5})
        origin.update_attributes(moved)
        origin.receive_reply(
            ReplyMessage(query_id=query_id, sender=1, matching=())
        )

        new = moved.coordinates
        assert not neighboring_region((0, 0), 3, 1).overlaps(ranges)
        assert neighboring_region(new, 3, 1).overlaps(ranges)
        assert origin.routing.neighbor(3, 1).address == 2
        assert forwards.slots == [(1, 3, 0), (2, 3, 1)]

    def test_update_attributes_rejects_address_change(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0)])
        other = NodeDescriptor.build(5, schema, {"d0": 1, "d1": 1})
        with pytest.raises(ValueError):
            nodes[0].update_attributes(other)


class TestStaleMessages:
    def test_stale_reply_ignored(self):
        from repro.core.messages import ReplyMessage

        schema, transport, metrics, nodes = build_overlay([(0, 0)])
        nodes[0].receive_reply(
            ReplyMessage(query_id=(1, 1), sender=9, matching=())
        )  # no pending entry: must not raise
