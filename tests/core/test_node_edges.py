"""Edge-case tests for the node protocol internals."""

from types import SimpleNamespace

from repro.core.descriptors import NodeDescriptor
from repro.core.messages import QueryMessage, ReplyMessage
from repro.core.node import NodeConfig
from repro.core.query import Query
from repro.faults.harness import _sweep_nodes

from test_node_protocol import build_overlay, run_query


class TestIdleNode:
    """Writes to a node that holds no query, no seen id and no value."""

    def test_dynamic_values_on_an_idle_node(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0), (5, 5)])
        node, other = nodes
        node.set_dynamic_value("load", None)  # clearing an unset value
        assert node.dynamic_values == {}
        node.set_dynamic_value("load", 0.25)
        assert node.dynamic_values == {"load": 0.25}
        assert other.dynamic_values == {}
        node.set_dynamic_value("load", None)
        assert node.dynamic_values == {}
        node.set_dynamic_value("free", 3)
        assert node.dynamic_values == {"free": 3.0}

    def test_restart_and_update_on_an_idle_node(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0), (5, 5)])
        node = nodes[0]
        node.restart()
        assert node.pending == {} and len(node._seen) == 0
        moved = NodeDescriptor.build(0, schema, {"d0": 1.5, "d1": 0.5})
        node.update_attributes(moved)
        assert node.descriptor is moved
        # Still a working node: it issues, is answered, and goes idle.
        results = run_query(transport, node, Query.where(schema))
        assert sorted(d.address for d in results["found"]) == [0, 1]
        assert results["qid"] == (0, 0)
        assert node.pending == {}
        assert len(node._seen) == 1
        node.restart()
        assert len(node._seen) == 0
        assert run_query(transport, node, Query.where(schema))["qid"] == (0, 1)


class TestTimeoutBudget:
    def test_children_get_decayed_budget(self):
        coords = [(0, 0), (7, 7)]
        schema, transport, metrics, nodes = build_overlay(
            coords, config=NodeConfig(query_timeout=10.0)
        )
        sent = []
        original_send = transport.send

        def spy(sender, receiver, message):
            if isinstance(message, QueryMessage):
                sent.append(message)
            original_send(sender, receiver, message)

        transport.send = spy
        nodes[0].issue_query(Query.where(schema, d0=(7, None)))
        transport.run()
        assert sent[0].budget == 7.5  # 10.0 * 0.75

    def test_budget_floor(self):
        coords = [(0, 0), (7, 7)]
        schema, transport, metrics, nodes = build_overlay(
            coords,
            config=NodeConfig(query_timeout=1.0, min_timeout=0.8),
        )
        sent = []
        original_send = transport.send

        def spy(sender, receiver, message):
            if isinstance(message, QueryMessage):
                sent.append(message)
            original_send(sender, receiver, message)

        transport.send = spy
        nodes[0].issue_query(Query.where(schema, d0=(7, None)))
        transport.run()
        assert sent[0].budget == 0.8  # floored, not 0.75


class TestSeenHistory:
    def test_history_evicts_oldest(self):
        schema, transport, metrics, nodes = build_overlay(
            [(0, 0)], config=NodeConfig(seen_history=3)
        )
        for _ in range(5):
            run_query(transport, nodes[0], Query.where(schema))
        assert len(nodes[0]._seen) == 3

    def test_duplicate_detection_within_history(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0), (7, 7)])
        query = Query.where(schema, d0=(7, None))
        message = QueryMessage(
            query_id=(42, 0), sender=0, query=query,
            index_ranges=query.index_ranges(), sigma=None,
            level=3, dimensions=0b11,
        )
        nodes[1].receive_query(message)
        transport.run()  # completes and leaves pending
        assert nodes[1].pending == {}
        nodes[1].receive_query(message)  # replayed after completion
        transport.run()
        assert metrics.records[(42, 0)].duplicates == 1


class TestDropAccounting:
    def test_missing_link_counts_as_drop(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0), (7, 7)])
        nodes[0].routing.remove(1)
        results = run_query(
            transport, nodes[0], Query.where(schema, d0=(7, None))
        )
        record = metrics.records[results["qid"]]
        assert record.drops == 1


class TestLevelMinusOne:
    def test_fanout_target_never_forwards(self):
        """A level=-1 message is a pure match-report request."""
        coords = [(0, 0), (5, 5), (5, 5)]
        schema, transport, metrics, nodes = build_overlay(coords)
        query = Query.where(schema, d0=(5, 5.9), d1=(5, 5.9))
        message = QueryMessage(
            query_id=(9, 9), sender=0, query=query,
            index_ranges=query.index_ranges(), sigma=None,
            level=-1, dimensions=0,
        )
        nodes[1].receive_query(message)
        transport.run()
        record = metrics.records[(9, 9)]
        # Node 1 matched and replied without contacting its C0 twin.
        assert record.received_by == {1}
        assert record.queries_sent == 0
        assert record.replies_sent == 1


class TestReplyMerging:
    def test_descriptors_merge_by_address(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0), (7, 7)])
        query = Query.where(schema, d0=(7, None))
        nodes[0].issue_query(query)
        transport.run()
        qid = next(iter(metrics.records))
        # A straggler duplicate reply must not resurrect the query.
        nodes[0].receive_reply(
            ReplyMessage(query_id=qid, sender=1, matching=())
        )
        assert nodes[0].pending == {}


class TestRestart:
    def test_restart_mid_flight_disarms_every_timer(self):
        """A crash-restart cancels forward, hedge and deferral timers.

        Node 0 holds two queries: one parked on a broken link (its only
        slot inhabitant, node 3, is dead and has no alternate), and one
        whose slot forward to a dead primary is guarded by a failure
        timer plus an armed hedge timer. After restart none of them
        fires: nothing is sent, retried, hedged or timed out.
        """
        coords = [(0, 0), (7, 7), (7, 7), (0, 7)]
        schema, transport, metrics, nodes = build_overlay(
            coords,
            config=NodeConfig(query_timeout=10.0, defer_broken_links=2.0),
        )
        origin = nodes[0]
        primary = origin.routing.neighbor(3, 0).address
        for _ in range(3):  # enough samples to arm hedges
            origin.health.observe_rtt(primary, 0.2)
        transport.disconnect(primary)
        transport.disconnect(3)

        completed = []
        parked = origin.issue_query(
            Query.where(schema, d0=(None, 3), d1=(7, None)),
            on_complete=lambda qid, found: completed.append(qid),
        )
        transport.run()
        transport.advance(10.5)  # node 3 timed out: the branch parks
        hedged = origin.issue_query(
            Query.where(schema, d0=(7, None)),
            on_complete=lambda qid, found: completed.append(qid),
        )
        transport.run()
        assert len(origin.pending[parked].defer_timers) == 1
        (forward,) = origin.pending[hedged].waiting.values()
        assert forward.slot == (3, 0)
        assert forward.timer is not None
        assert forward.hedge_timer is not None
        assert transport.pending_timers == 3

        sent = []
        original_send = transport.send

        def spy(sender, receiver, message):
            sent.append((sender, message))
            original_send(sender, receiver, message)

        transport.send = spy
        before = {
            qid: (record.timeouts, record.hedges, record.deferrals)
            for qid, record in metrics.records.items()
        }
        origin.restart()
        assert transport.pending_timers == 0
        transport.advance(100.0)
        assert sent == []
        assert completed == []
        assert origin.pending == {}
        assert {
            qid: (record.timeouts, record.hedges, record.deferrals)
            for qid, record in metrics.records.items()
        } == before


class TestLeakSweep:
    def test_sweep_reports_a_parked_branch(self):
        """The chaos I2 sweep names a leaked query and its parked branch.

        Node 0's only slot inhabitant for the query, node 2, is dead and
        has no alternate, so after its failure timer the branch parks on
        a deferral timer and the query stays pending.
        """
        coords = [(0, 0), (7, 7), (0, 7)]
        schema, transport, metrics, nodes = build_overlay(
            coords,
            config=NodeConfig(query_timeout=10.0, defer_broken_links=2.0),
        )
        transport.disconnect(2)
        qid = nodes[0].issue_query(
            Query.where(schema, d0=(None, 3), d1=(7, None))
        )
        transport.run()
        transport.advance(10.5)
        assert len(nodes[0].pending[qid].defer_timers) == 1
        hosts = [SimpleNamespace(node=node) for node in nodes]
        assert _sweep_nodes(hosts) == [
            "1 nodes with non-empty pending tables",
            "1 parked branches",
        ]
