"""Unit tests for the metric collectors."""

from repro.core.attributes import AttributeSchema, numeric
from repro.core.descriptors import NodeDescriptor
from repro.metrics.collectors import MetricsCollector, QueryRecord


def make_descriptor(address):
    schema = AttributeSchema.regular([numeric("x", 0, 8)], max_level=3)
    return NodeDescriptor.build(address, schema, {"x": address % 8})


class TestQueryRecord:
    def test_routing_overhead_excludes_origin_and_matchers(self):
        record = QueryRecord(query_id=(7, 0))
        record.received_by = {7, 1, 2, 3}
        record.matched_receivers = {1}
        # 2 and 3 received without matching; the origin (7) is not a hop.
        assert record.routing_overhead() == 2

    def test_delivery(self):
        record = QueryRecord(query_id=(0, 0))
        record.received_by = {1, 2, 3}
        assert record.delivery({1, 2, 3, 4}) == 0.75
        assert record.delivery(set()) == 1.0

    def test_origin_from_query_id(self):
        assert QueryRecord(query_id=(42, 3)).origin == 42

    def test_completed_flag(self):
        record = QueryRecord(query_id=(0, 0))
        assert not record.completed
        record.result = []
        assert record.completed

    def test_matching_origin_excluded_from_overhead(self):
        # The origin matched its own query: it is neither a hop nor
        # overhead, even though it appears in received_by.
        record = QueryRecord(query_id=(5, 0))
        record.received_by = {5, 9}
        record.matched_receivers = {5, 9}
        assert record.routing_overhead() == 0
        # ...and still zero when the origin received without matching.
        record.matched_receivers = {9}
        assert record.routing_overhead() == 0

    def test_delivery_empty_expected_is_perfect(self):
        record = QueryRecord(query_id=(0, 0))
        assert record.delivery(set()) == 1.0
        assert record.delivery([]) == 1.0

    def test_anomaly_counters_accumulate_independently(self):
        record = QueryRecord(query_id=(0, 0))
        assert (record.duplicates, record.timeouts, record.drops) == (0, 0, 0)
        record.duplicates += 2
        record.timeouts += 1
        record.drops += 3
        assert (record.duplicates, record.timeouts, record.drops) == (2, 1, 3)


class TestMetricsCollector:
    def test_event_accumulation(self):
        collector = MetricsCollector()
        qid = (0, 0)
        collector.query_forwarded(0, 1, qid, 1, 0, 0)
        collector.query_received(1, qid, True)
        collector.query_forwarded(1, 2, qid, 1, 0, 0)
        collector.query_received(2, qid, False)
        collector.reply_sent(2, 1, qid)
        collector.reply_sent(1, 0, qid)
        collector.query_completed(0, qid, [make_descriptor(1)], 1.0)
        record = collector.records[qid]
        assert record.queries_sent == 2
        assert record.replies_sent == 2
        assert record.received_by == {1, 2}
        assert record.matched_receivers == {1}
        assert record.routing_overhead() == 1
        assert record.completed

    def test_load_counts_dispatched_messages(self):
        collector = MetricsCollector()
        qid = (0, 0)
        collector.query_forwarded(0, 1, qid, 1, 0, 0)
        collector.query_forwarded(0, 2, qid, 1, 0, 0)
        collector.reply_sent(1, 0, qid)
        assert collector.load[0] == 2
        assert collector.load[1] == 1
        assert collector.load_distribution() == [1, 2]

    def test_mean_routing_overhead(self):
        collector = MetricsCollector()
        collector.query_received(1, (0, 0), False)
        collector.query_received(2, (0, 1), True)
        assert collector.mean_routing_overhead() == 0.5
        assert MetricsCollector().mean_routing_overhead() == 0.0

    def test_duplicates_and_timeouts(self):
        collector = MetricsCollector()
        collector.duplicate_query(3, (0, 0))
        collector.neighbor_timeout(3, 4, (0, 0))
        collector.query_dropped(3, (0, 0), "empty_cell")
        record = collector.records[(0, 0)]
        assert record.duplicates == 1
        assert record.timeouts == 1
        assert record.drops == 1
        assert collector.total_duplicates() == 1

    def test_partial_completion_records_coverage(self):
        collector = MetricsCollector()
        collector.query_completed(0, (0, 0), [], 1.0)
        collector.query_completed(0, (0, 1), [], 0.75)
        assert collector.records[(0, 0)].coverage is None
        assert collector.records[(0, 1)].coverage == 0.75
        assert collector.series is None  # no registry wired

    def test_resets(self):
        collector = MetricsCollector()
        collector.query_forwarded(0, 1, (0, 0), 1, 0, 0)
        collector.reset_load()
        assert collector.load == {}
        assert (0, 0) in collector.records
        collector.reset()
        assert collector.records == {}

    def test_consume_opened_returns_single_new_record(self):
        collector = MetricsCollector()
        collector.query_forwarded(0, 1, (0, 0), 1, 0, 0)
        record = collector.consume_opened()
        assert record is not None and record.query_id == (0, 0)
        # Consumed: a second call has nothing new to report.
        assert collector.consume_opened() is None
        # Two records opened since the last consume: ambiguous -> None.
        collector.query_forwarded(0, 1, (0, 1), 1, 0, 0)
        collector.query_forwarded(0, 2, (0, 2), 1, 0, 0)
        assert collector.consume_opened() is None

    def test_reset_between_open_and_consume_drops_stale_record(self):
        # Regression: a reset() must clear the opened-record tracking,
        # otherwise consume_opened() hands back a record that is no
        # longer in ``records``.
        collector = MetricsCollector()
        collector.query_forwarded(0, 1, (0, 0), 1, 0, 0)
        collector.reset()
        assert collector.consume_opened() is None
        # The next opened record after the reset is reported normally.
        collector.query_forwarded(0, 1, (0, 7), 1, 0, 0)
        record = collector.consume_opened()
        assert record is not None and record.query_id == (0, 7)

    def test_delivery_of_and_mean_delivery(self):
        collector = MetricsCollector()
        collector.query_received(1, (0, 0), True)
        collector.query_received(2, (0, 0), True)
        collector.query_received(1, (0, 1), True)
        assert collector.delivery_of((0, 0), {1, 2}) == 1.0
        assert collector.delivery_of((0, 1), {1, 2}) == 0.5
        # Unrecorded queries count as zero delivery, not as missing data.
        assert collector.delivery_of((9, 9), {1}) == 0.0
        assert collector.mean_delivery(
            {(0, 0): {1, 2}, (0, 1): {1, 2}, (9, 9): {1}}
        ) == (1.0 + 0.5 + 0.0) / 3
        assert collector.mean_delivery({}) == 0.0
