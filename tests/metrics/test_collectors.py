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


def issue_one(collector, query_id, receivers, duplicates=0):
    """Feed the events of one query: origin first, then *receivers*."""
    origin = query_id[0]
    collector.query_received(origin, query_id, False)
    for receiver in receivers:
        collector.query_forwarded(origin, receiver, query_id, 1, 0, 0)
        collector.query_received(receiver, query_id, receiver % 2 == 0)
    for _ in range(duplicates):
        collector.duplicate_query(origin, query_id)
    collector.query_completed(origin, query_id, [], 1.0)


class TestConsumedRecords:
    def test_a_taken_record_leaves_records(self):
        collector = MetricsCollector()
        issue_one(collector, (0, 0), [1, 2, 3])
        record = collector.consume_opened()
        assert record is not None and record.query_id == (0, 0)
        assert collector.records == {}
        assert collector.release((0, 0)) is None  # already taken

    def test_a_late_event_lands_on_the_taken_record(self):
        """A retry copy received after the caller took the record updates
        that record and opens none, so the next take is unambiguous."""
        collector = MetricsCollector()
        issue_one(collector, (0, 0), [1, 2])
        first = collector.consume_opened()
        issue_one(collector, (0, 1), [3])
        collector.query_received(5, (0, 0), False)  # late copy of (0, 0)
        collector.duplicate_query(1, (0, 0))
        second = collector.consume_opened()
        assert second is not None and second.query_id == (0, 1)
        assert 5 in first.received_by and first.duplicates == 1
        assert collector.records == {}

    def test_aggregates_count_every_query(self, monkeypatch):
        """Taken, windowed and folded records all count, with the values
        a collector that keeps every record would report."""
        import repro.metrics.collectors as collectors

        monkeypatch.setattr(collectors, "RELEASED_WINDOW", 2)
        kept, taken = MetricsCollector(), MetricsCollector()
        for sequence in range(6):
            receivers = list(range(1, 2 + sequence))
            for collector in (kept, taken):
                issue_one(collector, (0, sequence), receivers, sequence)
            assert taken.consume_opened().query_id == (0, sequence)
            taken.spurious_timeout(0, 1, (0, sequence))
            kept.spurious_timeout(0, 1, (0, sequence))
            taken.branch_deferred(0, (0, sequence))
            kept.branch_deferred(0, (0, sequence))
        assert len(taken.records) == 0
        assert len(taken._released) == 2
        for name in (
            "total_duplicates",
            "total_spurious_timeouts",
            "total_deferrals",
            "mean_routing_overhead",
        ):
            assert getattr(taken, name)() == getattr(kept, name)(), name
        assert taken.delivery_of((0, 5), {2, 4}) == 1.0  # in the window
        taken.reset()
        assert taken.total_duplicates() == 0
        assert taken.mean_routing_overhead() == 0.0

    def test_records_stay_without_consume(self):
        collector = MetricsCollector()
        for sequence in range(3):
            issue_one(collector, (0, sequence), [1])
        assert sorted(collector.records) == [(0, 0), (0, 1), (0, 2)]
        assert collector.consume_opened() is None  # ambiguous: all stay
        assert len(collector.records) == 3
