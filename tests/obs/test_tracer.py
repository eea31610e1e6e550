"""Unit tests for the trace recorder, hop trees, JSONL export and render."""

from repro.obs import events as ev
from repro.obs.render import render_hop_tree
from repro.obs.tracer import TraceRecorder, read_jsonl

QID = (17, 0)


def record_simple_run(tracer):
    """A 4-node dissemination: 17 -> 421 -> {98, 7}; 98 matches."""
    tracer.query_received(17, QID, False)
    tracer.query_forwarded(17, 421, QID, 3, 0, 0b110)
    tracer.query_received(421, QID, False)
    tracer.query_forwarded(421, 98, QID, 2, 1, 0b100)
    tracer.query_received(98, QID, True)
    tracer.query_forwarded(421, 7, QID, -1, None, 0)
    tracer.query_received(7, QID, True)
    tracer.reply_sent(98, 421, QID)
    tracer.reply_sent(7, 421, QID)
    tracer.reply_sent(421, 17, QID)
    tracer.query_completed(17, QID, [], 1.0)


class TestTraceRecorder:
    def test_event_stream_and_counts(self):
        tracer = TraceRecorder()
        record_simple_run(tracer)
        trace = tracer.last_trace()
        assert trace is not None and trace.query_id == QID
        assert trace.origin == 17
        assert trace.count(ev.FORWARDED) == 3
        assert trace.count(ev.RECEIVED) == 4
        assert trace.matched_nodes() == [98, 7]
        assert trace.duplicate_nodes() == []
        assert tracer.event_count() == len(trace.events)

    def test_clock_stamps_events(self):
        now = {"t": 0.0}
        tracer = TraceRecorder(clock=lambda: now["t"])
        tracer.query_received(17, QID, False)
        now["t"] = 2.5
        tracer.query_forwarded(17, 421, QID, 3, 0, 0b110)
        times = [event.time for event in tracer.last_trace().events]
        assert times == [0.0, 2.5]

    def test_bind_clock_after_construction(self):
        tracer = TraceRecorder()
        tracer.query_received(17, QID, False)  # no clock yet -> 0.0
        tracer.bind_clock(lambda: 9.0)
        tracer.query_forwarded(17, 421, QID, 3, 0, 0b110)
        times = [event.time for event in tracer.last_trace().events]
        assert times == [0.0, 9.0]

    def test_anomaly_events(self):
        tracer = TraceRecorder()
        tracer.duplicate_query(5, QID)
        tracer.neighbor_timeout(5, 9, QID)
        tracer.query_dropped(5, QID, reason="empty_cell")
        trace = tracer.last_trace()
        assert trace.count(ev.DUPLICATE) == 1
        assert trace.count(ev.TIMEOUT) == 1
        assert trace.count(ev.DROPPED) == 1
        assert trace.duplicate_nodes() == [5]


class TestHopTree:
    def test_tree_reconstruction(self):
        tracer = TraceRecorder()
        record_simple_run(tracer)
        root = tracer.last_trace().hop_tree()
        assert root.address == 17 and root.matched is False
        (child,) = root.children
        assert child.address == 421
        assert (child.level, child.dim, child.dimensions) == (3, 0, (1, 2))
        grandchildren = {node.address: node for node in child.children}
        assert grandchildren[98].matched is True
        assert grandchildren[7].level == -1  # the C0 fan-out edge
        assert not any(node.revisit for node in grandchildren.values())

    def test_revisit_flagged_not_recursed(self):
        tracer = TraceRecorder()
        qid = (0, 0)
        tracer.query_received(0, qid, False)
        tracer.query_forwarded(0, 1, qid, 1, 0, 0)
        tracer.query_received(1, qid, True)
        tracer.query_forwarded(1, 0, qid, 1, 0, 0)  # back to the origin
        root = tracer.last_trace().hop_tree()
        revisit = root.children[0].children[0]
        assert revisit.address == 0 and revisit.revisit
        assert revisit.children == []

    def test_exactly_once(self):
        tracer = TraceRecorder()
        record_simple_run(tracer)
        trace = tracer.last_trace()
        assert trace.exactly_once([98, 7])
        assert not trace.exactly_once([98, 7, 1234])  # 1234 never received
        tracer.duplicate_query(98, QID)
        assert not trace.exactly_once([98, 7])

    def test_unobserved_reception_renders_as_question_mark(self):
        tracer = TraceRecorder()
        qid = (0, 0)
        tracer.query_received(0, qid, False)
        tracer.query_forwarded(0, 1, qid, 1, 0, 0)  # reception lost
        text = render_hop_tree(tracer.last_trace())
        assert "`-- 1 [l1 d0 dims={}] ?" in text


class TestRender:
    def test_header_and_marks(self):
        tracer = TraceRecorder()
        record_simple_run(tracer)
        text = render_hop_tree(tracer.last_trace())
        lines = text.splitlines()
        assert lines[0].startswith(
            f"query {QID}  origin=17  forwards=3  received=4  matched=2"
        )
        assert "drops=" not in lines[0]  # anomaly counters only when nonzero
        assert lines[1] == "17 ."
        assert any("[C0] *" in line for line in lines)

    def test_max_lines_truncates(self):
        tracer = TraceRecorder()
        qid = (0, 0)
        tracer.query_received(0, qid, False)
        for peer in range(1, 30):
            tracer.query_forwarded(0, peer, qid, 1, 0, 0)
            tracer.query_received(peer, qid, True)
        text = render_hop_tree(tracer.last_trace(), max_lines=10)
        assert "(truncated)" in text
        assert len(text.splitlines()) <= 12


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracer = TraceRecorder()
        record_simple_run(tracer)
        path = tmp_path / "trace.jsonl"
        count = tracer.write_jsonl(path)
        events = read_jsonl(path)
        assert count == len(events) == tracer.event_count()
        assert events == list(tracer.iter_events())

    def test_drop_reason_survives_round_trip(self, tmp_path):
        tracer = TraceRecorder()
        tracer.query_dropped(5, QID, reason="timeout_exhausted")
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        (event,) = read_jsonl(path)
        assert event.kind == ev.DROPPED
        assert event.reason == "timeout_exhausted"


def record_many_runs(tracer, count):
    """Record *count* single-origin runs with distinct query ids."""
    for origin in range(count):
        qid = (origin, 0)
        tracer.query_received(origin, qid, False)
        tracer.query_forwarded(origin, origin + 10_000, qid, 1, 0, 0)
        tracer.query_received(origin + 10_000, qid, True)
        tracer.reply_sent(origin + 10_000, origin, qid)
        tracer.query_completed(origin, qid, [origin + 10_000], 1.0)


class TestSampling:
    def test_rate_bounds_are_enforced(self):
        import pytest

        with pytest.raises(ValueError):
            TraceRecorder(sample_rate=1.5)
        with pytest.raises(ValueError):
            TraceRecorder(sample_rate=-0.1)

    def test_rate_one_keeps_everything(self):
        tracer = TraceRecorder(sample_rate=1.0)
        record_many_runs(tracer, 20)
        assert len(tracer.traces) == 20

    def test_rate_zero_keeps_nothing(self):
        tracer = TraceRecorder(sample_rate=0.0)
        record_many_runs(tracer, 20)
        assert len(tracer.traces) == 0
        assert tracer.event_count() == 0

    def test_decision_is_deterministic_and_seeded(self):
        first = TraceRecorder(sample_rate=0.3, sample_seed=11)
        second = TraceRecorder(sample_rate=0.3, sample_seed=11)
        other_seed = TraceRecorder(sample_rate=0.3, sample_seed=12)
        qids = [(origin, seq) for origin in range(40) for seq in range(3)]
        first_picks = {qid for qid in qids if first.sampled(qid)}
        assert first_picks == {qid for qid in qids if second.sampled(qid)}
        assert 0 < len(first_picks) < len(qids)
        assert first_picks != {
            qid for qid in qids if other_seed.sampled(qid)
        }

    def test_sampled_in_traces_are_complete(self):
        """Head sampling keeps or drops whole queries — never partial."""
        tracer = TraceRecorder(sample_rate=0.4, sample_seed=3)
        record_many_runs(tracer, 50)
        assert 0 < len(tracer.traces) < 50
        for qid, trace in tracer.traces.items():
            assert tracer.sampled(qid)
            assert trace.count(ev.RECEIVED) == 2
            assert trace.count(ev.COMPLETED) == 1
            assert trace.exactly_once([qid[0] + 10_000])

    def test_sampled_out_queries_leave_no_jsonl_rows(self, tmp_path):
        tracer = TraceRecorder(sample_rate=0.4, sample_seed=3)
        record_many_runs(tracer, 50)
        path = tmp_path / "sampled.jsonl"
        tracer.write_jsonl(path)
        events = read_jsonl(path)
        seen = {event.query_id for event in events}
        assert seen == set(tracer.traces)
        for origin in range(50):
            if not tracer.sampled((origin, 0)):
                assert (origin, 0) not in seen

    def test_memory_is_bounded_at_scale(self):
        """Acceptance gate: 100k queries at 1% keep the tracer small."""
        tracer = TraceRecorder(sample_rate=0.01, sample_seed=5)
        kept = 0
        for origin in range(100_000):
            qid = (origin, 0)
            tracer.query_received(origin, qid, False)
            tracer.query_completed(origin, qid, [], 1.0)
            if tracer.sampled(qid):
                kept += 1
        assert len(tracer.traces) == kept
        # ~1% of 100k, within generous binomial slack.
        assert 500 <= kept <= 1_500
        assert tracer.event_count() == 2 * kept

    def test_ingest_merges_pre_recorded_events(self):
        source = TraceRecorder(clock=lambda: 4.0)
        record_simple_run(source)
        sink = TraceRecorder()
        sink.ingest(source.iter_events())
        trace = sink.last_trace()
        assert trace.query_id == QID
        assert trace.count(ev.FORWARDED) == 3
        assert trace.events[0].time == 4.0
