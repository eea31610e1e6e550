"""Unit tests for the session's collector series and session wiring."""

from repro.core.observer import FanoutObserver
from repro.experiments.config import PAPER_PEERSIM
from repro.experiments.harness import build_deployment
from repro.metrics.collectors import MetricsCollector
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Simulator

QID = (17, 0)


class TestTelemetryCollector:
    """The collector writes the labelled series when a registry is wired."""

    def test_forwards_count_per_level(self):
        registry = MetricsRegistry()
        collector = MetricsCollector(registry)
        collector.query_forwarded(17, 5, QID, 3, 0, 0b110)
        collector.query_forwarded(5, 9, QID, 3, 1, 0b100)
        collector.query_forwarded(9, 2, QID, 1, 0, 0)
        collector.query_forwarded(2, 4, QID, -1, None, 0)
        counters = registry.snapshot()["counters"]
        assert counters["query.forwarded{level=L3}"] == 2
        assert counters["query.forwarded{level=L1}"] == 1
        assert counters["query.forwarded{level=C0}"] == 1
        # The same hook counts the send and charges the sender's load.
        assert collector.records[QID].queries_sent == 4
        assert collector.load[17] == 1

    def test_drops_count_per_reason(self):
        registry = MetricsRegistry()
        collector = MetricsCollector(registry)
        collector.query_dropped(1, QID, reason="empty_cell")
        collector.query_dropped(2, QID, reason="empty_cell")
        collector.query_dropped(3, QID, reason="timeout_exhausted")
        collector.query_dropped(4, QID, reason="defer_exhausted")
        counters = registry.snapshot()["counters"]
        assert counters["query.dropped{reason=empty_cell}"] == 2
        assert counters["query.dropped{reason=timeout_exhausted}"] == 1
        assert counters["query.dropped{reason=defer_exhausted}"] == 1
        assert collector.records[QID].drops == 4

    def test_in_flight_window_opens_at_origin_only(self):
        registry = MetricsRegistry()
        collector = MetricsCollector(registry)
        collector.query_received(17, QID, False)  # origin: 17 == QID[0]
        collector.query_received(5, QID, True)  # relay: not the origin
        assert registry.gauge("query.in_flight").value == 1.0
        collector.query_completed(17, QID, [5], 1.0)
        assert registry.gauge("query.in_flight").value == 0.0
        # A stray completion never drives the gauge negative.
        collector.query_completed(17, QID, [5], 1.0)
        assert registry.gauge("query.in_flight").value == 0.0

    def test_lifecycle_counters(self):
        registry = MetricsRegistry()
        collector = MetricsCollector(registry)
        collector.query_received(17, QID, True)
        collector.reply_sent(5, 17, QID)
        collector.query_completed(17, QID, [5], 0.8)
        collector.duplicate_query(5, QID)
        collector.neighbor_timeout(5, 9, QID)
        collector.query_hedged(5, 9, 11, QID)
        collector.spurious_timeout(5, 9, QID)
        collector.branch_deferred(5, QID)
        counters = registry.snapshot()["counters"]
        for name in (
            "query.received",
            "query.matched",
            "query.replies",
            "query.completed",
            "query.duplicates",
            "query.timeouts",
            "query.hedges",
            "query.spurious_timeouts",
            "query.degraded",
            "query.deferred",
        ):
            assert counters[name] == 1, name
        assert collector.records[QID].coverage == 0.8


class TestTelemetrySession:
    def test_observers_exclude_tracer_unless_sampling(self):
        config = PAPER_PEERSIM.scaled(40)
        plain = Telemetry()
        assert plain.tracer is None
        deployment, metrics = build_deployment(config, telemetry=plain)
        assert metrics is plain.collector
        assert deployment.observer is plain.collector
        traced = Telemetry(trace_sample_rate=0.5)
        assert traced.tracer is not None
        deployment, metrics = build_deployment(config, telemetry=traced)
        assert metrics is traced.collector
        assert isinstance(deployment.observer, FanoutObserver)
        assert deployment.observer.observers == (
            traced.collector, traced.tracer
        )

    def test_standard_series_sample_registry_state(self):
        session = Telemetry(sample_interval=10.0)
        session.install_standard_series()
        session.registry.gauge("health.breakers_open").add(3.0)
        session.registry.histogram("health.rtt").observe(0.05)
        session.collector.query_hedged(1, 2, 3, QID)
        session.recorder.sample(0.0)
        row = session.timeline()[0]
        assert row["breakers.open"] == 3.0
        assert row["rtt.p50"] > 0.0
        assert row["hedge.rate"] == 1.0
        assert row["queries.in_flight"] == 0.0
        assert row["delivery"] == 0.0  # no query noted yet
        assert "messages.rate" not in row  # no network wired

    def test_attach_detach_on_simulator(self):
        simulator = Simulator()
        session = Telemetry(sample_interval=5.0, trace_sample_rate=1.0)
        session.install_standard_series()
        session.attach(simulator)
        simulator.run(until=12.0)
        session.detach()
        assert simulator.pending_events == 0
        assert [row["t"] for row in session.timeline()] == [0.0, 5.0, 10.0]
        # The tracer clock is bound to the simulated clock.
        session.tracer.query_received(17, QID, False)
        assert session.tracer.last_trace().events[0].time == 12.0

    def test_annotations_flow_to_recorder(self):
        session = Telemetry()
        session.annotate(42.0, "fault:stragglers")
        assert session.recorder.annotations == [(42.0, "fault:stragglers")]

    def test_snapshot_is_the_registry_snapshot(self):
        session = Telemetry()
        session.collector.query_received(17, QID, False)
        assert session.snapshot()["counters"]["query.received"] == 1
