"""Unit tests for adaptive failure detection (repro.core.health).

Covers the three layers separately: the Jacobson/Karn estimator (seeding,
fast-up re-initialisation, backoff), the derived-state circuit breaker,
and the HealthMonitor facade (ambient estimator combination, breaker
bookkeeping, probe candidacy).
"""

import pytest

from repro.core.health import (
    BACKOFF_CAP,
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    HealthConfig,
    HealthMonitor,
    RttEstimator,
)
from repro.obs.registry import MetricsRegistry


class TestRttEstimator:
    def test_cold_estimator_has_no_estimates(self):
        est = RttEstimator(HealthConfig())
        assert est.rto() is None
        assert est.hedge_delay() is None

    def test_seed_enables_rto_but_does_not_count_as_sample(self):
        est = RttEstimator(HealthConfig(), initial_rtt=0.1)
        assert est.samples == 0
        # srtt = 0.1, rttvar = 0.05 -> 0.1 + 4 * 0.05.
        assert est.rto() == pytest.approx(0.3)
        # Hedging needs *real* samples: a seed alone never speculates.
        assert est.hedge_delay() is None

    def test_first_sample_reinitialises_a_seeded_filter(self):
        est = RttEstimator(HealthConfig(), initial_rtt=0.1)
        est.observe(1.0)
        assert est.srtt == pytest.approx(1.0)
        assert est.rttvar == pytest.approx(0.5)
        assert est.samples == 1

    def test_ewma_converges_on_a_steady_signal(self):
        est = RttEstimator(HealthConfig())
        for _ in range(60):
            est.observe(0.2)
        assert est.srtt == pytest.approx(0.2)
        assert est.rttvar == pytest.approx(0.0, abs=1e-3)

    def test_fast_up_reinitialises_on_a_spike(self):
        """One sample far above the estimate re-seats the whole filter."""
        est = RttEstimator(HealthConfig())
        for _ in range(20):
            est.observe(0.1)
        est.observe(5.0)
        assert est.srtt == pytest.approx(5.0)
        assert est.rttvar == pytest.approx(2.5)

    def test_recovery_decays_gently(self):
        """Fast up, slow down: one fast sample after a spike barely moves
        the estimate (spurious-timeout protection while the spike lasts)."""
        est = RttEstimator(HealthConfig())
        est.observe(5.0)
        est.observe(0.1)
        assert est.srtt > 4.0

    def test_karn_backoff_doubles_and_caps(self):
        config = HealthConfig()
        est = RttEstimator(config, initial_rtt=0.5)
        base = est.rto()
        est.on_timeout()
        assert est.rto() == pytest.approx(min(2.0 * base, config.rto_max))
        for _ in range(10):
            est.on_timeout()
        assert est.backoff == BACKOFF_CAP
        assert est.rto() <= config.rto_max

    def test_genuine_sample_clears_backoff(self):
        est = RttEstimator(HealthConfig(), initial_rtt=0.5)
        est.on_timeout()
        est.on_timeout()
        est.observe(0.5)
        assert est.backoff == 1.0

    def test_rto_clamped_between_floor_and_ceiling(self):
        config = HealthConfig(rto_min=0.25, rto_max=15.0)
        fast = RttEstimator(config)
        fast.observe(0.001)
        assert fast.rto() == config.rto_min
        slow = RttEstimator(config)
        slow.observe(100.0)
        assert slow.rto() == config.rto_max

    def test_hedge_delay_gated_by_sample_floor(self):
        est = RttEstimator(HealthConfig())
        est.observe(0.2)
        est.observe(0.2)
        assert est.hedge_delay() is None
        est.observe(0.2)
        delay = est.hedge_delay()
        assert delay is not None
        # p99-style: wider than the smoothed RTT itself.
        assert delay >= est.srtt


class TestCircuitBreaker:
    CONFIG = HealthConfig(breaker_reset=30.0)

    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(self.CONFIG)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state(2.0) == CLOSED

    def test_trips_open_exactly_at_threshold(self):
        breaker = CircuitBreaker(self.CONFIG)
        assert not breaker.record_failure(1.0)
        assert not breaker.record_failure(2.0)
        assert breaker.record_failure(3.0)  # the tripping transition
        assert breaker.state(3.0) == OPEN
        # Further failures do not re-report the transition.
        assert not breaker.record_failure(4.0)

    def test_open_turns_half_open_after_reset_window(self):
        breaker = CircuitBreaker(self.CONFIG)
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        assert breaker.state(3.0 + 29.9) == OPEN
        assert breaker.state(3.0 + 30.0) == HALF_OPEN

    def test_half_open_failure_rearms_the_window(self):
        breaker = CircuitBreaker(self.CONFIG)
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        breaker.record_failure(40.0)  # failed probe
        assert breaker.state(50.0) == OPEN
        assert breaker.state(70.0) == HALF_OPEN

    def test_success_closes_and_reports_the_transition(self):
        breaker = CircuitBreaker(self.CONFIG)
        assert not breaker.record_success()  # closing a closed breaker
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        assert breaker.record_success()
        assert breaker.state(3.0) == CLOSED
        assert breaker.failures == 0


class TestHealthMonitor:
    def test_monitors_of_one_registry_share_their_series(self):
        """A fleet resolves the health series once per registry, and
        every monitor writes the registry's own instruments."""
        registry = MetricsRegistry()
        first = HealthMonitor(HealthConfig(), registry=registry)
        second = HealthMonitor(HealthConfig(), registry=registry)
        assert first._metrics is second._metrics
        first.observe_rtt(1, 0.5)
        second.observe_rtt(2, 0.5)
        second.probe_sent()
        assert registry.histogram("health.rtt").count == 2
        assert registry.counter("health.probes_sent").value == 1
        assert HealthMonitor(HealthConfig())._metrics is not first._metrics

    def test_first_estimator_breaker_and_sample(self):
        """A monitor's maps and ambient estimator appear on first use,
        and every read before then sees the seeded state."""
        config = HealthConfig()
        monitor = HealthMonitor(config, initial_rtt=0.1)
        other = HealthMonitor(config, initial_rtt=0.1)
        seeded = RttEstimator(config, initial_rtt=0.1)
        assert monitor.rto(3) == pytest.approx(seeded.rto())
        assert monitor.hedge_delay(3) is None
        assert monitor.usable(3, 0.0)
        assert monitor.neighbor_states(0.0) == []
        estimator = monitor.estimator(3)
        assert estimator.samples == 0
        assert estimator.srtt == pytest.approx(0.1)
        assert monitor.estimator(3) is estimator
        assert monitor.breaker(4).failures == 0
        assert [row["address"] for row in monitor.neighbor_states(0.0)] == [
            3, 4,
        ]
        assert other.neighbor_states(0.0) == []  # nothing shared
        monitor.observe_rtt(3, 2.0)
        assert estimator.samples == 1
        assert monitor._ambient.samples == 1
        # The first sample reinitialises the ambient filter as well.
        assert monitor.rto(9) == pytest.approx(
            min(2.0 + 4 * 1.0, config.rto_max)
        )
        assert other._ambient.samples == 0
        assert other.rto(9) == pytest.approx(seeded.rto())

    def test_ambient_estimator_covers_unsampled_neighbors(self):
        """A neighbor never sampled still gets a timeout estimate once
        *any* peer has demonstrated the network's current weather."""
        monitor = HealthMonitor(HealthConfig())
        assert monitor.rto(99) is None
        monitor.observe_rtt(1, 2.0)
        assert monitor.rto(99) is not None

    def test_rto_takes_the_conservative_maximum(self):
        """A single slow sample from anyone lifts every neighbor's rto
        (the ambient term), even if the neighbor itself looked fast."""
        config = HealthConfig()
        monitor = HealthMonitor(config)
        for _ in range(10):
            monitor.observe_rtt(1, 0.01)
        fast = monitor.rto(1)
        assert fast == config.rto_min  # clamped floor
        monitor.observe_rtt(2, 5.0)  # someone else reports a spike
        assert monitor.rto(1) > fast

    def test_hedge_delay_combines_private_and_ambient(self):
        monitor = HealthMonitor(HealthConfig())
        assert monitor.hedge_delay(7) is None
        for _ in range(3):
            monitor.observe_rtt(1, 0.2)
        # Neighbor 7 never sampled: the ambient bound speaks for it.
        assert monitor.hedge_delay(7) is not None

    def test_breaker_lifecycle_through_the_monitor(self):
        monitor = HealthMonitor(HealthConfig(breaker_reset=30.0))
        for t in (1.0, 2.0, 3.0):
            monitor.record_failure(5, t)
        assert not monitor.usable(5, 3.0)
        assert monitor.open_addresses(3.0) == {5}
        assert monitor.probe_candidate(3.0) is None  # still open, not due
        assert monitor.probe_candidate(40.0) == 5  # half-open: probe it
        assert monitor.breaker_state(5, 40.0) == HALF_OPEN
        monitor.record_success(5)
        assert monitor.usable(5, 40.0)
        assert monitor.open_addresses(40.0) == set()
        assert monitor.breaker_state(5, 40.0) == CLOSED

    def test_neighbor_states_cover_estimators_and_breakers(self):
        """One row per address either map knows, sorted by address."""
        monitor = HealthMonitor(HealthConfig(breaker_reset=30.0))
        monitor.observe_rtt(10, 0.5)  # estimator only
        monitor.record_failure(9, 1.0)  # breaker only
        monitor.observe_rtt(2, 0.2)  # both
        monitor.record_failure(2, 1.0)
        rows = monitor.neighbor_states(1.0)
        assert [row["address"] for row in rows] == [2, 9, 10]
        by_address = {row["address"]: row for row in rows}
        assert by_address[10] == {
            "address": 10,
            "srtt": 0.5,
            "rto": monitor.estimator(10).rto(),
            "samples": 1,
            "breaker": CLOSED,
        }
        assert by_address[9] == {
            "address": 9,
            "srtt": None,
            "rto": None,
            "samples": 0,
            "breaker": CLOSED,
        }
        assert by_address[2]["srtt"] == 0.2
        assert by_address[2]["samples"] == 1
        # The private filter backed off on the timeout.
        assert by_address[2]["rto"] == monitor.estimator(2).rto()
        assert monitor.neighbor_states(1.0) == rows  # reading changes nothing

    def test_neighbor_states_follow_breaker_transitions(self):
        monitor = HealthMonitor(HealthConfig(breaker_reset=30.0))

        def state(now):
            (row,) = monitor.neighbor_states(now)
            return row["breaker"]

        monitor.record_failure(5, 1.0)
        monitor.record_failure(5, 2.0)
        assert state(2.0) == CLOSED
        monitor.record_failure(5, 3.0)
        assert state(3.0) == OPEN
        assert state(32.9) == OPEN
        assert state(33.0) == HALF_OPEN
        monitor.record_failure(5, 40.0)  # a failed probe re-arms it
        assert state(45.0) == OPEN
        monitor.record_success(5)
        assert state(45.0) == CLOSED

    def test_unknown_neighbors_are_usable(self):
        monitor = HealthMonitor(HealthConfig())
        assert monitor.usable(123, 0.0)
        assert monitor.breaker_state(123, 0.0) == CLOSED

    def test_timeout_applies_karn_backoff_to_the_private_filter(self):
        monitor = HealthMonitor(HealthConfig())
        monitor.observe_rtt(1, 1.0)
        before = monitor.rto(1)
        monitor.record_failure(1, 10.0)
        assert monitor.rto(1) > before

    def test_initial_rtt_seeds_every_lazily_created_estimator(self):
        monitor = HealthMonitor(HealthConfig(), initial_rtt=0.2)
        assert monitor.rto(42) is not None
        assert monitor.estimator(42).samples == 0
