"""Adaptive failure timers, spurious-timeout handling, hedged forwards,
and drop accounting at the protocol level (DirectTransport, no sim).

The timer tests spy on ``call_later`` to read the armed delay directly;
the behavioural tests drive full mini-overlays through timeouts, hedges
and late replies and assert on the observer's per-query record.
"""

import pytest

from repro.core.node import NodeConfig
from repro.core.query import Query

from test_node_protocol import build_overlay, run_query


def capture_delays(transport):
    """Record every armed timer delay (the first is the failure timer)."""
    delays = []
    original = transport.call_later

    def spy(delay, callback, *args):
        delays.append(delay)
        return original(delay, callback, *args)

    transport.call_later = spy
    return delays


class TestAdaptiveTimer:
    """The failure timer: static budget as floor, span-scaled rto on top."""

    #: build_overlay defaults: query_timeout=5, decay 0.75, headroom 0.25
    #: -> static timer max(5, 3.75 + 0.25) = 5 for the first forward.
    STATIC = 5.0
    #: First forward leaves at level 3: the reply's critical path spans
    #: levels 2..0 plus the C0 fan-out -> span = level + 2 = 5.
    SPAN = 5

    def test_cold_estimators_arm_the_static_timer(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0), (7, 7)])
        delays = capture_delays(transport)
        nodes[0].issue_query(Query.where(schema, d0=(7, None)))
        assert delays[0] == pytest.approx(self.STATIC)

    def test_fast_estimates_never_shrink_the_timer(self):
        """Extend-only: the static decayed budget is the floor — a subtree
        reply may legitimately take the whole window (child retries)."""
        schema, transport, metrics, nodes = build_overlay([(0, 0), (7, 7)])
        for _ in range(5):
            nodes[0].health.observe_rtt(1, 0.001)
        delays = capture_delays(transport)
        nodes[0].issue_query(Query.where(schema, d0=(7, None)))
        assert delays[0] == pytest.approx(self.STATIC)

    def test_slow_estimates_extend_the_timer_span_fold(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0), (7, 7)])
        nodes[0].health.observe_rtt(1, 2.0)  # srtt 2, rttvar 1 -> rto 6
        delays = capture_delays(transport)
        nodes[0].issue_query(Query.where(schema, d0=(7, None)))
        assert delays[0] == pytest.approx(self.SPAN * 6.0)

    def test_span_scaled_rto_max_bounds_the_extension(self):
        """Invariant I1: failure detection never stalls indefinitely."""
        schema, transport, metrics, nodes = build_overlay([(0, 0), (7, 7)])
        nodes[0].health.observe_rtt(1, 100.0)  # clamps to rto_max
        delays = capture_delays(transport)
        nodes[0].issue_query(Query.where(schema, d0=(7, None)))
        rto_max = nodes[0].config.health.rto_max
        assert delays[0] == pytest.approx(self.SPAN * rto_max)

    def test_disabled_adaptive_ignores_the_estimator(self):
        schema, transport, metrics, nodes = build_overlay(
            [(0, 0), (7, 7)],
            config=NodeConfig(query_timeout=5.0, adaptive_timeouts=False),
        )
        nodes[0].health.observe_rtt(1, 100.0)
        delays = capture_delays(transport)
        nodes[0].issue_query(Query.where(schema, d0=(7, None)))
        assert delays[0] == pytest.approx(self.STATIC)


class TestSpuriousTimeouts:
    def test_late_reply_from_failed_neighbor_is_rehabilitating(self):
        """A reply arriving after the timeout is detected as spurious: the
        matches are still merged and the peer's breaker is credited."""
        schema, transport, metrics, nodes = build_overlay(
            [(0, 0), (7, 7), (7, 7)]
        )
        primary = nodes[0].routing.neighbor(3, 0).address
        results = {}
        nodes[0].issue_query(
            Query.where(schema, d0=(7, None)),
            on_complete=lambda qid, found: results.update(qid=qid, found=found),
        )
        # Deliver nothing until after the failure timer: the primary's
        # reply is then in flight while the retry runs, so it arrives
        # late — the timeout was spurious.
        transport.advance(20.0)
        assert {d.address for d in results["found"]} == {1, 2}
        record = metrics.records[results["qid"]]
        assert record.spurious_timeouts == 1
        # The late reply rehabilitated the peer: its breaker was reset.
        assert nodes[0].health.breaker(primary).failures == 0

    def test_spurious_counter_via_collector_totals(self):
        schema, transport, metrics, nodes = build_overlay(
            [(0, 0), (7, 7), (7, 7)]
        )
        nodes[0].issue_query(Query.where(schema, d0=(7, None)))
        transport.advance(20.0)
        assert metrics.total_spurious_timeouts() == 1


class TestDropAccounting:
    """Every abandoned branch emits ``query_dropped`` exactly once."""

    def test_exhausted_retry_chain_counts_one_drop(self):
        """Two timeouts on the same branch (primary, then the alternate)
        are two ``neighbor_timeout`` events but a single drop."""
        schema, transport, metrics, nodes = build_overlay(
            [(0, 0), (7, 7), (7, 7)]
        )
        transport.disconnect(1)
        transport.disconnect(2)
        results = {}
        nodes[0].issue_query(
            Query.where(schema, d0=(7, None)),
            on_complete=lambda qid, found: results.update(qid=qid, found=found),
        )
        transport.advance(30.0)
        assert results["found"] == []
        record = metrics.records[results["qid"]]
        assert record.timeouts == 2
        assert record.drops == 1
        assert record.coverage is not None  # degraded, not silent

    def test_missing_link_drop_counts_once(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0), (7, 7)])
        nodes[0].routing.remove(1)
        results = run_query(
            transport, nodes[0], Query.where(schema, d0=(7, None))
        )
        assert results["found"] == []
        assert metrics.records[results["qid"]].drops == 1

    def test_clean_completion_drops_nothing(self):
        schema, transport, metrics, nodes = build_overlay([(0, 0), (7, 7)])
        results = run_query(
            transport, nodes[0], Query.where(schema, d0=(7, None))
        )
        assert [d.address for d in results["found"]] == [1]
        record = metrics.records[results["qid"]]
        # Empty-but-overlapping cells still count as paper-style drops
        # (locally indistinguishable from broken links), but they must
        # not degrade the coverage estimate of a cleanly answered query.
        assert record.coverage is None


def trained_overlay(coords, samples=3, rtt=0.2):
    """An overlay whose origin has enough RTT samples to arm hedges."""
    schema, transport, metrics, nodes = build_overlay(coords)
    primary = nodes[0].routing.neighbor(3, 0).address
    for _ in range(samples):
        nodes[0].health.observe_rtt(primary, rtt)
    return schema, transport, metrics, nodes, primary


class TestHedgedForwards:
    def test_hedge_inert_without_samples(self):
        """Cold estimators never speculate: a dead primary is handled by
        the ordinary timeout/retry path, with no hedge event."""
        schema, transport, metrics, nodes = build_overlay(
            [(0, 0), (7, 7), (7, 7)]
        )
        transport.disconnect(1)
        results = {}
        nodes[0].issue_query(
            Query.where(schema, d0=(7, None)),
            on_complete=lambda qid, found: results.update(qid=qid, found=found),
        )
        transport.advance(30.0)
        assert {d.address for d in results["found"]} == {2}
        assert metrics.records[results["qid"]].hedges == 0

    def test_hedge_saves_branch_when_primary_is_dead(self):
        schema, transport, metrics, nodes, primary = trained_overlay(
            [(0, 0), (7, 7), (7, 7)]
        )
        transport.disconnect(primary)
        alternate = 3 - primary
        results = {}
        nodes[0].issue_query(
            Query.where(schema, d0=(7, None)),
            on_complete=lambda qid, found: results.update(qid=qid, found=found),
        )
        transport.advance(30.0)
        assert {d.address for d in results["found"]} == {alternate}
        record = metrics.records[results["qid"]]
        assert record.hedges == 1
        assert metrics.total_duplicates() == 0
        assert transport.pending_timers == 0  # hedge timers all cancelled

    def test_primary_reply_first_does_not_lose_the_hedge_share(self):
        """Regression: the seen-LRU splits the subtree between the pair —
        each copy's reply carries the matches of the nodes it reached
        first. A primary reply must detach the live hedge, not cancel it,
        or the hedge's share of the matches is forfeited."""
        schema, transport, metrics, nodes, primary = trained_overlay(
            [(0, 0), (7, 7), (7, 7)]
        )
        results = {}
        nodes[0].issue_query(
            Query.where(schema, d0=(7, None)),
            on_complete=lambda qid, found: results.update(qid=qid, found=found),
        )
        # Nothing delivers before t=2 (the hedge delay), so the hedge
        # fires while the primary's query is still queued: both copies
        # race, the duplicate suppression splits the two matches between
        # their replies, and the primary's reply happens to land first.
        transport.advance(30.0)
        assert {d.address for d in results["found"]} == {1, 2}
        record = metrics.records[results["qid"]]
        assert record.hedges == 1
        assert transport.pending_timers == 0

    def test_hedge_reply_first_keeps_primary_outstanding(self):
        """Asymmetry: a fast (thin) hedge reply never cancels the primary,
        whose branch still carries the bulk of the subtree's matches."""
        # Primary (1) is slowed by a dead C0 twin (2); the alternate (3)
        # sits in the same top-level cell but a different C0, so its
        # hedge copy replies quickly with only its own match.
        schema, transport, metrics, nodes = build_overlay(
            [(0, 0), (7, 7), (7, 7), (7, 6)]
        )
        assert nodes[0].routing.neighbor(3, 0).address == 1
        for _ in range(3):
            nodes[0].health.observe_rtt(1, 0.2)
        transport.disconnect(2)
        results = {}
        nodes[0].issue_query(
            Query.where(schema, d0=(7, None)),
            on_complete=lambda qid, found: results.update(qid=qid, found=found),
        )
        transport.advance(40.0)
        # Both the hedge's own match and the slow primary's are present.
        found = {d.address for d in results["found"]}
        assert {1, 3} <= found
        record = metrics.records[results["qid"]]
        assert record.hedges == 1
        assert transport.pending_timers == 0

    def test_no_double_counting_of_split_matches(self):
        """I3 with hedging: however the pair's replies interleave, every
        matching node appears exactly once in the final result."""
        schema, transport, metrics, nodes, primary = trained_overlay(
            [(0, 0), (7, 7), (7, 7), (7, 7)]
        )
        results = {}
        nodes[0].issue_query(
            Query.where(schema, d0=(7, None)),
            on_complete=lambda qid, found: results.update(qid=qid, found=found),
        )
        transport.advance(40.0)
        addresses = [d.address for d in results["found"]]
        assert sorted(addresses) == sorted(set(addresses))
        assert set(addresses) == {1, 2, 3}
