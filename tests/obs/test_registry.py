"""Unit tests for the metrics registry and its no-op fast path."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    MetricsRegistry,
    NULL_REGISTRY,
    bin_index,
    bin_upper,
    labeled_name,
    merge_snapshots,
    split_labels,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(0.2)
        gauge.set(0.9)
        assert gauge.value == 0.9

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (3.0, 5.0, 1.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 9.0
        assert histogram.minimum == 1.0
        assert histogram.maximum == 5.0
        assert histogram.mean() == 3.0
        assert registry.histogram("empty").mean() == 0.0

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("x") is registry.gauge("x")
        assert registry.histogram("x") is registry.histogram("x")

    def test_bundle_is_built_once_until_reset(self):
        registry = MetricsRegistry()
        built = []

        def factory(owner):
            built.append(owner)
            return owner.counter("bundled")

        first = registry.bundle(factory)
        assert registry.bundle(factory) is first and built == [registry]
        registry.reset()
        again = registry.bundle(factory)
        assert again is not first and again is registry.counter("bundled")


class TestNullRegistry:
    def test_disabled_registry_hands_out_shared_nulls(self):
        a = NULL_REGISTRY.counter("a")
        b = NULL_REGISTRY.counter("b")
        assert a is b  # one shared null instrument, regardless of name
        a.inc()
        a.inc(100)
        NULL_REGISTRY.gauge("g").set(1.0)
        NULL_REGISTRY.histogram("h").observe(2.0)
        assert NULL_REGISTRY.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestSnapshots:
    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(4.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 0.5}
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["histograms"]["h"]["mean"] == 4.0

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {}
        # A post-reset counter starts over (new instrument).
        assert registry.counter("c").value == 0

    def test_merge_snapshots(self):
        first = MetricsRegistry()
        first.counter("c").inc(2)
        first.histogram("h").observe(1.0)
        second = MetricsRegistry()
        second.counter("c").inc(3)
        second.gauge("g").set(7.0)
        second.histogram("h").observe(5.0)
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["counters"] == {"c": 5}
        assert merged["gauges"] == {"g": 7.0}
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["min"] == 1.0
        assert merged["histograms"]["h"]["max"] == 5.0

    def test_merge_empty(self):
        assert merge_snapshots([]) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_merge_sums_gauges(self):
        """Delta-style gauges (in-flight, breakers open) sum across shards."""
        shards = []
        for part in (2.0, 3.0, -1.0):
            registry = MetricsRegistry()
            registry.gauge("query.in_flight").add(part)
            shards.append(registry.snapshot())
        assert merge_snapshots(shards)["gauges"] == {"query.in_flight": 4.0}

    def test_merge_survives_json_round_trip(self):
        """Forked workers ship snapshots over a pipe; bin keys stringify."""
        registry = MetricsRegistry()
        registry.histogram("h").observe(0.25)
        registry.histogram("h").observe(40.0)
        wire = json.loads(json.dumps(registry.snapshot()))
        merged = merge_snapshots([wire])
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["total"] == 40.25
        assert all(
            isinstance(key, int)
            for key in merged["histograms"]["h"]["bins"]
        )


class TestLabels:
    def test_labeled_instruments_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("query.dropped", reason="empty_cell").inc(3)
        registry.counter("query.dropped", reason="timeout_exhausted").inc()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {
            "query.dropped{reason=empty_cell}": 3,
            "query.dropped{reason=timeout_exhausted}": 1,
        }

    def test_label_order_is_canonical(self):
        assert labeled_name("m", {"b": "2", "a": "1"}) == "m{a=1,b=2}"
        assert labeled_name("m", {}) == "m"

    def test_split_labels_inverts(self):
        name, labels = split_labels("query.forwarded{level=L3}")
        assert name == "query.forwarded"
        assert labels == {"level": "L3"}
        assert split_labels("plain") == ("plain", {})


class TestHistogramBins:
    def test_quantile_brackets_observations(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        values = [float(v) for v in range(1, 101)]
        for value in values:
            histogram.observe(value)
        # Log-spaced bins: the quantile lands within one bin width
        # (10^(1/8) ≈ 1.33x) of the exact rank statistic, and is always
        # clamped into [min, max].
        for q, exact in ((0.5, 50.0), (0.9, 90.0), (0.99, 99.0)):
            estimate = histogram.quantile(q)
            assert exact / 1.34 <= estimate <= exact * 1.34
            assert histogram.minimum <= estimate <= histogram.maximum
        assert histogram.quantile(0.0) == histogram.minimum
        assert histogram.quantile(1.0) == histogram.maximum

    def test_bin_index_monotone_and_bounded(self):
        values = [1e-40, 1e-3, 0.5, 1.0, 7.0, 1e3, 1e40]
        indices = [bin_index(value) for value in values]
        assert indices == sorted(indices)
        for value, index in zip(values, indices):
            assert value <= bin_upper(index) or index == 360

    def test_memory_stays_constant_under_a_million_observations(self):
        """Satellite gate: the sparse bin map is bounded, not per-sample."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        rng = random.Random(2009)
        for _ in range(1_000_000):
            # Spread over ~24 decades, plus zeros for the underflow bin.
            histogram.observe(rng.expovariate(1.0) * 10 ** rng.randint(-12, 12))
        histogram.observe(0.0)
        # 8 bins/decade over the clamped range + the zero bin: the bin map
        # can never exceed 722 entries no matter how many samples land.
        assert len(histogram.bins) <= 722
        assert histogram.count == 1_000_001
        assert histogram.quantile(0.5) > 0.0


class TestMergeProperties:
    """merge_snapshots must be associative and order-independent:
    sharded collection picks an arbitrary merge order, and the result is
    contractually bit-identical to the single-process registry."""

    @staticmethod
    def _random_registry(rng, float_gauges=True):
        registry = MetricsRegistry()
        for _ in range(rng.randint(0, 8)):
            registry.counter(rng.choice("abc")).inc(rng.randint(1, 9))
        for _ in range(rng.randint(0, 4)):
            delta = rng.uniform(-2, 2) if float_gauges else float(rng.randint(-3, 3))
            registry.gauge(rng.choice("gh")).add(delta)
        for _ in range(rng.randint(0, 16)):
            registry.histogram(rng.choice("xy")).observe(
                rng.expovariate(0.1) + rng.random()
            )
        return registry

    @given(seed=st.integers(0, 2**32 - 1), order=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_merge_is_order_independent(self, seed, order):
        rng = random.Random(seed)
        shards = [self._random_registry(rng).snapshot() for _ in range(4)]
        baseline = merge_snapshots(shards)
        shuffled = list(shards)
        order.shuffle(shuffled)
        assert merge_snapshots(shuffled) == baseline

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_merge_is_associative(self, seed):
        # Gauges carry integer delta counts in practice (in-flight
        # queries, open breakers); integer sums are exact, so grouping
        # cannot change them. Counter/histogram merges are exact for any
        # float input.
        rng = random.Random(seed)
        shards = [
            self._random_registry(rng, float_gauges=False).snapshot()
            for _ in range(3)
        ]
        pairwise = merge_snapshots(
            [merge_snapshots(shards[:2]), merge_snapshots(shards[2:])]
        )
        assert pairwise == merge_snapshots(shards)

    def test_sharded_observations_merge_bit_identically(self):
        """Observing a float stream split across registries equals
        observing it all in one — exact, not approximately."""
        rng = random.Random(7)
        values = [rng.expovariate(1.0) * 10 ** rng.randint(-6, 6) for _ in range(500)]
        single = MetricsRegistry()
        shards = [MetricsRegistry() for _ in range(3)]
        for index, value in enumerate(values):
            single.histogram("h").observe(value)
            shards[index % 3].histogram("h").observe(value)
        merged = merge_snapshots([shard.snapshot() for shard in shards])
        assert merged == single.snapshot()
