"""A metrics registry: labeled counters, gauges and histograms by name.

Instrumented code asks the registry for an instrument once (at
construction) and then drives it on the hot path::

    self._shuffles = registry.counter("cyclon.shuffles")
    self._drops = registry.counter("query.dropped", reason="empty_cell")
    ...
    self._shuffles.inc()

A component built once per node (a fleet of thousands) resolves its
instruments once per registry instead, as one shared bundle object:
``registry.bundle(HealthMetrics)`` builds the bundle on first use and
hands every later caller the same one.

Instruments may carry **labels** (keyword arguments): each distinct label
set is its own series, stored under the canonical flat key
``name{k=v,...}`` with label keys sorted — so snapshots stay plain flat
dicts and merging stays key-wise. Callers with a dynamic label value
(e.g. a per-level counter) should cache the instrument per value rather
than re-resolving it per event.

The **no-op fast path**: a disabled registry (:data:`NULL_REGISTRY`, the
default everywhere) hands out shared null instruments whose methods do
nothing, so instrumented code stays branch-free and costs one empty method
call per event when observability is off. Enabled registries are plain
dictionaries of plain objects — no locks — because the simulator is
single-threaded per process; parallel sweep workers and shard workers
each get their own registry and snapshots are merged offline with
:func:`merge_snapshots`.

**Deterministic merge.** ``merge_snapshots`` is associative and
order-independent for every metric kind: counters and histogram bin
counts are integers (exact), gauges merge by *sum* (shared series use
delta-style :meth:`GaugeMetric.add`, so per-shard values are partial
sums of the fleet total), histogram min/max take extremes, and histogram
totals accumulate in **exact fixed point** (every finite float is an
integer multiple of ``2**-1074``, so sums are big-integer arithmetic and
the reported float total is the correctly rounded true sum regardless of
observation or merge order). This is what lets a sharded run report
bit-identical merged metrics to the single-process engine.
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    TypeVar,
)

#: Fixed-point scale exponent: every finite float is an integer multiple
#: of ``2**-1074`` (the subnormal quantum), so sums at this scale are
#: exact integer arithmetic.
_FP_BITS = 1074
_FP_ONE = 1 << _FP_BITS

#: Log-spaced histogram bins: 8 per decade, covering 1e-45 .. 1e45
#: (indices -360..360); values <= 0 land in a dedicated underflow bin.
BINS_PER_DECADE = 8
_BIN_LOW = -360
_BIN_HIGH = 360
#: Bin index reserved for observations <= 0.
ZERO_BIN = _BIN_LOW - 1


def _fixed_point(value: float) -> int:
    """*value* as an exact integer multiple of ``2**-1074``."""
    num, den = float(value).as_integer_ratio()
    # den is always a power of two: den == 2**(den.bit_length() - 1).
    return num << (_FP_BITS - den.bit_length() + 1)


def bin_index(value: float) -> int:
    """The log-spaced bin index of one observation."""
    if value <= 0.0:
        return ZERO_BIN
    index = math.floor(math.log10(value) * BINS_PER_DECADE)
    if index < _BIN_LOW:
        return _BIN_LOW
    if index > _BIN_HIGH:
        return _BIN_HIGH
    return index


def bin_upper(index: int) -> float:
    """Upper bound of bin *index* (0.0 for the underflow bin)."""
    if index <= ZERO_BIN:
        return 0.0
    return 10.0 ** ((index + 1) / BINS_PER_DECADE)


def labeled_name(name: str, labels: Mapping[str, Any]) -> str:
    """Canonical flat series key: ``name{k=v,...}`` with keys sorted."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def split_labels(key: str):
    """Invert :func:`labeled_name`: ``(base_name, {label: value})``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    base, _, inner = key.partition("{")
    labels: Dict[str, str] = {}
    for part in inner[:-1].split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        labels[label] = value
    return base, labels


class CounterMetric:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1)."""
        self.value += amount


class GaugeMetric:
    """A point-in-time value (last write wins locally; merges by sum)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def add(self, delta: float) -> None:
        """Shift the value by *delta* (may be negative).

        Lets many writers share one up/down series — e.g. every node's
        health monitor bumping ``health.breakers_open`` — where ``set``
        semantics would make the last writer clobber the fleet total.
        Delta-style gauges are also what makes the sum-merge of
        :func:`merge_snapshots` correct across shard workers.
        """
        self.value += delta


class HistogramMetric:
    """Streaming summary of a distribution: O(1) memory per series.

    Keeps count / exact total / min / max plus fixed log-spaced bins
    (:data:`BINS_PER_DECADE` per decade, sparse dict) — never the raw
    observations, so a million observations cost the same memory as ten.
    ``quantile(q)`` estimates order statistics from the bins, clamped to
    the observed ``[min, max]``.
    """

    __slots__ = ("name", "count", "_total_fp", "minimum", "maximum", "bins")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        #: Exact running sum, in units of ``2**-1074``.
        self._total_fp = 0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        #: Sparse bin counts: log bin index -> observations in the bin.
        self.bins: Dict[int, int] = {}

    @property
    def total(self) -> float:
        """Sum of the observations (correctly rounded, order-independent)."""
        return self._total_fp / _FP_ONE

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self._total_fp += _fixed_point(value)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        index = bin_index(value)
        self.bins[index] = self.bins.get(index, 0) + 1

    def mean(self) -> float:
        """Average of the observations so far (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (0.0 when empty).

        Walks the cumulative bin counts and returns the matched bin's
        upper bound, clamped to the observed ``[min, max]`` so estimates
        never leave the data range. Resolution is one log bin (~33% per
        step at 8 bins/decade) — plenty for dashboards and alerts.
        """
        if not self.count:
            return 0.0
        q = min(max(q, 0.0), 1.0)
        if q == 0.0:
            return self.minimum if self.minimum is not None else 0.0
        target = q * self.count
        cumulative = 0
        for index in sorted(self.bins):
            cumulative += self.bins[index]
            if cumulative >= target:
                return self._clamp(bin_upper(index))
        return self.maximum if self.maximum is not None else 0.0

    def _clamp(self, value: float) -> float:
        if self.minimum is not None and value < self.minimum:
            return self.minimum
        if self.maximum is not None and value > self.maximum:
            return self.maximum
        return value


class _NullCounter:
    """Shared do-nothing counter handed out by disabled registries."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        """Discard the increment."""


class _NullGauge:
    """Shared do-nothing gauge."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Discard the value."""

    def add(self, delta: float) -> None:
        """Discard the shift."""


class _NullHistogram:
    """Shared do-nothing histogram."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def quantile(self, q: float) -> float:
        """Always 0.0 (nothing was recorded)."""
        return 0.0


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


_Bundle = TypeVar("_Bundle")


class MetricsRegistry:
    """Name-keyed instrument store; disabled instances are no-ops.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name (and label set) returns the same instrument, so
    independent components can share series by naming convention alone.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, CounterMetric] = {}
        self._gauges: Dict[str, GaugeMetric] = {}
        self._histograms: Dict[str, HistogramMetric] = {}
        self._bundles: Dict[Callable[..., Any], Any] = {}

    def bundle(
        self, factory: Callable[["MetricsRegistry"], _Bundle]
    ) -> _Bundle:
        """``factory(self)``, built once and kept until :meth:`reset`."""
        bundle = self._bundles.get(factory)
        if bundle is None:
            bundle = self._bundles[factory] = factory(self)
        return bundle

    def counter(self, name: str, **labels: Any):
        """The counter for *name* (+labels), created on first use."""
        if not self.enabled:
            return _NULL_COUNTER
        key = labeled_name(name, labels) if labels else name
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = CounterMetric(key)
        return metric

    def gauge(self, name: str, **labels: Any):
        """The gauge for *name* (+labels), created on first use."""
        if not self.enabled:
            return _NULL_GAUGE
        key = labeled_name(name, labels) if labels else name
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = GaugeMetric(key)
        return metric

    def histogram(self, name: str, **labels: Any):
        """The histogram for *name* (+labels), created on first use."""
        if not self.enabled:
            return _NULL_HISTOGRAM
        key = labeled_name(name, labels) if labels else name
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = HistogramMetric(key)
        return metric

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict view of every instrument (JSON-serialisable).

        Histogram entries carry the human-facing summary (count / total /
        min / max / mean), the sparse ``bins`` map, and ``total_fp`` —
        the exact fixed-point sum that keeps merging associative and
        bit-exact (it is a plain int, JSON-safe).
        """
        return {
            "counters": {
                name: metric.value for name, metric in self._counters.items()
            },
            "gauges": {
                name: metric.value for name, metric in self._gauges.items()
            },
            "histograms": {
                name: {
                    "count": metric.count,
                    "total": metric.total,
                    "total_fp": metric._total_fp,
                    "min": metric.minimum,
                    "max": metric.maximum,
                    "mean": metric.mean(),
                    "bins": dict(metric.bins),
                }
                for name, metric in self._histograms.items()
            },
        }

    def reset(self) -> None:
        """Drop every registered instrument."""
        self._bundles.clear()
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-worker :meth:`MetricsRegistry.snapshot` dicts.

    Associative and order-independent for every kind: counters sum,
    gauges sum (delta semantics — see :meth:`GaugeMetric.add`) via
    :func:`math.fsum` so the correctly-rounded result is the same in any
    merge order, histogram counts/bins sum as integers, min/max take the
    extremes, and totals sum in exact fixed point (``total_fp``) so the
    reported float total is identical no matter how the shards are
    grouped or ordered. Snapshots that predate ``total_fp``/``bins``
    (e.g. loaded from old JSON) degrade gracefully: their float totals
    are converted exactly.
    """
    counters: Dict[str, int] = {}
    gauge_parts: Dict[str, List[float]] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            gauge_parts.setdefault(name, []).append(value)
        for name, stats in snapshot.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                merged = histograms[name] = {
                    "count": 0,
                    "total_fp": 0,
                    "min": None,
                    "max": None,
                    "bins": {},
                }
            merged["count"] += stats["count"]
            total_fp = stats.get("total_fp")
            if total_fp is None:
                total_fp = _fixed_point(stats.get("total", 0.0))
            merged["total_fp"] += total_fp
            for bound, better in (("min", min), ("max", max)):
                value = stats.get(bound)
                if value is None:
                    continue
                current = merged[bound]
                merged[bound] = (
                    value if current is None else better(current, value)
                )
            bins = merged["bins"]
            for index, count in stats.get("bins", {}).items():
                index = int(index)  # JSON round-trips keys as strings
                bins[index] = bins.get(index, 0) + count
    for stats in histograms.values():
        stats["total"] = stats["total_fp"] / _FP_ONE
        stats["mean"] = stats["total"] / stats["count"] if stats["count"] else 0.0
    gauges = {name: math.fsum(parts) for name, parts in gauge_parts.items()}
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


#: The default, disabled registry: instrumentation through it costs one
#: no-op method call per event.
NULL_REGISTRY = MetricsRegistry(enabled=False)
