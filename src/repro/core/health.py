"""Adaptive failure detection: per-neighbor RTT estimation and breakers.

The paper's query routing declares a neighbor failed after a *static*
timeout ``T(q)`` (Section 4.3). Static timers are brittle: under latency
spikes and stragglers they fire while the neighbor's reply is still in
flight (a *spurious* timeout), dropping live branches and re-forwarding
into retry storms. This module provides the standard production trio:

* :class:`RttEstimator` — Jacobson/Karn smoothed RTT plus variance per
  neighbor, with three robustness twists: it can be *seeded* from the
  simulation's latency model (a cold estimator falls back to the static
  timer), a sample far above the current estimate *re-initialises* the
  filter ("fast up, slow down" — one slow reply is enough to adapt to a
  latency spike, while recovery decays gently), and timeouts apply Karn
  exponential backoff that only a genuine sample clears. Samples are
  Karn-ambiguity-safe by construction: the protocol never retransmits to
  the same neighbor (retries go to *alternates*), so every reply matched
  to an outstanding forward measures exactly one exchange.
* :class:`CircuitBreaker` — per-neighbor three-state breaker: ``closed``
  until :data:`BREAKER_THRESHOLD` consecutive failures, then ``open``
  (the neighbor is not selected for forwards) until
  :attr:`~HealthConfig.breaker_reset` seconds pass without a failure,
  then ``half-open`` (eligible for one gossip liveness probe; a success
  closes it, a failure re-arms the open window).
* :class:`HealthMonitor` — the per-node facade shared by the query
  protocol's failure handling (:mod:`repro.core.reliability`, which sizes
  timers and hedges from it) and gossip maintenance
  (:mod:`repro.gossip.maintenance`), owning the per-neighbor state and
  the observability series (rto histograms, breaker gauge, hedge and
  spurious-timeout counters).

Both consumers feed the same estimators with link round trips: gossip
answers, and the replies of the C0 fan-out (a slot forward's reply times
a whole subtree, so the failure timer scales the link estimate by the
subtree's span instead). :class:`HealthConfig` holds the four
deployment-dependent knobs; the filter gains, slack and thresholds are
module constants.

Per-neighbor samples are sparse — a node exchanges with only a couple of
peers per gossip cycle, so most neighbors' private estimators have never
sampled the current network weather when a query needs them. Every sample
therefore also feeds a node-wide *ambient* estimator, and the timeout and
hedge estimates take the conservative maximum of the two: a global
latency spike is caught by the first slow answer from anyone, while a
single slow neighbor still stands out through its own filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Set

from repro.core.descriptors import Address
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.util.perf import EMPTY

#: Breaker state names (also used in telemetry and tests).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: EWMA gain for the smoothed RTT (Jacobson's 1/8).
RTO_ALPHA = 0.125
#: EWMA gain for the mean deviation (Jacobson's 1/4).
RTO_BETA = 0.25
#: Deviations of slack in the timeout: ``rto = srtt + k * rttvar``.
RTO_DEVIATIONS = 4.0
#: Karn backoff cap: after repeated timeouts the rto is multiplied by at
#: most this factor (cleared by the next genuine sample).
BACKOFF_CAP = 8.0
#: Deviations used for the hedge delay (a p99-style quantile bound: wider
#: than the timeout slack, so hedges fire later than the typical reply but
#: well before the failure timer).
HEDGE_DEVIATIONS = 6.0
#: Minimum samples before a neighbor's estimate may arm a hedge.
HEDGE_MIN_SAMPLES = 3
#: Consecutive failures that trip a neighbor's breaker open.
BREAKER_THRESHOLD = 3


@dataclass(frozen=True)
class HealthConfig:
    """The deployment-dependent knobs of RTT estimation and breakers."""

    #: Floor for the adaptive retransmission timeout (seconds). Keeps a
    #: freshly trained estimator over a fast link from arming hair-trigger
    #: timers that fire on the first scheduling hiccup.
    rto_min: float = 0.25
    #: Ceiling for the adaptive timeout: bounds how long a spike-inflated
    #: estimate can stall failure detection (invariant I1 depends on every
    #: failure timer eventually firing).
    rto_max: float = 15.0
    #: Seconds after the last failure before an open breaker turns
    #: half-open (eligible for a gossip probe).
    breaker_reset: float = 30.0
    #: Optional a-priori round-trip estimate (e.g. from the simulation's
    #: latency model) used to seed cold estimators. Not counted as a
    #: sample: hedging stays disabled until real traffic confirms it.
    initial_rtt: Optional[float] = None


class RttEstimator:
    """Jacobson/Karn RTT filter for one neighbor."""

    __slots__ = ("config", "srtt", "rttvar", "samples", "backoff")

    def __init__(
        self, config: HealthConfig, initial_rtt: Optional[float] = None
    ) -> None:
        self.config = config
        seed = initial_rtt if initial_rtt is not None else config.initial_rtt
        #: Smoothed RTT (None until seeded or sampled).
        self.srtt: Optional[float] = seed
        #: Smoothed mean deviation.
        self.rttvar: float = seed / 2.0 if seed is not None else 0.0
        #: Number of genuine samples observed (seeding does not count).
        self.samples: int = 0
        #: Karn multiplier: doubled per timeout, reset by a sample.
        self.backoff: float = 1.0

    def observe(self, rtt: float) -> None:
        """Fold one measured round trip into the estimate.

        The first genuine sample (and any sample exceeding the current
        timeout estimate — "fast up") re-initialises the filter with
        Jacobson's cold-start rule; everything else is the standard EWMA
        update. A sample always clears the Karn backoff: the neighbor
        demonstrably answered.
        """
        rtt = max(0.0, rtt)
        cold = self.samples == 0
        above = (
            self.srtt is not None
            and rtt
            > self.srtt + RTO_DEVIATIONS * self.rttvar
        )
        if cold or above or self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar += RTO_BETA * (abs(self.srtt - rtt) - self.rttvar)
            self.srtt += RTO_ALPHA * (rtt - self.srtt)
        self.samples += 1
        self.backoff = 1.0

    def on_timeout(self) -> None:
        """Karn backoff: double the timeout multiplier (capped)."""
        self.backoff = min(self.backoff * 2.0, BACKOFF_CAP)

    def rto(self) -> Optional[float]:
        """The retransmission timeout, or None while cold (unseeded)."""
        if self.srtt is None:
            return None
        raw = self.srtt + RTO_DEVIATIONS * self.rttvar
        clamped = min(max(raw, self.config.rto_min), self.config.rto_max)
        return min(clamped * self.backoff, self.config.rto_max)

    def hedge_delay(self) -> Optional[float]:
        """A p99-style reply-time bound, or None below the sample floor."""
        if self.samples < HEDGE_MIN_SAMPLES or self.srtt is None:
            return None
        return self.srtt + HEDGE_DEVIATIONS * self.rttvar


@lru_cache(maxsize=64)
def _seeded(config: HealthConfig, initial_rtt: Optional[float]) -> RttEstimator:
    """The shared, never-sampled estimator of *config* and *initial_rtt*.

    Every monitor reads its ambient estimate from this one object until
    its first sample, when it takes an estimator of its own; nothing
    ever samples or backs off the shared one.
    """
    return RttEstimator(config, initial_rtt)


class CircuitBreaker:
    """Consecutive-failure breaker for one neighbor.

    State is derived, not stored: ``closed`` below the failure threshold;
    at or above it, ``open`` until :attr:`HealthConfig.breaker_reset`
    seconds pass since the last failure, then ``half-open``. A half-open
    breaker admits probes; their outcome either closes it (success) or
    re-arms the open window (failure, which refreshes ``last_failure``).
    """

    __slots__ = ("config", "failures", "last_failure")

    def __init__(self, config: HealthConfig) -> None:
        self.config = config
        #: Consecutive failures since the last success.
        self.failures: int = 0
        #: Time of the most recent failure (None = never failed).
        self.last_failure: Optional[float] = None

    def state(self, now: float) -> str:
        """Current state name: ``closed``, ``open`` or ``half-open``."""
        if self.failures < BREAKER_THRESHOLD:
            return CLOSED
        if (
            self.last_failure is not None
            and now - self.last_failure >= self.config.breaker_reset
        ):
            return HALF_OPEN
        return OPEN

    def record_failure(self, now: float) -> bool:
        """Count one failure; True iff this transition tripped it open."""
        self.failures += 1
        self.last_failure = now
        return self.failures == BREAKER_THRESHOLD

    def record_success(self) -> bool:
        """Reset on success; True iff a tripped breaker just closed."""
        was_tripped = self.failures >= BREAKER_THRESHOLD
        self.failures = 0
        self.last_failure = None
        return was_tripped


class HealthMetrics:
    """The ``health.*`` series of one registry, shared by its monitors.

    Every monitor of a fleet writes the same fleet-wide series, so a
    monitor takes this bundle from ``registry.bundle`` instead of
    resolving eleven instruments per node.
    """

    __slots__ = (
        "rtt",
        "rto",
        "breaker_opened",
        "breaker_closed",
        "open_gauge",
        "hedges_launched",
        "hedges_won",
        "hedges_lost",
        "hedges_cancelled",
        "spurious",
        "probes",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.rtt = registry.histogram("health.rtt")
        self.rto = registry.histogram("health.rto")
        self.breaker_opened = registry.counter("health.breaker_opened")
        self.breaker_closed = registry.counter("health.breaker_closed")
        self.open_gauge = registry.gauge("health.breakers_open")
        self.hedges_launched = registry.counter("health.hedges_launched")
        self.hedges_won = registry.counter("health.hedges_won")
        self.hedges_lost = registry.counter("health.hedges_lost")
        self.hedges_cancelled = registry.counter("health.hedges_cancelled")
        self.spurious = registry.counter("health.spurious_timeouts")
        self.probes = registry.counter("health.probes_sent")


class HealthMonitor:
    """Per-node failure-detection state shared by queries and gossip.

    One monitor per node, keyed by neighbor address. The query layer
    feeds it reply round trips and timeouts; gossip maintenance feeds it
    answer round trips, answer timeouts, and drives half-open probes.
    All instruments live in the supplied registry (the shared no-op
    :data:`~repro.obs.registry.NULL_REGISTRY` by default), so a fleet of
    monitors aggregates into fleet-wide series; every monitor of one
    registry holds the same :class:`HealthMetrics` bundle.
    """

    __slots__ = (
        "config",
        "initial_rtt",
        "_estimators",
        "_ambient",
        "_breakers",
        "tripped",
        "_metrics",
    )

    def __init__(
        self,
        config: Optional[HealthConfig] = None,
        initial_rtt: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or HealthConfig()
        self.initial_rtt = (
            initial_rtt if initial_rtt is not None else self.config.initial_rtt
        )
        # Both maps stay the shared EMPTY mapping until their first entry.
        self._estimators: Dict[Address, RttEstimator] = EMPTY
        #: Node-wide estimator fed by every sample: the fallback (and
        #: conservative companion) for neighbors whose private estimator
        #: has not sampled the current network weather yet. Until the
        #: first sample it is the shared seeded estimator (``samples`` is
        #: 0 only there); :meth:`observe_rtt` replaces it.
        self._ambient = _seeded(self.config, self.initial_rtt)
        self._breakers: Dict[Address, CircuitBreaker] = EMPTY
        #: How many breakers are tripped (open or half-open). While it is
        #: zero no neighbor is open, and forwards skip the breaker scan.
        self.tripped = 0
        registry = registry if registry is not None else NULL_REGISTRY
        self._metrics = registry.bundle(HealthMetrics)

    # -- per-neighbor state ------------------------------------------------------

    def estimator(self, address: Address) -> RttEstimator:
        """The (lazily created, possibly seeded) estimator for *address*."""
        estimators = self._estimators
        estimator = estimators.get(address)
        if estimator is None:
            if estimators is EMPTY:
                estimators = self._estimators = {}
            estimator = estimators[address] = RttEstimator(
                self.config, self.initial_rtt
            )
        return estimator

    def breaker(self, address: Address) -> CircuitBreaker:
        """The (lazily created) breaker for *address*."""
        breakers = self._breakers
        breaker = breakers.get(address)
        if breaker is None:
            if breakers is EMPTY:
                breakers = self._breakers = {}
            breaker = breakers[address] = CircuitBreaker(self.config)
        return breaker

    # -- evidence intake ---------------------------------------------------------

    def observe_rtt(self, address: Address, rtt: float) -> None:
        """A reply/answer round trip for *address*: sample + success."""
        self._metrics.rtt.observe(rtt)
        self.estimator(address).observe(rtt)
        ambient = self._ambient
        if not ambient.samples:  # the shared seeded one: take a copy
            ambient = self._ambient = RttEstimator(
                self.config, self.initial_rtt
            )
        ambient.observe(rtt)
        self.record_success(address)

    def record_success(self, address: Address) -> None:
        """Evidence that *address* is alive (closes a tripped breaker)."""
        breaker = self._breakers.get(address)
        if breaker is not None and breaker.record_success():
            self.tripped -= 1
            self._metrics.breaker_closed.inc()
            self._metrics.open_gauge.add(-1.0)

    def record_failure(self, address: Address, now: float) -> None:
        """A timeout on *address*: Karn backoff plus a breaker failure."""
        estimator = self._estimators.get(address)
        if estimator is not None:
            estimator.on_timeout()
        if self.breaker(address).record_failure(now):
            self.tripped += 1
            self._metrics.breaker_opened.inc()
            self._metrics.open_gauge.add(1.0)

    # -- consumption -------------------------------------------------------------

    def rto(self, address: Address) -> Optional[float]:
        """The adaptive failure timeout for *address* (None while cold).

        The conservative maximum of the neighbor's own estimate and the
        node-wide ambient one: the private filter knows this neighbor's
        history, the ambient filter knows what the network looks like
        *right now* (per-pair samples are too sparse to catch a global
        spike through the private filter alone).
        """
        value = self._conservative(address, RttEstimator.rto)
        if value is not None:
            self._metrics.rto.observe(value)
        return value

    def hedge_delay(self, address: Address) -> Optional[float]:
        """p99-style reply bound for *address* (None below sample floor).

        Like :meth:`rto`, the maximum of the private and ambient bounds —
        an ambient bound alone (trained network, unsampled neighbor) is
        enough to speculate against, and under a global spike the ambient
        term keeps hedges from firing on the network norm.
        """
        return self._conservative(address, RttEstimator.hedge_delay)

    def _conservative(
        self, address: Address, bound: Callable[[RttEstimator], Optional[float]]
    ) -> Optional[float]:
        """The larger *bound* of the private and ambient estimators."""
        ambient = bound(self._ambient)
        estimator = self._estimators.get(address)
        if estimator is None:
            return ambient
        own = bound(estimator)
        if own is None or (ambient is not None and ambient > own):
            return ambient
        return own

    def usable(self, address: Address, now: float) -> bool:
        """False iff the neighbor's breaker is currently open."""
        breaker = self._breakers.get(address)
        return breaker is None or breaker.state(now) != OPEN

    def open_addresses(self, now: float) -> Set[Address]:
        """Addresses whose breaker is currently open (skip for forwards)."""
        return {
            address
            for address, breaker in self._breakers.items()
            if breaker.state(now) == OPEN
        }

    def probe_candidate(self, now: float) -> Optional[Address]:
        """One half-open neighbor due for a liveness probe, if any."""
        for address, breaker in self._breakers.items():
            if breaker.state(now) == HALF_OPEN:
                return address
        return None

    def breaker_state(self, address: Address, now: float) -> str:
        """State name of the breaker for *address* (``closed`` if unknown)."""
        breaker = self._breakers.get(address)
        return CLOSED if breaker is None else breaker.state(now)

    def neighbor_states(self, now: float):
        """Per-neighbor health rows for ops surfaces (``repro dash``).

        One dict per neighbor the monitor has state for — union of the
        estimator and breaker key sets — with the smoothed RTT, the
        current adaptive timeout, the sample count, and the breaker
        state. Sorted by address for stable rendering.
        """
        rows = []
        for address in sorted(set(self._estimators) | set(self._breakers)):
            estimator = self._estimators.get(address)
            rows.append(
                {
                    "address": address,
                    "srtt": estimator.srtt if estimator is not None else None,
                    "rto": estimator.rto() if estimator is not None else None,
                    "samples": estimator.samples if estimator is not None else 0,
                    "breaker": self.breaker_state(address, now),
                }
            )
        return rows

    # -- telemetry taps ----------------------------------------------------------

    def hedge_launched(self) -> None:
        """Count a speculative forward being sent."""
        self._metrics.hedges_launched.inc()

    def hedge_won(self) -> None:
        """Count a hedge whose copy answered (it saved the branch)."""
        self._metrics.hedges_won.inc()

    def hedge_lost(self) -> None:
        """Count a wasted hedge (the primary answered, or the copy died)."""
        self._metrics.hedges_lost.inc()

    def hedge_cancelled(self) -> None:
        """Count a hedge cancelled by query completion."""
        self._metrics.hedges_cancelled.inc()

    def spurious_timeout(self) -> None:
        """Count a live-path detected spurious timeout."""
        self._metrics.spurious.inc()

    def probe_sent(self) -> None:
        """Count a half-open liveness probe issued by gossip."""
        self._metrics.probes.inc()
