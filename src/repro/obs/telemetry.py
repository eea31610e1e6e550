"""One run's telemetry session: labelled metrics, timelines, tracing.

:class:`Telemetry` owns the run's one protocol collector — a
:class:`~repro.metrics.collectors.MetricsCollector` wired to the
session's registry, so the same hooks that keep the per-query records
also write the labelled ``query.*`` series (per-level forwards,
per-reason drops, the delta-maintained in-flight gauge). Alongside it
sit an optional sampled :class:`~repro.obs.tracer.TraceRecorder` and a
:class:`~repro.obs.timeseries.TimeSeriesRecorder`, and the session wires
the **standard series** every run wants: live delivery, in-flight
queries, open breakers, srtt/rto percentiles, hedge rate, message rate,
drop rate.

Everything here is deterministic: series are sampled on the simulated
clock, sampling decisions are seeded hashes, and all counter/gauge
arithmetic is exact — so sharded runs merge bit-identically (see
:func:`repro.obs.registry.merge_snapshots`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.metrics.collectors import MetricsCollector
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.tracer import TraceRecorder


class Telemetry:
    """One run's telemetry session: registry + collector + timelines.

    Parameters
    ----------
    sample_interval:
        Timeline cadence (see
        :class:`~repro.obs.timeseries.TimeSeriesRecorder`).
    trace_sample_rate / trace_seed:
        When ``trace_sample_rate`` is not None a sampled
        :class:`TraceRecorder` watches the run too (1.0 = everything,
        0.01 = ~1% of queries traced end-to-end).
    """

    def __init__(
        self,
        sample_interval: float = 10.0,
        trace_sample_rate: Optional[float] = None,
        trace_seed: int = 0,
    ) -> None:
        self.registry = MetricsRegistry()
        self.collector = MetricsCollector(self.registry)
        self.recorder = TimeSeriesRecorder(sample_interval)
        self.tracer: Optional[TraceRecorder] = None
        if trace_sample_rate is not None:
            self.tracer = TraceRecorder(
                sample_rate=trace_sample_rate, sample_seed=trace_seed
            )
        self._last_query: Optional[Tuple[Any, int]] = None
        self._last_expected: Sequence[Any] = ()

    def note_query(self, query_id, expected: Sequence[Any]) -> None:
        """Tell the delivery series which query is the live one."""
        self._last_query = query_id
        self._last_expected = expected

    def install_standard_series(self, network: Optional[Any] = None) -> None:
        """Register the canonical timeline set.

        *network* is a :class:`~repro.sim.network.SimNetwork` (enables
        ``messages.rate``). The live ``delivery`` series follows the query
        named by :meth:`note_query`; everything else reads the registry
        and the collector directly.
        """
        recorder = self.recorder
        series = self.collector.series
        recorder.add_source("delivery", self._live_delivery)
        recorder.add_source(
            "queries.in_flight", lambda: float(series.in_flight.value)
        )
        breaker_gauge = self.registry.gauge("health.breakers_open")
        recorder.add_source("breakers.open", lambda: breaker_gauge.value)
        rtt = self.registry.histogram("health.rtt")
        recorder.add_source("rtt.p50", lambda: rtt.quantile(0.50))
        recorder.add_source("rtt.p99", lambda: rtt.quantile(0.99))
        rto = self.registry.histogram("health.rto")
        recorder.add_source("rto.p99", lambda: rto.quantile(0.99))
        recorder.add_source(
            "hedge.rate", lambda: float(series.hedges.value), counter=True
        )
        dropped = series.dropped.values()
        recorder.add_source(
            "drops.rate",
            lambda: float(sum(counter.value for counter in dropped)),
            counter=True,
        )
        if network is not None:
            recorder.add_source(
                "messages.rate",
                lambda: float(network.messages_sent),
                counter=True,
            )

    def _live_delivery(self) -> float:
        if self._last_query is None:
            return 0.0
        if not self._last_expected:
            return 1.0
        return self.collector.delivery_of(
            self._last_query, self._last_expected
        )

    def attach(self, simulator: Any) -> None:
        """Start periodic sampling; bind the tracer clock if tracing."""
        if self.tracer is not None:
            self.tracer.bind_clock(lambda: simulator.now)
        self.recorder.attach(simulator)

    def detach(self) -> None:
        """Stop timeline sampling (cancels the armed simulator tick)."""
        self.recorder.detach()

    def annotate(self, time: float, label: str) -> None:
        """Forward a fault-phase (or other) annotation to the timeline."""
        self.recorder.annotate(time, label)

    def snapshot(self) -> Dict[str, Any]:
        """The registry snapshot (mergeable across shards/workers)."""
        return self.registry.snapshot()

    def timeline(self):
        """The sampled timeline rows (see ``TimeSeriesRecorder.rows``)."""
        return self.recorder.rows()
