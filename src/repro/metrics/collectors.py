"""Protocol metric collection: the one observer that counts every query.

Implements the paper's measures (Section 6):

* **routing overhead** — "the average number of hops traveled by a query
  through nodes that did not match the query themselves";
* **delivery** — "the fraction of matching nodes that actually receive the
  query";
* **per-node load** — "messages (queries and replies) dispatched by each
  node" (Fig. 9);
* correctness counters: duplicate receptions (must be zero on a converged
  overlay) and drops due to broken links.

They land in per-query :class:`QueryRecord` objects and per-node load.
With a registry wired, the same hooks also write the labelled ``query.*``
series that timelines sample and sharded runs merge (:class:`QuerySeries`).

A record stays in ``records`` until a caller takes it with
:meth:`MetricsCollector.consume_opened`. A taken record then waits in a
window of the last :data:`RELEASED_WINDOW` taken records, where late
events of its query still land, and leaves the collector after that with
its counters folded into running totals. A measurement loop therefore
holds a bounded number of records however many queries it runs, and the
aggregates count every query it ever saw.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from repro.core.descriptors import Address, NodeDescriptor
from repro.core.messages import QueryId
from repro.core.observer import ProtocolObserver

if TYPE_CHECKING:
    from repro.obs.registry import CounterMetric, MetricsRegistry


@dataclass
class QueryRecord:
    """Everything observed about a single query."""

    query_id: QueryId
    received_by: Set[Address] = field(default_factory=set)
    matched_receivers: Set[Address] = field(default_factory=set)
    queries_sent: int = 0
    replies_sent: int = 0
    duplicates: int = 0
    drops: int = 0
    timeouts: int = 0
    #: Timeouts later contradicted by a reply (the neighbor was alive).
    spurious_timeouts: int = 0
    #: Speculative (hedged) re-forwards launched for this query.
    hedges: int = 0
    #: Branches parked on broken links awaiting gossip repair.
    deferrals: int = 0
    #: Coverage estimate reported at completion when the query degraded
    #: (None = completed fully; below 1.0 = explicit partial result).
    coverage: Optional[float] = None
    result: Optional[List[NodeDescriptor]] = None

    @property
    def origin(self) -> Address:
        """The originating node (encoded in the query id)."""
        return self.query_id[0]

    @property
    def completed(self) -> bool:
        """True once the origin assembled its final candidate set."""
        return self.result is not None

    def routing_overhead(self) -> int:
        """Hops through nodes that did not match (excluding the origin)."""
        non_matching = self.received_by - self.matched_receivers
        non_matching.discard(self.origin)
        return len(non_matching)

    def delivery(self, expected: Iterable[Address]) -> float:
        """Fraction of ground-truth matching nodes that saw the query."""
        expected_set = set(expected)
        if not expected_set:
            return 1.0
        return len(expected_set & self.received_by) / len(expected_set)


#: Taken records kept where a late event of their query can reach them:
#: a retry copy received, or a timeout fired, after the caller took the
#: record. A late event for an older query would open a fresh record.
RELEASED_WINDOW = 16


@dataclass
class _Folded:
    """Running totals of the records that left the collector."""

    count: int = 0
    overhead: int = 0
    duplicates: int = 0
    spurious_timeouts: int = 0
    deferrals: int = 0

    def add(self, record: QueryRecord) -> None:
        self.count += 1
        self.overhead += record.routing_overhead()
        self.duplicates += record.duplicates
        self.spurious_timeouts += record.spurious_timeouts
        self.deferrals += record.deferrals


class QuerySeries:
    """The labelled ``query.*`` registry series a collector writes.

    Instruments are resolved once, and cached per label value, so a hook
    never formats a string.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.received = registry.counter("query.received")
        self.matched = registry.counter("query.matched")
        self.replies = registry.counter("query.replies")
        self.completed = registry.counter("query.completed")
        self.duplicates = registry.counter("query.duplicates")
        self.timeouts = registry.counter("query.timeouts")
        self.hedges = registry.counter("query.hedges")
        self.spurious = registry.counter("query.spurious_timeouts")
        self.degraded = registry.counter("query.degraded")
        self.deferred = registry.counter("query.deferred")
        #: Queries issued here and not yet completed. Delta-maintained,
        #: so per-shard gauges sum to the fleet value.
        self.in_flight = registry.gauge("query.in_flight")
        #: ``query.forwarded{level}`` by level (-1 = C0) and
        #: ``query.dropped{reason}`` by reason, created on first use.
        self.forwarded: Dict[int, CounterMetric] = {}
        self.dropped: Dict[str, CounterMetric] = {}


class MetricsCollector(ProtocolObserver):
    """Observer aggregating per-query records and per-node message load.

    With a *registry* it also writes the labelled series of
    :class:`QuerySeries` (``series``); without one ``series`` is None and
    each hook does only the record and load bookkeeping.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: Records not yet taken by a caller, by query id.
        self.records: Dict[QueryId, QueryRecord] = {}
        self.load: Counter = Counter()
        self._opened: Optional[QueryRecord] = None
        self._opened_count = 0
        #: The last RELEASED_WINDOW taken records, oldest first.
        self._released: "OrderedDict[QueryId, QueryRecord]" = OrderedDict()
        self._folded = _Folded()
        self.series = QuerySeries(registry) if registry is not None else None

    def _record(self, query_id: QueryId) -> QueryRecord:
        record = self.records.get(query_id)
        if record is None:
            record = self._released.get(query_id)
            if record is None:
                record = QueryRecord(query_id=query_id)
                self.records[query_id] = record
                self._opened = record
                self._opened_count += 1
        return record

    def consume_opened(self) -> Optional[QueryRecord]:
        """Take the record opened since the last call, if exactly one was.

        Lets a measurement loop retrieve "the record of the query I just
        issued" in O(1) instead of diffing ``records`` snapshots around
        every query. Returns None when zero or several records were
        opened (ambiguous; those stay in ``records``), then resets the
        tracking either way. A returned record leaves ``records`` (see
        :meth:`release`).
        """
        record = self._opened if self._opened_count == 1 else None
        self._opened = None
        self._opened_count = 0
        if record is not None:
            self.release(record.query_id)
        return record

    def release(self, query_id: QueryId) -> Optional[QueryRecord]:
        """Take *query_id*'s record out of ``records`` and return it.

        The record moves to the window of recently taken records, where
        late events of its query keep updating it; the oldest record of
        a full window leaves, folded into the aggregates' totals.
        Returns None if ``records`` holds no such record.
        """
        record = self.records.pop(query_id, None)
        if record is not None:
            released = self._released
            released[query_id] = record
            if len(released) > RELEASED_WINDOW:
                self._folded.add(released.popitem(last=False)[1])
        return record

    def _kept(self) -> Iterator[QueryRecord]:
        """Every record still held: untaken ones, then the window."""
        return chain(self.records.values(), self._released.values())

    # -- ProtocolObserver -------------------------------------------------------

    def query_forwarded(
        self,
        sender: Address,
        receiver: Address,
        query_id: QueryId,
        level: int,
        dim: Optional[int],
        dimensions: int,
    ) -> None:
        self._record(query_id).queries_sent += 1
        self.load[sender] += 1
        series = self.series
        if series is not None:
            counter = series.forwarded.get(level)
            if counter is None:
                label = "C0" if level < 0 else f"L{level}"
                counter = series.forwarded[level] = series.registry.counter(
                    "query.forwarded", level=label
                )
            counter.inc()

    def query_received(
        self, node: Address, query_id: QueryId, matched: bool
    ) -> None:
        record = self._record(query_id)
        record.received_by.add(node)
        if matched:
            record.matched_receivers.add(node)
        series = self.series
        if series is not None:
            series.received.inc()
            if matched:
                series.matched.inc()
            if node == query_id[0]:
                series.in_flight.add(1.0)

    def reply_sent(
        self, sender: Address, receiver: Address, query_id: QueryId
    ) -> None:
        self._record(query_id).replies_sent += 1
        self.load[sender] += 1
        if self.series is not None:
            self.series.replies.inc()

    def query_completed(
        self,
        origin: Address,
        query_id: QueryId,
        matching: Sequence[NodeDescriptor],
        coverage: float,
    ) -> None:
        record = self._record(query_id)
        record.result = list(matching)
        if coverage < 1.0:
            record.coverage = coverage
        series = self.series
        if series is not None:
            series.completed.inc()
            if coverage < 1.0:
                series.degraded.inc()
            # A stray completion never drives the gauge negative.
            if series.in_flight.value > 0:
                series.in_flight.add(-1.0)

    def duplicate_query(self, node: Address, query_id: QueryId) -> None:
        self._record(query_id).duplicates += 1
        if self.series is not None:
            self.series.duplicates.inc()

    def neighbor_timeout(
        self, node: Address, neighbor: Address, query_id: QueryId
    ) -> None:
        self._record(query_id).timeouts += 1
        if self.series is not None:
            self.series.timeouts.inc()

    def query_dropped(
        self, node: Address, query_id: QueryId, reason: str
    ) -> None:
        self._record(query_id).drops += 1
        series = self.series
        if series is not None:
            counter = series.dropped.get(reason)
            if counter is None:
                counter = series.dropped[reason] = series.registry.counter(
                    "query.dropped", reason=reason
                )
            counter.inc()

    def query_hedged(
        self,
        node: Address,
        primary: Address,
        alternate: Address,
        query_id: QueryId,
    ) -> None:
        self._record(query_id).hedges += 1
        if self.series is not None:
            self.series.hedges.inc()

    def spurious_timeout(
        self, node: Address, neighbor: Address, query_id: QueryId
    ) -> None:
        self._record(query_id).spurious_timeouts += 1
        if self.series is not None:
            self.series.spurious.inc()

    def branch_deferred(self, node: Address, query_id: QueryId) -> None:
        self._record(query_id).deferrals += 1
        if self.series is not None:
            self.series.deferred.inc()

    # -- aggregates ----------------------------------------------------------------

    def mean_routing_overhead(self) -> float:
        """Average routing overhead across all recorded queries."""
        folded = self._folded
        count = len(self.records) + len(self._released) + folded.count
        if not count:
            return 0.0
        total = folded.overhead + sum(
            record.routing_overhead() for record in self._kept()
        )
        return total / count

    def delivery_of(
        self, query_id: QueryId, expected: Iterable[Address]
    ) -> float:
        """Delivery of one held query (0.0 if it was never observed).

        A query whose record was taken and has left the window reads 0.0.
        """
        record = self.records.get(query_id) or self._released.get(query_id)
        return record.delivery(expected) if record is not None else 0.0

    def mean_delivery(
        self, expected_by_query: Mapping[QueryId, Iterable[Address]]
    ) -> float:
        """Average delivery across queries, given their ground truths.

        *expected_by_query* maps each query id to the addresses that
        matched it at issue time; queries with no record count as 0.0
        (the query never spread at all). Returns 0.0 for an empty map.
        """
        if not expected_by_query:
            return 0.0
        total = sum(
            self.delivery_of(query_id, expected)
            for query_id, expected in expected_by_query.items()
        )
        return total / len(expected_by_query)

    def total_duplicates(self) -> int:
        """Total duplicate receptions (zero on a converged overlay)."""
        return self._folded.duplicates + sum(
            record.duplicates for record in self._kept()
        )

    def total_spurious_timeouts(self) -> int:
        """Timeouts contradicted by a late reply, across all queries."""
        return self._folded.spurious_timeouts + sum(
            record.spurious_timeouts for record in self._kept()
        )

    def total_deferrals(self) -> int:
        """Branches parked on broken links, across all queries."""
        return self._folded.deferrals + sum(
            record.deferrals for record in self._kept()
        )

    def load_distribution(self) -> List[int]:
        """Messages dispatched per node, ascending."""
        return sorted(self.load.values())

    def reset_load(self) -> None:
        """Clear per-node load counters (keep query records)."""
        self.load.clear()

    def reset(self) -> None:
        """Clear the records and the load (registry series keep counting)."""
        self.records.clear()
        self.load.clear()
        self._opened = None
        self._opened_count = 0
        self._released.clear()
        self._folded = _Folded()
