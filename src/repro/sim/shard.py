"""Sharded simulation engine: partition the overlay across workers.

The single-process :class:`~repro.sim.deployment.Deployment` holds every
host, event and message in one heap — simple, but it caps the population
one experiment can hold and serializes all work. This module partitions
the overlay by address (``shard = address % num_shards``) across workers,
each owning a private :class:`~repro.sim.engine.Simulator` and
:class:`~repro.sim.network.SimNetwork` for its hosts, and synchronizes
them with the classic *conservative lookahead* scheme from parallel
discrete-event simulation:

* **Lookahead.** The latency model advertises a hard one-way floor
  ``W = minimum_latency(model)``. A message sent at time ``u`` arrives no
  earlier than ``u + W``, so if every shard only executes events in the
  window ``[t, t + W)`` — where ``t`` is the global minimum next-event
  time — no message generated inside the window can demand delivery
  inside it. Cross-shard messages are therefore collected during the
  window and injected at the barrier, timestamped sender-side
  (``send_time + latency``), before the next window begins. Empty
  stretches are skipped by fast-forwarding ``t`` to the earliest pending
  event across all shards.
* **Determinism.** Everything randomized comes from shared derived
  streams: the master samples the population once, into the columnar
  :class:`~repro.core.store.DescriptorStore` that is the engine's only
  population (same ``derive_rng(seed, "population")`` stream as the
  single-process deployment, vectorized when the sampler has a batch
  hook), and every node's bootstrap draws come from its own
  ``derive_rng(seed, f"bootstrap:{address}")`` stream
  (:func:`~repro.core.store.bootstrap_rng`), so a worker seeds
  tables for exactly the nodes it owns — O(N/S) startup, nothing
  replayed. At the bridge, collected messages are sorted by ``(arrival,
  source shard, send order)`` before injection, so delivery order never
  depends on worker scheduling. With a deterministic latency model, zero
  loss and no fault layer (the converged-overlay measurement setup), a
  sharded run yields **bit-identical** per-query
  delivery/overhead/duplicate metrics to the single-process engine —
  verified by ``tests/sim/test_shard.py`` and the CI determinism gate.
* **Workers.** Every shard runs in-process, driven by direct method
  calls: the partition gives per-shard event, traffic and memory
  accounting and exercises the barrier protocol, not parallelism. All
  workers share the master's columnar store and one
  :class:`~repro.core.store.BootstrapPlan`.

Scope: the sharded engine drives the *converged* overlay (direct
bootstrap, no gossip maintenance, no churn) — the configuration behind
the paper-scale benchmarks. Gossip/churn stay on the single-process path.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.attributes import AttributeSchema
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.node import NodeConfig
from repro.core.observer import FanoutObserver
from repro.core.query import Query
from repro.core.routing import PICKS_CAP
from repro.core.store import (
    BootstrapPlan,
    ColumnarCellIndex,
    DescriptorStore,
)
from repro.metrics.collectors import MetricsCollector, QueryRecord
from repro.obs.events import TraceEvent
from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.obs.tracer import TraceRecorder
from repro.sim.deployment import ValueSampler
from repro.sim.engine import Simulator
from repro.sim.host import SimHost
from repro.sim.latency import LatencyModel, minimum_latency
from repro.sim.network import SimNetwork
from repro.util.memory import current_rss_bytes
from repro.util.perf import paused_gc
from repro.util.rng import derive_rng

#: A cross-shard message: (sender, receiver, payload, arrival time).
Crossing = Tuple[Address, Address, Any, float]


def merge_query_records(
    query_id, records: Sequence[Optional[QueryRecord]]
) -> QueryRecord:
    """Fuse per-shard partial records of one query into a global record.

    Receiver sets union (each node reports on exactly one shard) and
    counters add; the completion result comes from the origin's shard.
    """
    merged = QueryRecord(query_id=query_id)
    for record in records:
        if record is None:
            continue
        merged.received_by |= record.received_by
        merged.matched_receivers |= record.matched_receivers
        merged.queries_sent += record.queries_sent
        merged.replies_sent += record.replies_sent
        merged.duplicates += record.duplicates
        merged.drops += record.drops
        merged.timeouts += record.timeouts
        merged.spurious_timeouts += record.spurious_timeouts
        merged.hedges += record.hedges
        merged.deferrals += record.deferrals
        if record.result is not None:
            merged.result = record.result
        if record.coverage is not None:
            merged.coverage = record.coverage
    return merged


class ShardWorker:
    """One shard: the hosts whose ``address % num_shards == shard_id``."""

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        schema: AttributeSchema,
        seed: int,
        store: DescriptorStore,
        bootstrap_plan: BootstrapPlan,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        node_config: Optional[NodeConfig] = None,
        telemetry: bool = False,
        trace_sample_rate: Optional[float] = None,
        trace_seed: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.schema = schema
        self.seed = seed
        self.simulator = Simulator()
        self.network = SimNetwork(
            self.simulator,
            latency=latency,
            loss_rate=loss_rate,
            rng=derive_rng(seed, "network"),
        )
        self.node_config = node_config or NodeConfig()
        # Per-shard telemetry: a private registry fed by this shard's
        # hosts/health monitors and its one collector; snapshots merge
        # bit-identically across shards (merge_snapshots). The tracer's
        # head-based sampling is a pure seeded hash of the query id, so
        # every shard makes the same keep/skip decision and a sampled
        # query is traced end-to-end without coordination.
        self.registry = MetricsRegistry() if telemetry else None
        self.metrics = MetricsCollector(self.registry)
        self.tracer: Optional[TraceRecorder] = None
        if trace_sample_rate is not None:
            self.tracer = TraceRecorder(
                clock=lambda: self.simulator.now,
                sample_rate=trace_sample_rate,
                sample_seed=trace_seed,
            )
        self._observer = (
            FanoutObserver(self.metrics, self.tracer)
            if self.tracer is not None
            else self.metrics
        )
        self._store = store
        self._bootstrap_plan = bootstrap_plan
        self.hosts: Dict[Address, SimHost] = {}
        self._outbox: List[Crossing] = []
        self.network.remote_route = self._collect
        #: Completion notices: query_id -> (duration, result descriptors).
        self._completions: Dict[Any, Tuple[float, List[NodeDescriptor]]] = {}

    def _collect(
        self, sender: Address, receiver: Address, message: Any, arrival: float
    ) -> None:
        self._outbox.append((sender, receiver, message, arrival))

    # -- construction --------------------------------------------------------

    def _make_host(self, descriptor: NodeDescriptor) -> None:
        address = descriptor.address
        self.hosts[address] = SimHost(
            descriptor,
            self.schema,
            self.network,
            self.seed,
            node_config=self.node_config,
            observer=self._observer,
            registry=self.registry,
        )

    def build(self) -> Dict[str, Any]:
        """Create this shard's hosts and seed their converged tables.

        Per-shard cost is O(owned): the population and every bucket come
        from the shared columnar store and bootstrap plan, and per-node
        bootstrap streams make the tables bit-identical to a
        single-process bootstrap. Returns the build stats dict:
        ``visited_nodes`` counts the nodes whose bootstrap draws this
        worker consumed — equal to ``hosts``, the partition-not-replay
        invariant the perf-smoke gate asserts.
        """
        started = time.perf_counter()
        store = self._store
        plan = self._bootstrap_plan
        with paused_gc():
            owned_rows = store.owned_rows(self.num_shards, self.shard_id)
            for row in owned_rows:
                self._make_host(store.descriptor(row))
            self.network.local_addresses = set(self.hosts)
            links = plan.draw(owned_rows, self.seed)
            for index, row in enumerate(owned_rows):
                self.hosts[store.address_at(row)].node.routing.seed_slots(
                    links, index
                )
        return {
            "shard_id": self.shard_id,
            "hosts": len(self.hosts),
            "visited_nodes": len(self.hosts),
            "materialized_descriptors": store.materialized_count,
            "build_seconds": round(time.perf_counter() - started, 3),
            "rss_bytes": current_rss_bytes(),
        }

    # -- synchronization -----------------------------------------------------

    def next_event_time(self) -> Optional[float]:
        """Earliest live event on this shard (None when idle)."""
        return self.simulator.next_event_time()

    def run_window(self, end: float) -> List[Crossing]:
        """Run events up to *end*; drain and return the cross-shard outbox."""
        self.simulator.run(until=end)
        return self.drain_outbox()

    def drain_outbox(self) -> List[Crossing]:
        """Return and clear the pending cross-shard messages.

        Remote sends are collected synchronously, so issuing a query can
        fill the outbox without any window having run — the coordinator
        drains it before computing the first horizon.
        """
        outbox = self._outbox
        self._outbox = []
        return outbox

    def inject_crossings(self, injections: Sequence[Crossing]) -> None:
        """Schedule bridged messages at their sender-computed arrivals.

        Lookahead guarantees every arrival is at or after this shard's
        clock (the window just run ended at ``horizon + lookahead``).
        """
        for sender, receiver, message, arrival in injections:
            self.network.inject(sender, receiver, message, arrival)

    # -- queries -------------------------------------------------------------

    def issue(self, origin: Address, query: Query, sigma: Optional[int]) -> Any:
        """Issue *query* at local host *origin*; returns the query id."""
        issued_at = self.simulator.now

        def on_complete(query_id, matching) -> None:
            self._completions[query_id] = (
                self.simulator.now - issued_at,
                list(matching),
            )

        return self.hosts[origin].issue_query(
            query, sigma=sigma, on_complete=on_complete
        )

    def poll_completion(
        self, query_id: Any
    ) -> Optional[Tuple[float, List[NodeDescriptor]]]:
        """Pop the (duration, matching) notice for *query_id*, if done."""
        return self._completions.pop(query_id, None)

    def query_record(self, query_id: Any) -> Optional[QueryRecord]:
        """Take this shard's partial metrics record for *query_id*.

        The coordinator merges it once, so the collector releases it:
        late events still reach it through the collector's window.
        """
        return self.metrics.release(query_id)

    def counters(self) -> Dict[str, int]:
        """Shard-local traffic/engine counters for aggregation."""
        return {
            "messages_sent": self.network.messages_sent,
            "messages_delivered": self.network.messages_delivered,
            "messages_forwarded_remote": self.network.messages_forwarded_remote,
            "processed_events": self.simulator.processed_events,
            "hosts": len(self.hosts),
        }

    # -- telemetry -----------------------------------------------------------

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """This shard's registry snapshot."""
        if self.registry is None:
            return {"counters": {}, "gauges": {}, "histograms": {}}
        return self.registry.snapshot()

    def trace_events(self) -> List[TraceEvent]:
        """This shard's sampled trace events, grouped by query."""
        if self.tracer is None:
            return []
        return list(self.tracer.iter_events())


class _ShardClock:
    """Global-time facade matching the ``deployment.simulator`` surface."""

    def __init__(self, deployment: "ShardedDeployment") -> None:
        self._deployment = deployment
        self.now = 0.0

    @property
    def processed_events(self) -> int:
        return sum(
            counters["processed_events"]
            for counters in self._deployment.shard_counters()
        )


class _MergedMetrics:
    """``MetricsCollector``-shaped view over merged per-shard records.

    Only the surface :func:`repro.experiments.harness.measure_queries`
    touches is provided: ``consume_opened`` returns the merged record of
    the query most recently executed through the sharded deployment and
    removes it from ``records``, like ``MetricsCollector.consume_opened``.
    A merged record is a snapshot, so late events never reach it.
    """

    def __init__(self) -> None:
        self._last: Optional[QueryRecord] = None
        self.records: Dict[Any, QueryRecord] = {}

    def stash(self, record: QueryRecord) -> None:
        self._last = record
        self.records[record.query_id] = record

    def consume_opened(self) -> Optional[QueryRecord]:
        record = self._last
        self._last = None
        if record is not None:
            self.records.pop(record.query_id, None)
        return record


class ShardedDeployment:
    """Partitioned overlay with the measurement surface of ``Deployment``.

    Drop-in for :func:`repro.experiments.harness.measure_queries`:
    exposes ``simulator.now``, ``matching_descriptors`` and
    ``execute_query`` with single-process semantics (same origin-selection
    rng stream, same completion timing), while queries actually run
    spread across the shard workers.
    """

    def __init__(
        self,
        schema: AttributeSchema,
        num_shards: int = 2,
        seed: int = 42,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        node_config: Optional[NodeConfig] = None,
        telemetry: bool = False,
        trace_sample_rate: Optional[float] = None,
        trace_seed: int = 0,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.schema = schema
        self.seed = seed
        self.num_shards = num_shards
        self.node_config = node_config or NodeConfig()
        self.telemetry = telemetry
        self.trace_sample_rate = trace_sample_rate
        self.trace_seed = trace_seed
        self._latency = latency
        self._loss_rate = loss_rate
        lookahead = minimum_latency(latency) if latency is not None else 0.01
        if not lookahead or lookahead <= 0.0:
            raise ValueError(
                "sharded simulation needs a latency model with a positive "
                "hard minimum (model.minimum) to derive its lookahead"
            )
        self.lookahead = lookahead
        self.simulator = _ShardClock(self)
        self.metrics = _MergedMetrics()
        self._rng = derive_rng(seed, "deployment")
        self._population_rng = derive_rng(seed, "population")
        self._next_address = 0
        #: The ground-truth index. Nothing churns it, so its base is the
        #: columnar population every worker builds from.
        self.index = ColumnarCellIndex(
            DescriptorStore.from_descriptors(schema, ())
        )
        #: Per-shard build stats dicts, filled by :meth:`bootstrap`.
        self.build_stats: List[Dict[str, Any]] = []
        self._workers: List[ShardWorker] = []

    # -- population views ----------------------------------------------------

    @property
    def descriptors(self) -> List[NodeDescriptor]:
        """The population as descriptor objects (materialized on demand)."""
        return list(self.index.store().descriptors())

    @property
    def population(self) -> int:
        """Number of sampled nodes."""
        return len(self.index)

    # -- construction --------------------------------------------------------

    def populate(self, sampler: ValueSampler, count: int) -> None:
        """Sample the population — the same stream as ``Deployment``.

        One :meth:`~repro.core.store.DescriptorStore.sample` pass into
        the ground-truth index's columnar base: vectorized and
        bit-identical to the scalar loop when the sampler has a batch
        hook, that scalar loop when it has none. Refused once the workers
        are built: they hold the population they were built from.
        """
        if self._workers:
            raise RuntimeError("already bootstrapped")
        with paused_gc():
            self.index.extend(
                DescriptorStore.sample(
                    self.schema,
                    sampler,
                    self._population_rng,
                    count,
                    base_address=self._next_address,
                )
            )
            self._next_address += count

    def bootstrap(self) -> None:
        """Build the shard workers and seed their converged tables.

        The shared bootstrap plan is derived once here and handed to
        every worker; each worker then only does O(owned) work.
        """
        if self._workers:
            raise RuntimeError("already bootstrapped")
        store = self.index.store()
        plan = BootstrapPlan(store, PICKS_CAP)
        self._workers = [
            ShardWorker(
                shard_id,
                self.num_shards,
                self.schema,
                self.seed,
                store,
                plan,
                latency=self._latency,
                loss_rate=self._loss_rate,
                node_config=self.node_config,
                telemetry=self.telemetry,
                trace_sample_rate=self.trace_sample_rate,
                trace_seed=self.trace_seed,
            )
            for shard_id in range(self.num_shards)
        ]
        self.build_stats = [worker.build() for worker in self._workers]

    # -- measurement surface -------------------------------------------------

    def matching_descriptors(self, query: Query) -> List[NodeDescriptor]:
        """Ground truth from the master's global cell index."""
        return self.index.matching(query)

    def shard_counters(self) -> List[Dict[str, int]]:
        """Per-shard traffic/engine counters."""
        return [worker.counters() for worker in self._workers]

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """The merged registry snapshot across every shard.

        :func:`~repro.obs.registry.merge_snapshots` is associative and
        exact, so (with telemetry enabled) the result is bit-identical to
        the snapshot a single-process run of the same testbed produces —
        the tentpole determinism contract, gated by
        ``tests/sim/test_shard.py``.
        """
        return merge_snapshots(
            worker.telemetry_snapshot() for worker in self._workers
        )

    def trace_events(self) -> List[TraceEvent]:
        """Merged sampled trace events from every shard, time-ordered.

        Sampling decisions are shard-independent (seeded hash of the
        query id), so a sampled query's events arrive complete: every hop
        on every shard. Equal timestamps keep shard order (stable sort).
        Feed the result to :meth:`~repro.obs.tracer.TraceRecorder.ingest`
        to rebuild per-query hop trees.
        """
        events = [
            event for worker in self._workers for event in worker.trace_events()
        ]
        events.sort(key=lambda event: event.time)
        return events

    def execute_query(
        self,
        query: Query,
        sigma: Optional[int] = None,
        origin: Optional[Address] = None,
        timeout: float = 600.0,
    ) -> List[NodeDescriptor]:
        """Issue a query and run synchronized windows until it completes.

        Origin selection replays ``Deployment.execute_query``'s rng draw
        (one ``choice`` over the address-ordered alive population), so a
        measurement loop visits the same origins in both engines.
        """
        if not self._workers:
            raise RuntimeError("bootstrap() the sharded deployment first")
        population = self.population
        if not population:
            raise RuntimeError("no live hosts to issue the query from")
        if origin is None:
            # Same single draw as Deployment's rng.choice(alive) — choice
            # over a sequence is one _randbelow(len) — without
            # materializing the population as objects.
            origin = self.index.store().address_at(
                self._rng.choice(range(population))
            )
        shard = origin % self.num_shards
        worker = self._workers[shard]
        query_id = worker.issue(origin, query, sigma)

        completion: Optional[Tuple[float, List[NodeDescriptor]]] = None
        deadline: Optional[float] = None
        # Issuing sends the initial messages synchronously, so remote ones
        # are already sitting in the origin's outbox before any window has
        # run — fold them into the first barrier like any other crossing.
        pending: List[Tuple[float, int, int, Crossing]] = [
            (crossing[3], shard, position, crossing)
            for position, crossing in enumerate(worker.drain_outbox())
        ]
        while True:
            # Barrier: deliver the collected crossings sorted by
            # (arrival, source shard, send order) — a total order that
            # does not depend on worker scheduling — so the horizon below
            # sees them as ordinary heap events.
            if pending:
                pending.sort(key=lambda item: (item[0], item[1], item[2]))
                by_destination: Dict[int, List[Crossing]] = {}
                for _arrival, _src, _pos, crossing in pending:
                    destination = crossing[1] % self.num_shards
                    by_destination.setdefault(destination, []).append(crossing)
                for destination, injections in by_destination.items():
                    self._workers[destination].inject_crossings(injections)
                pending = []
            completion = worker.poll_completion(query_id)
            if completion is not None:
                break
            live = [
                time
                for time in (
                    candidate.next_event_time() for candidate in self._workers
                )
                if time is not None
            ]
            if not live:
                break
            horizon = min(live)
            if deadline is None:
                deadline = horizon + timeout
            elif horizon >= deadline:
                break
            end = horizon + self.lookahead
            for index, candidate in enumerate(self._workers):
                for position, crossing in enumerate(candidate.run_window(end)):
                    pending.append((crossing[3], index, position, crossing))
        records = [
            candidate.query_record(query_id) for candidate in self._workers
        ]
        self.metrics.stash(merge_query_records(query_id, records))
        if completion is None:
            return []
        duration, matching = completion
        self.simulator.now += duration
        return matching
