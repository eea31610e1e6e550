"""Performance smoke gates for the fast paths this repo depends on.

Small-N so the whole file runs in seconds, but with explicit wall-time
ceilings: a regression that reintroduces an O(N) scan per query, an
O(heap) pending-events walk, or a per-descriptor classification in
bootstrap shows up here as a hard failure long before the paper-scale
benchmark is rerun. Ceilings are ~10x the observed times on a single
modest core, so they only trip on complexity regressions, not noise.
"""

from __future__ import annotations

import random
import time

from conftest import run_once

from repro.experiments.config import PAPER_PEERSIM
from repro.experiments.harness import (
    build_deployment,
    mean_overhead,
    measure_queries,
)
from repro.workloads.queries import aligned_selectivity_query, random_box_query

SMOKE_N = 5_000


def build_small():
    return build_deployment(PAPER_PEERSIM.scaled(SMOKE_N))


def test_build_small_network(benchmark):
    """Populate + converged bootstrap of a 5,000-node overlay."""
    start = time.perf_counter()
    deployment, _ = run_once(benchmark, build_small)
    elapsed = time.perf_counter() - start
    assert len(deployment.alive_hosts()) == SMOKE_N
    assert elapsed < 15.0


def test_query_batch_small_network(benchmark):
    """A 40-query batch: ground truth + dissemination + metrics."""
    cfg = PAPER_PEERSIM.scaled(SMOKE_N)
    schema = cfg.schema()
    deployment, metrics = build_deployment(cfg)

    def run_batch():
        return measure_queries(
            deployment,
            metrics,
            lambda rng: aligned_selectivity_query(schema, cfg.selectivity, rng),
            count=40,
            sigma=cfg.sigma,
            seed=cfg.seed,
        )

    start = time.perf_counter()
    outcomes = run_once(benchmark, run_batch)
    elapsed = time.perf_counter() - start
    assert elapsed < 15.0
    assert mean_overhead(outcomes) < 3.0
    assert sum(outcome.duplicates for outcome in outcomes) == 0


def test_ground_truth_lookup_is_indexed(benchmark, monkeypatch):
    """matching_descriptors must stay far below one full scan per call.

    Two gates: a wall-clock ceiling that only a full-scan regression
    trips, and a host-independent counter gate on the columnar path —
    once the first lookup has folded the population into the columnar
    base, no lookup may call ``Query.matches`` or construct a
    ``NodeDescriptor``. A per-candidate Python filter passes the first
    gate easily at this size; it cannot pass the second.
    """
    from repro.core.descriptors import NodeDescriptor
    from repro.core.query import Query
    from repro.core.store import ColumnarCellIndex
    from repro.util.rng import derive_rng

    cfg = PAPER_PEERSIM.scaled(SMOKE_N)
    schema = cfg.schema()
    deployment, _ = build_deployment(cfg)
    assert isinstance(deployment.index, ColumnarCellIndex)

    rng = derive_rng(cfg.seed, "smoke-ground-truth")
    queries = [random_box_query(schema, 0.01, rng) for _ in range(200)]
    queries += [
        aligned_selectivity_query(schema, 0.125, rng) for _ in range(40)
    ]
    deployment.matching_descriptors(queries[0])  # the folding lookup

    calls = {"matches": 0, "descriptors": 0}
    matches, init = Query.matches, NodeDescriptor.__init__

    def counting_matches(self, values):
        calls["matches"] += 1
        return matches(self, values)

    def counting_init(self, *args, **kwargs):
        calls["descriptors"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Query, "matches", counting_matches)
    monkeypatch.setattr(NodeDescriptor, "__init__", counting_init)

    def ground_truth_batch():
        return sum(
            len(deployment.matching_descriptors(query)) for query in queries
        )

    start = time.perf_counter()
    total = run_once(benchmark, ground_truth_batch)
    elapsed = time.perf_counter() - start
    assert total > 0
    assert calls == {"matches": 0, "descriptors": 0}
    # 240 lookups over 5,000 nodes; the cell index answers each from the
    # overlapping cells. A full-scan regression costs 240 * 5,000
    # matches() calls and blows straight through this.
    assert elapsed < 2.0


def test_forward_decision_builds_no_regions(benchmark, monkeypatch):
    """The per-hop forward decision is arithmetic, never geometric.

    Host-independent counter gate: across a batch of exhaustive
    (σ = None) queries, no node may call ``neighboring_region`` or
    construct a ``Region`` — ``cells.overlapping_dimensions`` answers
    "which N(l,k) overlap Q" from bitmasks. A per-hop region (or a
    per-node region cache) reintroduced on the hot path trips this on
    the first forward. The dissemination must stay exactly-once.
    """
    from repro.core import cells

    cfg = PAPER_PEERSIM.scaled(SMOKE_N)
    schema = cfg.schema()
    deployment, metrics = build_deployment(cfg)

    calls = {"neighboring_region": 0, "regions": 0}
    neighboring_region, init = cells.neighboring_region, cells.Region.__init__

    def counting_neighboring_region(*args, **kwargs):
        calls["neighboring_region"] += 1
        return neighboring_region(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["regions"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cells, "neighboring_region", counting_neighboring_region)
    monkeypatch.setattr(cells.Region, "__init__", counting_init)

    # f=0.01: about 50 matches each, traversed to the end. Much wider
    # boxes (f=0.125 here) outlast the decayed failure timers, and the
    # retries those spurious timeouts launch cause duplicate receipts
    # whatever the forward decision.
    def run_batch():
        return measure_queries(
            deployment,
            metrics,
            lambda rng: random_box_query(schema, 0.01, rng),
            count=40,
            sigma=None,
            seed=cfg.seed,
        )

    outcomes = run_once(benchmark, run_batch)
    assert sum(outcome.found for outcome in outcomes) > 0
    assert calls == {"neighboring_region": 0, "regions": 0}
    assert sum(outcome.duplicates for outcome in outcomes) == 0


def test_one_observer_call_per_protocol_act(benchmark):
    """Each protocol act fires exactly one observer call.

    Host-independent counter gate: an observer that counts every
    ``ProtocolObserver`` hook watches a batch of exhaustive (σ = None)
    queries and must see one ``query_forwarded`` per QUERY sent, one
    ``reply_sent`` per REPLY sent and one ``query_completed`` per query.
    A second per-send or per-completion hook reintroduced in the node
    trips this, because no other hook may fire on a clean batch.
    """
    from collections import Counter

    from repro.core.observer import HOOKS, ProtocolObserver

    def counting(name):
        def hook(self, *args, **kwargs):
            self.calls[name] += 1

        return hook

    hooks = {name: counting(name) for name in HOOKS}
    Counting = type("Counting", (ProtocolObserver,), hooks)
    observer = Counting()
    observer.calls = Counter()

    cfg = PAPER_PEERSIM.scaled(SMOKE_N)
    schema = cfg.schema()
    deployment, metrics = build_deployment(cfg, extra_observers=(observer,))
    sent = deployment.network.type_counts
    queries_before, replies_before = sent["QueryMessage"], sent["ReplyMessage"]
    count = 40

    # f=0.01 keeps the batch exactly-once (see the gate above).
    def run_batch():
        return measure_queries(
            deployment,
            metrics,
            lambda rng: random_box_query(schema, 0.01, rng),
            count=count,
            sigma=None,
            seed=cfg.seed,
        )

    outcomes = run_once(benchmark, run_batch)
    queries = sent["QueryMessage"] - queries_before
    replies = sent["ReplyMessage"] - replies_before
    calls = observer.calls
    assert queries > 0
    assert sum(outcome.duplicates for outcome in outcomes) == 0
    assert calls["query_forwarded"] == queries
    assert calls["reply_sent"] == replies
    assert calls["query_completed"] == count
    # Every QUERY is received once, plus the origin's own reception.
    assert calls["query_received"] == queries + count
    assert set(calls) <= {
        "query_forwarded", "query_received", "reply_sent",
        "query_completed", "query_dropped",
    }


def test_codec_decodes_records_in_one_call(benchmark, monkeypatch):
    """A REPLY decodes each descriptor record with one compiled layout.

    Host-independent counter gate on the ``serve`` geometry (d = 3,
    max(l) = 3): the field-at-a-time ``_Reader`` primitives run the same
    number of times for a 1-descriptor and a 100-descriptor REPLY, so a
    per-field read reintroduced in the record path trips this at once.
    """
    from repro.core.codec import Codec, _Reader
    from repro.core.descriptors import NodeDescriptor
    from repro.core.messages import ReplyMessage
    from repro.experiments.config import ExperimentConfig
    from repro.workloads.distributions import uniform_sampler

    schema = ExperimentConfig(network_size=256, seed=2009, dimensions=3).schema()
    assert (schema.dimensions, schema.max_level) == (3, 3)
    codec = Codec(schema)
    sample = uniform_sampler(schema)
    rng = random.Random(2009)
    descriptors = tuple(
        NodeDescriptor.build(address, schema, sample(rng))
        for address in range(100)
    )

    calls = {"primitives": 0}
    for name in ("u8", "u16", "u32", "i64", "f64", "text"):
        primitive = getattr(_Reader, name)

        def counting(self, *args, _primitive=primitive):
            calls["primitives"] += 1
            return _primitive(self, *args)

        monkeypatch.setattr(_Reader, name, counting)

    def primitive_calls(matching):
        message = ReplyMessage(query_id=(1, 7), sender=1, matching=matching)
        calls["primitives"] = 0
        assert codec.decode(codec.encode(1, message)) == (1, message)
        return calls["primitives"]

    assert primitive_calls(descriptors[:1]) == run_once(
        benchmark, primitive_calls, descriptors
    )


def test_codec_works_once_per_query(benchmark, monkeypatch):
    """The shared codec packs and parses each query and record once.

    Host-independent counter gate on a 64-node loopback ``AioOverlay``
    (the ``serve`` geometry, d = 3, seed 2009) answering wide queries one
    at a time: a QUERY's constant section is packed and parsed once per
    query that left its origin, however many hops it takes, and each
    descriptor record once per host, however many replies carry it up
    the tree. A hop that re-packs or re-parses either trips this at once.
    """
    import asyncio

    from repro.core.codec import Codec
    from repro.core.messages import QueryMessage
    from repro.core.query import Query
    from repro.experiments.config import ExperimentConfig
    from repro.runtime.aio import AioOverlay
    from repro.workloads.distributions import uniform_sampler

    size = 64
    schema = ExperimentConfig(
        network_size=size, seed=2009, dimensions=3
    ).schema()
    calls = {"queries": set()}
    for name in (
        "_pack_section", "_parse_section", "_pack_record", "_parse_record",
        "_decode_descriptor", "encode",
    ):
        original = getattr(Codec, name)

        def counting(self, *args, _original=original, _name=name):
            if _name != "encode":
                calls[_name] = calls.get(_name, 0) + 1
            elif isinstance(args[1], QueryMessage):
                calls["queries"].add(args[1].query_id)
            return _original(self, *args)

        monkeypatch.setattr(Codec, name, counting)

    async def scenario():
        async with AioOverlay(schema, seed=2009) as overlay:
            await overlay.populate(uniform_sampler(schema), size)
            overlay.bootstrap()
            for index, low in enumerate((0.0, 15.0, 30.0, 45.0, 60.0)):
                query = Query.where(schema, attr0=(low, low + 40.0))
                found = await overlay.execute_query(query, origin=index * 7)
                assert len(found) == len(overlay.matching_descriptors(query))

    run_once(benchmark, asyncio.run, scenario())
    queries = len(calls["queries"])
    # Each match rides every reply from its node up to the origin.
    assert queries == 5 and calls["_decode_descriptor"] > 4 * size, calls
    assert calls["_pack_section"] == calls["_parse_section"] == queries
    assert 0 < calls["_pack_record"] <= size
    assert 0 < calls["_parse_record"] <= size


#: ``slot_of`` calls in the gossip gate below, as counted on the
#: per-dimension implementation the key arithmetic replaced: classifying
#: by key must change how a slot is found, never how often.
GOSSIP_SLOT_OF_CALLS = 1_415_801


def test_gossip_classifies_without_dimension_loops(benchmark, monkeypatch):
    """Gossip classifies descriptors by key arithmetic alone.

    Host-independent counter gate: on a 1,000-node overlay after a 50 s
    gossip warm-up, 10 gossip cycles call ``slot_of`` exactly
    ``GOSSIP_SLOT_OF_CALLS`` times and never call the scalar interleave
    ``cells.cell_code``. Every descriptor's key comes from the schema's
    intern table, computed once per distinct cell, so a key recomputed
    per descriptor or per classification trips this at once.
    """
    import sys

    from repro.core import cells

    cfg = PAPER_PEERSIM.scaled(1_000)
    deployment, _ = build_deployment(cfg, gossip=True, warmup=50.0)

    calls = {"cell_code": 0, "slot_of": 0}
    for name in calls:
        original = getattr(cells, name)

        def counting(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if (
                module_name.startswith("repro.")
                and getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counting)

    run_once(benchmark, deployment.run, 10 * cfg.gossip_period)
    assert calls == {"cell_code": 0, "slot_of": GOSSIP_SLOT_OF_CALLS}


def test_bootstrap_draws_in_bulk(benchmark, monkeypatch):
    """The converged bootstrap draws every pick in one vectorized pass.

    Host-independent counter gate at N=5,000: ``Deployment.bootstrap``
    makes no ``random.Random.random`` or ``shuffle`` call (the picks come
    from each node's Mersenne Twister words, drawn in bulk by
    ``BootstrapPlan.draw``), seeds no ``random.Random`` (every node's
    stream is seeded by one ``mersenne_words`` pass, the nodes whose
    first words run out included), makes exactly one
    ``RoutingTable.seed_slots`` call per node, and promotes no table to
    its dicts. A per-slot draw loop, a ``random.Random`` per node, or a
    table filled entry by entry, trips this at once.
    """
    from repro.core.routing import RoutingTable
    from repro.sim.deployment import Deployment
    from repro.workloads.distributions import uniform_sampler

    cfg = PAPER_PEERSIM.scaled(SMOKE_N)
    schema = cfg.schema()
    deployment = Deployment(
        schema, seed=cfg.seed, node_config=cfg.node_config()
    )
    deployment.populate(uniform_sampler(schema), SMOKE_N)

    calls = {"random": 0, "shuffle": 0, "promoted": 0}
    seeded = []
    streams = []
    rng_seed = random.Random.seed

    def counting_rng_seed(self, *args, **kwargs):
        streams.append(args)
        rng_seed(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counting_rng_seed)
    for name in ("random", "shuffle"):
        original = getattr(random.Random, name)

        def counting(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(random.Random, name, counting)
    seed_slots, promote = RoutingTable.seed_slots, RoutingTable._promote

    def counting_seed_slots(self, links, row):
        seeded.append(id(self))
        seed_slots(self, links, row)

    def counting_promote(self):
        calls["promoted"] += self._links is not None
        promote(self)

    monkeypatch.setattr(RoutingTable, "seed_slots", counting_seed_slots)
    monkeypatch.setattr(RoutingTable, "_promote", counting_promote)

    run_once(benchmark, deployment.bootstrap)
    assert calls == {"random": 0, "shuffle": 0, "promoted": 0}
    assert len(streams) == 0
    assert len(seeded) == len(set(seeded)) == SMOKE_N
    assert {
        id(host.node.routing) for host in deployment.hosts.values()
    } == set(seeded)


def test_memory_footprint_per_node(benchmark):
    """Compact-state gate: tracemalloc-attributed bytes per node.

    The whole per-node cost of a converged ``sim.Deployment`` — its
    columnar store, descriptor, host, node, routing table, links —
    measured with tracemalloc so the number is stable across machines
    (unlike RSS). Observed ~2.1 KB/node at this N; this ceiling is the
    loose structural one, :func:`test_converged_node_footprint` the
    tight one.
    """
    from repro.util.memory import traced_allocation

    holder: list = []

    def build_traced():
        with traced_allocation(holder):
            return build_deployment(PAPER_PEERSIM.scaled(SMOKE_N))

    deployment, _ = run_once(benchmark, build_traced)
    assert len(deployment.alive_hosts()) == SMOKE_N
    bytes_per_node = holder[0] / SMOKE_N
    assert bytes_per_node < 9_500, (
        f"per-node footprint regressed: {bytes_per_node:.0f} bytes/node"
    )


#: Traced bytes per node of a converged ``sim.Deployment`` at SMOKE_N,
#: ~10 % above the ~2,100 B measured (Python 3.11, numpy 2).
CONVERGED_NODE_BYTES = 2_300


def test_converged_node_footprint(benchmark):
    """Tight per-node gate: a converged node holds only what it uses.

    An idle node's pending/seen/dynamic maps, an unpromoted routing
    table's four dicts and a monitor's estimator and breaker maps are
    one shared empty mapping; the host keeps no RNG closure and shares
    its deployment's watcher tuple; the store caches its flyweights in
    one object array. Giving every node its own empty dicts again costs
    ~500 B/node and trips this ceiling.
    """
    from repro.util.memory import traced_allocation

    holder: list = []

    def build_traced():
        with traced_allocation(holder):
            return build_deployment(PAPER_PEERSIM.scaled(SMOKE_N))

    deployment, _ = run_once(benchmark, build_traced)
    assert len(deployment.alive_hosts()) == SMOKE_N
    bytes_per_node = holder[0] / SMOKE_N
    assert bytes_per_node < CONVERGED_NODE_BYTES, (
        f"converged node footprint regressed: {bytes_per_node:.0f} B/node"
    )


def test_consumed_queries_leave_no_record(benchmark):
    """Finished, consumed queries leave no ``QueryRecord`` behind.

    After a warm-up, a fixed list of exhaustive queries runs through
    ``measure_queries``, which takes each query's record. ``records``
    must end empty, and the live ``QueryRecord`` objects (the window of
    recently taken records, which late events may still reach) must not
    outnumber that window.
    """
    import gc

    from repro.metrics.collectors import RELEASED_WINDOW, QueryRecord

    cfg = PAPER_PEERSIM.scaled(SMOKE_N)
    schema = cfg.schema()
    deployment, metrics = build_deployment(cfg)

    def batch(count, seed):
        return measure_queries(
            deployment,
            metrics,
            lambda rng: random_box_query(schema, 0.05, rng),
            count=count,
            seed=seed,
        )

    batch(10, seed=3)  # warm-up

    outcomes = run_once(benchmark, lambda: batch(60, seed=cfg.seed))
    assert all(outcome.delivery == 1.0 for outcome in outcomes)
    assert len(metrics.records) == 0
    gc.collect()
    live = sum(
        1 for obj in gc.get_objects() if isinstance(obj, QueryRecord)
    )
    assert live <= RELEASED_WINDOW, (
        f"{live} QueryRecords alive after 70 consumed queries"
    )


def test_columnar_memory_footprint_per_node(benchmark):
    """Columnar-state gate: population + bootstrap plan under 2 KB/node.

    What every engine builds before any host exists: the columnar
    population (four numpy columns, sampled by
    ``ShardedDeployment.populate``) and the shared bootstrap plan derived
    from it. tracemalloc-attributed bytes per node gate that state an
    order of magnitude below the whole-``sim.Deployment`` ceiling above —
    falling back to per-node descriptor objects trips this immediately.
    """
    from repro.core.routing import PICKS_CAP
    from repro.core.store import BootstrapPlan
    from repro.sim.shard import ShardedDeployment
    from repro.util.memory import traced_allocation
    from repro.workloads.distributions import uniform_sampler

    config = PAPER_PEERSIM.scaled(SMOKE_N)
    schema = config.schema()
    holder: list = []

    def build_traced():
        with traced_allocation(holder):
            deployment = ShardedDeployment(schema, seed=config.seed)
            deployment.populate(uniform_sampler(schema), SMOKE_N)
            plan = BootstrapPlan(deployment.index.store(), PICKS_CAP)
            return deployment, plan

    deployment, _plan = run_once(benchmark, build_traced)
    assert deployment.population == SMOKE_N
    bytes_per_node = holder[0] / SMOKE_N
    assert bytes_per_node < 2_048, (
        f"columnar footprint regressed: {bytes_per_node:.0f} bytes/node"
    )


def test_sharded_startup_work_is_partitioned(benchmark):
    """Sublinear-startup gate, counter-based (immune to machine noise).

    Each shard worker must bootstrap only the nodes it owns:
    ``visited_nodes`` counts the nodes whose bootstrap draws the worker
    consumed. A regression to replaying the full population per worker
    (the pre-columnar behavior) makes every worker visit all N nodes and
    fails the strict inequality.
    """
    from repro.experiments.scale import build_sharded_deployment

    num_shards = 4
    deployment, _ = run_once(
        benchmark,
        lambda: build_sharded_deployment(
            PAPER_PEERSIM.scaled(SMOKE_N), num_shards=num_shards
        ),
    )
    stats = deployment.build_stats
    assert len(stats) == num_shards
    assert sum(entry["visited_nodes"] for entry in stats) == SMOKE_N
    for entry in stats:
        assert entry["visited_nodes"] == entry["hosts"]
        assert entry["visited_nodes"] < SMOKE_N  # strictly sublinear
        assert entry["visited_nodes"] <= SMOKE_N // num_shards + 1


def test_telemetry_overhead_is_bounded(benchmark):
    """Observability must be affordable at scale, in both positions.

    Three runs of the same 10k-node query batch: bare, with the disabled
    registry (the no-op fast path), and with full telemetry — labeled
    collector plus tracing head-sampled at 1%. Medians of repeated
    timings, compared with a 5% relative ceiling plus a small absolute
    slack so scheduler noise cannot trip the gate on a quiet regression-
    free run.
    """
    import statistics

    from repro.obs.telemetry import Telemetry

    cfg = PAPER_PEERSIM.scaled(10_000)
    schema = cfg.schema()
    repeats = 3
    batch = 25

    def timed_batch(telemetry):
        deployment, metrics = build_deployment(cfg, telemetry=telemetry)
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            measure_queries(
                deployment,
                metrics,
                lambda rng: aligned_selectivity_query(
                    schema, cfg.selectivity, rng
                ),
                count=batch,
                sigma=cfg.sigma,
                seed=cfg.seed,
            )
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    def compare():
        bare = timed_batch(None)
        sampled = timed_batch(
            Telemetry(trace_sample_rate=0.01, trace_seed=cfg.seed)
        )
        return bare, sampled

    bare, sampled = run_once(benchmark, compare)
    # 5% relative + 250 ms absolute: the absolute term dominates only
    # when the batch itself is fast enough that 5% is below timer noise.
    assert sampled <= bare * 1.05 + 0.25, (
        f"telemetry overhead regressed: bare={bare:.3f}s "
        f"sampled={sampled:.3f}s"
    )


def test_sharded_engine_is_deterministic(benchmark):
    """Determinism gate: sharded == single-process, bit for bit.

    Same seed, same workload, peersim testbed (constant latency, zero
    loss): the 3-shard engine must reproduce the single-process per-query
    metrics exactly. Catches any drift in the shared rng streams, the
    bootstrap replay, or the cross-shard barrier ordering.
    """
    from repro.experiments.scale import build_sharded_deployment

    cfg = PAPER_PEERSIM.scaled(2_000)
    schema = cfg.schema()

    def fingerprint(deployment, metrics):
        outcomes = measure_queries(
            deployment,
            metrics,
            lambda rng: aligned_selectivity_query(schema, cfg.selectivity, rng),
            count=5,
            sigma=cfg.sigma,
            seed=cfg.seed,
        )
        return [
            (o.overhead, o.delivery, o.found, o.expected, o.duplicates)
            for o in outcomes
        ]

    def compare():
        single = fingerprint(*build_deployment(cfg))
        sharded = fingerprint(*build_sharded_deployment(cfg, num_shards=3))
        return single, sharded

    single, sharded = run_once(benchmark, compare)
    assert sharded == single


#: Python-level calls per delivered message over the hot-path gate's
#: batch, as cProfile counts them (builtins included): pinned at the
#: 61.95 measured when failure timers moved to the timer wheel (90.65
#: before, on the same batch).
CALLS_PER_MESSAGE = 62.0


def test_sim_query_hot_path_counters(benchmark, monkeypatch):
    """Per-message work and timer traffic of exhaustive sim queries.

    Host-independent counter gates over a fixed list of the benchmark's
    exhaustive class (f=0.0005, σ=50, explicit origins), after four
    warm-up queries, run once under cProfile and untimed:

    * Python-level calls per delivered message stay at or below
      :data:`CALLS_PER_MESSAGE` — a closure, a property or a per-hop
      lookup reintroduced in node handling, the engine or the send path
      trips it;
    * no cancelled failure timer ever entered the event heap: every
      timer the reply cancels is still in the simulator's timer wheel
      when it is cancelled (a timer armed with ``schedule`` instead of
      ``schedule_timer`` is cancelled in the heap and trips this).
    """
    import cProfile

    from repro.sim.engine import Simulator
    from repro.util.rng import derive_rng

    cfg = PAPER_PEERSIM.scaled(SMOKE_N)
    schema = cfg.schema()
    deployment, metrics = build_deployment(cfg)
    rng = derive_rng(cfg.seed, "smoke-hot-path")
    batch = [
        (random_box_query(schema, 0.0005, rng), rng.randrange(SMOKE_N))
        for _ in range(44)
    ]
    for query, origin in batch[:4]:
        deployment.execute_query(query, sigma=50, origin=origin)

    cancels = {"count": 0}
    cancel = Simulator.cancel

    def counting_cancel(self, event):
        cancels["count"] += 1
        cancel(self, event)

    monkeypatch.setattr(Simulator, "cancel", counting_cancel)
    simulator, network = deployment.simulator, deployment.network
    heap_cancellations = simulator.heap_cancellations
    delivered = network.messages_delivered
    profiler = cProfile.Profile()

    def run_batch():
        profiler.enable()
        for query, origin in batch[4:]:
            deployment.execute_query(query, sigma=50, origin=origin)
        profiler.disable()

    run_once(benchmark, run_batch)
    delivered = network.messages_delivered - delivered
    # Summed over the profiler's own entries: ``pstats`` keys functions
    # by (file, line, name), so the dataclass ``__init__``s generated at
    # ``<string>:2`` overwrite one another there. The counting wrapper
    # adds one Python call per cancel.
    calls = (
        sum(entry.callcount for entry in profiler.getstats())
        - cancels["count"]
    )
    assert delivered > 0 and cancels["count"] > 0
    assert calls / delivered <= CALLS_PER_MESSAGE, calls / delivered
    assert simulator.heap_cancellations == heap_cancellations
    assert simulator.pending_events == 0
