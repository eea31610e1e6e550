"""Sharded engine: determinism vs the single-process simulator.

The contract from docs/PERFORMANCE.md: on a deterministic testbed
(``peersim`` — constant latency, zero loss, no faults), a sharded run
must produce **bit-identical** per-query metrics to the single-process
engine, for any shard count. These tests enforce that contract end to
end through the measurement harness, so they cover origin selection,
bootstrap rng parity, the cross-shard barrier ordering and completion
timing all at once.
"""

import gc
import weakref

import pytest

from repro.experiments.config import PAPER_PEERSIM
from repro.experiments.harness import build_deployment, measure_queries
from repro.experiments.scale import build_sharded_deployment
from repro.obs.telemetry import Telemetry
from repro.sim.shard import ShardedDeployment, merge_query_records
from repro.metrics.collectors import QueryRecord
from repro.workloads.distributions import uniform_sampler
from repro.workloads.queries import aligned_selectivity_query

NETWORK_SIZE = 600
QUERIES = 5
TRACE_RATE = 0.5
TRACE_SEED = 11


def outcome_fingerprint(outcomes):
    """The fields the determinism contract covers, per query."""
    return [
        (
            outcome.overhead,
            outcome.delivery,
            outcome.found,
            outcome.expected,
            outcome.duplicates,
            round(outcome.latency, 9),
        )
        for outcome in outcomes
    ]


def run_engine(num_shards):
    config = PAPER_PEERSIM.scaled(NETWORK_SIZE)
    schema = config.schema()
    if num_shards == 0:
        deployment, metrics = build_deployment(config)
    else:
        deployment, metrics = build_sharded_deployment(
            config, num_shards=num_shards
        )
    outcomes = measure_queries(
        deployment,
        metrics,
        lambda rng: aligned_selectivity_query(schema, config.selectivity, rng),
        count=QUERIES,
        sigma=config.sigma,
        seed=config.seed,
    )
    return outcome_fingerprint(outcomes)


@pytest.fixture(scope="module")
def single_process_fingerprint():
    return run_engine(0)


def test_single_shard_matches_single_process(single_process_fingerprint):
    assert run_engine(1) == single_process_fingerprint


@pytest.mark.parametrize("num_shards", [2, 3, 5])
def test_sharded_inline_is_bit_identical(
    num_shards, single_process_fingerprint
):
    assert run_engine(num_shards) == single_process_fingerprint


def routing_snapshot(hosts):
    """Per address: primary link and alternates per slot, zero links."""
    snapshot = {}
    for address, host in hosts.items():
        routing = host.node.routing
        routing._promote()  # the dicts the scalar seed would have filled
        snapshot[address] = (
            sorted(
                (slot, routing.neighbor(*slot).address)
                for slot in routing.filled_slots()
            ),
            sorted(
                (slot, [d.address for d in alternates])
                for slot, alternates in routing._alternates.items()
            ),
            [d.address for d in routing.zero_neighbors()],
        )
    return snapshot


@pytest.mark.parametrize("num_shards", [1, 2])
def test_bootstrap_tables_match_the_single_process_engine(num_shards):
    """Every engine seeds the same converged tables from one plan."""
    config = PAPER_PEERSIM.scaled(1_000)
    single, _ = build_deployment(config)
    sharded, _ = build_sharded_deployment(config, num_shards=num_shards)
    hosts = {}
    for worker in sharded._workers:
        hosts.update(worker.hosts)
    assert routing_snapshot(hosts) == routing_snapshot(single.hosts)


def test_sharded_runs_are_repeatable():
    assert run_engine(3) == run_engine(3)


def test_shards_partition_the_population():
    config = PAPER_PEERSIM.scaled(200)
    deployment, _metrics = build_sharded_deployment(config, num_shards=3)
    owned = [set(worker.hosts) for worker in deployment._workers]
    union = set().union(*owned)
    assert union == {d.address for d in deployment.descriptors}
    assert sum(len(addresses) for addresses in owned) == len(union)
    for shard_id, addresses in enumerate(owned):
        assert all(address % 3 == shard_id for address in addresses)
    counters = deployment.shard_counters()
    assert sum(entry["hosts"] for entry in counters) == 200
    # Startup work is partitioned, not replayed: each worker consumed
    # bootstrap draws only for the nodes it owns.
    stats = deployment.build_stats
    assert sum(entry["visited_nodes"] for entry in stats) == 200
    assert all(entry["visited_nodes"] == entry["hosts"] for entry in stats)


def test_populate_after_bootstrap_is_refused():
    """Regression: the workers hold the population they were built from.

    Growing the master's population afterwards would let origin selection
    and ground truth reach hosts that no worker holds.
    """
    config = PAPER_PEERSIM.scaled(200)
    deployment, _ = build_sharded_deployment(config, num_shards=2)
    with pytest.raises(RuntimeError, match="already bootstrapped"):
        deployment.populate(uniform_sampler(config.schema()), 200)
    assert deployment.population == 200
    assert sum(entry["hosts"] for entry in deployment.shard_counters()) == 200


def test_released_deployment_is_collected():
    """Regression: dropping the last reference frees the deployment.

    Replays a release path that looks up an optional ``close`` hook,
    calls it, drops the deployment and collects in the same frame. A
    bound ``close`` still alive in that frame would pin the whole
    deployment (it sits in a reference cycle with its clock) through the
    collection.
    """
    deployment, _ = build_sharded_deployment(
        PAPER_PEERSIM.scaled(200), num_shards=2
    )
    released = weakref.ref(deployment)
    closer = getattr(deployment, "close", None)
    if closer is not None:
        closer()
    deployment = None
    gc.collect()
    assert released() is None


def test_cross_shard_traffic_is_accounted():
    """With >1 shard most forwards cross the bridge; totals must add up."""
    config = PAPER_PEERSIM.scaled(400)
    deployment, metrics = build_sharded_deployment(config, num_shards=2)
    schema = config.schema()
    rng_query = aligned_selectivity_query(
        schema, config.selectivity, __import__("random").Random(7)
    )
    deployment.execute_query(rng_query, sigma=config.sigma)
    counters = deployment.shard_counters()
    remote = sum(entry["messages_forwarded_remote"] for entry in counters)
    sent = sum(entry["messages_sent"] for entry in counters)
    delivered = sum(entry["messages_delivered"] for entry in counters)
    assert remote > 0
    assert sent == delivered  # zero loss on peersim
    record = metrics.consume_opened()
    assert record is not None
    assert record.received_by


def test_merge_query_records_unions_and_sums():
    left = QueryRecord(query_id="q")
    left.received_by = {1, 3}
    left.matched_receivers = {3}
    left.queries_sent = 4
    left.duplicates = 1
    right = QueryRecord(query_id="q")
    right.received_by = {2, 3}
    right.replies_sent = 5
    right.result = [3]
    merged = merge_query_records("q", [left, None, right])
    assert merged.received_by == {1, 2, 3}
    assert merged.matched_receivers == {3}
    assert merged.queries_sent == 4
    assert merged.replies_sent == 5
    assert merged.duplicates == 1
    assert merged.result == [3]


def trace_fingerprint(events):
    """Per-query-normalized event multiset.

    Absolute clocks differ between engines (between queries the sharded
    windows run slightly past the completion event; the single-process
    loop stops on it), so times are taken relative to each query's first
    event — hop spacing, fan-out structure and cross-shard continuity
    all remain covered, exactly.
    """
    payloads = [event.to_dict() for event in events]
    starts = {}
    for payload in payloads:
        qid = tuple(payload["qid"])
        starts[qid] = min(starts.get(qid, payload["t"]), payload["t"])
    normalized = []
    for payload in payloads:
        qid = tuple(payload["qid"])
        payload = dict(payload, t=round(payload["t"] - starts[qid], 9))
        normalized.append(tuple(sorted(payload.items(), key=str)))
    return sorted(normalized)


def run_telemetry_engine(num_shards):
    """Run the workload with telemetry + sampled tracing enabled.

    Returns ``(metrics_snapshot, trace_fingerprint)`` — the merged
    registry snapshot and the multiset of trace events, the two surfaces
    the sharded-collection contract covers.
    """
    config = PAPER_PEERSIM.scaled(NETWORK_SIZE)
    schema = config.schema()
    if num_shards == 0:
        session = Telemetry(
            trace_sample_rate=TRACE_RATE, trace_seed=TRACE_SEED
        )
        deployment, metrics = build_deployment(config, telemetry=session)
        session.tracer.bind_clock(lambda: deployment.simulator.now)
        snapshot = lambda: session.registry.snapshot()  # noqa: E731
        events = lambda: list(session.tracer.iter_events())  # noqa: E731
    else:
        deployment, metrics = build_sharded_deployment(
            config,
            num_shards=num_shards,
            telemetry=True,
            trace_sample_rate=TRACE_RATE,
            trace_seed=TRACE_SEED,
        )
        snapshot = deployment.telemetry_snapshot
        events = deployment.trace_events
    measure_queries(
        deployment,
        metrics,
        lambda rng: aligned_selectivity_query(schema, config.selectivity, rng),
        count=QUERIES,
        sigma=config.sigma,
        seed=config.seed,
    )
    return snapshot(), trace_fingerprint(events())


@pytest.fixture(scope="module")
def single_process_telemetry():
    return run_telemetry_engine(0)


@pytest.mark.parametrize("num_shards", [2, 3])
def test_sharded_telemetry_merges_bit_identically(
    num_shards, single_process_telemetry
):
    """Acceptance gate: merged shard snapshots == single-process snapshot,
    exactly — counters, summed gauges, and histogram totals included."""
    snapshot, trace = run_telemetry_engine(num_shards)
    baseline_snapshot, baseline_trace = single_process_telemetry
    assert snapshot == baseline_snapshot
    assert trace == baseline_trace


def test_sharded_telemetry_content_is_meaningful(single_process_telemetry):
    """The merged snapshot actually carries the labeled series."""
    snapshot, trace = single_process_telemetry
    counters = snapshot["counters"]
    assert counters["query.completed"] == QUERIES
    assert any(key.startswith("query.forwarded{level=") for key in counters)
    assert snapshot["gauges"].get("query.in_flight", 0.0) == 0.0
    # Head sampling at 50%: some queries traced end-to-end, some absent.
    traced = {tuple(dict(event)["qid"]) for event in trace}
    assert 0 < len(traced) <= QUERIES


def test_sharded_deployment_validates_inputs():
    schema = PAPER_PEERSIM.scaled(10).schema()
    with pytest.raises(ValueError):
        ShardedDeployment(schema, num_shards=0)
    with pytest.raises(ValueError):
        build_sharded_deployment(
            PAPER_PEERSIM.scaled(10), num_shards=2, mode="process"
        )
