"""The ``scale_single`` and ``scale_sharded`` workloads.

Both build the paper's Table 1 overlay at N=40,000 (d=5, max(l)=3,
``peersim`` testbed) from the run's seed and drive it with one seeded
query list that alternates two classes:

* ``capped`` — ``aligned_selectivity_query`` at f=0.125, sigma=50: about
  5,000 nodes match, the traversal stops once sigma is met, and host time
  is dominated by the ground-truth lookup;
* ``exhaustive`` — ``random_box_query`` at f=0.0005, sigma=50: about 20
  nodes match, sigma is never met, the region is traversed to the end
  (~175 non-matching hops), and host time is dominated by node handling.

``scale_single`` runs them on ``sim.Deployment``; ``scale_sharded`` runs
the identical population and list on ``sim.shard.ShardedDeployment`` with
two shards in its default ``inline`` mode: the columnar store, the shared
bootstrap plan and conservative-lookahead windows, without the pipes of
``process`` mode (bench/README.md says why). Simulated observables are checked, never timed: the
digest over the first ``DIGEST_QUERIES`` timed queries must be the same
on both engines and equal the golden value for the golden seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from contextlib import nullcontext
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from bench import host
from bench.report import CLASSES, by_class, class_metrics, overhead_ratio, result
from bench.trace import Tracer, Window, layer

NETWORK_SIZE = 40_000
SHARDS = 2
SIGMA = 50
CAPPED_SELECTIVITY = 0.125
EXHAUSTIVE_SELECTIVITY = 0.0005
#: Set-ups per run; ``setup_s`` and ``build_s`` are medians over them.
BUILDS = 3
#: Discarded queries before timing starts (the same on both engines).
WARMUP_QUERIES = 8
#: Timed queries the observables digest and the exact counters cover;
#: the timed loop never stops before it has run this many.
DIGEST_QUERIES = 40

#: One generated query: (class, query, origin address).
Op = Tuple[str, Any, int]


def generate_ops(config: Any, seed: int) -> Iterator[Op]:
    """The seeded query list: classes alternate, origins are explicit.

    Explicit origins keep the list independent of the deployment's own
    origin-selection stream, so both engines see the same inputs.
    """
    from repro.util.rng import derive_rng
    from repro.workloads.queries import (
        aligned_selectivity_query,
        random_box_query,
    )

    schema = config.schema()
    rng = derive_rng(seed, "bench-scale-queries")
    while True:
        yield (
            "capped",
            aligned_selectivity_query(schema, CAPPED_SELECTIVITY, rng),
            rng.randrange(config.network_size),
        )
        yield (
            "exhaustive",
            random_box_query(schema, EXHAUSTIVE_SELECTIVITY, rng),
            rng.randrange(config.network_size),
        )


def check_result(
    query: Any, expected: int, found: Sequence[Any], sigma: int
) -> Optional[str]:
    """Why a sim query result is wrong, or None when it is right.

    *expected* is the ground-truth match count. A result must hold no
    repeated and no non-matching node and at least ``min(sigma,
    expected)`` nodes; an incomplete query returns an empty list and
    fails the last rule whenever anything matches.
    """
    addresses = [descriptor.address for descriptor in found]
    if len(set(addresses)) != len(addresses):
        return "repeated node"
    for descriptor in found:
        if not query.matches(descriptor.values):
            return f"non-matching node {descriptor.address}"
    if len(found) < min(sigma, expected):
        return f"{len(found)} nodes, wanted {min(sigma, expected)}"
    return None


def observables_digest(rows: Sequence[Tuple[int, List[int], int, int]]) -> str:
    """sha256 over ``(index, sorted found addresses, overhead, duplicates)``."""
    return hashlib.sha256(json.dumps(list(rows)).encode()).hexdigest()


def _counters(deployment: Any) -> Tuple[int, int]:
    """Simulator events processed and messages sent so far."""
    shard_counters = getattr(deployment, "shard_counters", None)
    if shard_counters is None:
        return (
            deployment.simulator.processed_events,
            deployment.network.messages_sent,
        )
    counters = shard_counters()
    return (
        sum(counter["processed_events"] for counter in counters),
        sum(counter["messages_sent"] for counter in counters),
    )


class Session:
    """One built deployment plus the facts of its build."""

    def __init__(
        self, engine: str, config: Any, tracer: Optional[Tracer] = None
    ) -> None:
        from repro.experiments.harness import build_deployment
        from repro.experiments.scale import build_sharded_deployment
        from repro.obs import profile

        self.engine = engine
        self.tracer = tracer
        self.deployment: Any = None
        self.metrics: Any = None
        if tracer is not None:
            _install(tracer, engine)
        profiler = profile.activate()
        rss_before = host.current_rss_bytes()
        started = time.perf_counter()
        try:
            with tracer.span("build") if tracer else nullcontext():
                if engine == "single":
                    self.deployment, self.metrics = build_deployment(config)
                else:
                    self.deployment, self.metrics = build_sharded_deployment(
                        config, SHARDS, mode="inline"
                    )
            self.build_window = (started, time.perf_counter())
            if tracer is not None and engine == "sharded":
                _install_handles(tracer, self.deployment)
        except BaseException:
            self.close()
            raise
        finally:
            profile.deactivate()
        phases = profiler.phases
        shard_stats = getattr(self.deployment, "build_stats", None) or []
        self.build_s = self.build_window[1] - started
        #: What the build says about itself, keyed by layer metric.
        self.facts = {
            "sim.deployment.populate_s": phases["populate"].seconds,
            "sim.deployment.bootstrap_s": phases["bootstrap"].seconds,
            "sim.deployment.master_bytes_per_node": max(
                0, host.current_rss_bytes() - rss_before
            ) / config.network_size,
            "sim.shard.worker_build_s_max": max(
                (stats["build_seconds"] for stats in shard_stats), default=0.0
            ),
            "sim.shard.materialized_descriptors": sum(
                stats["materialized_descriptors"] for stats in shard_stats
            ),
            "sim.shard.visited_nodes": sum(
                stats["visited_nodes"] for stats in shard_stats
            ),
            "sim.shard.worker_rss_mb_max": max(
                (stats["rss_bytes"] for stats in shard_stats), default=0
            ) / 2**20,
        }
        # The program builds with the collector paused, so the full
        # collection it deferred (~1 s over 40,000 hosts) would land on
        # whichever query trips the threshold. Run it now, as set-up, and
        # freeze the survivors so later passes only look at new objects.
        gc.collect()
        gc.freeze()

    def close(self) -> None:
        """Stop shard workers, drop the deployment, remove the wrappers."""
        if self.tracer is not None:
            self.tracer.uninstall()
        closer = getattr(self.deployment, "close", None)
        if closer is not None:
            closer()
        self.deployment = self.metrics = None
        gc.unfreeze()
        gc.collect()


def _install(tracer: Tracer, engine: str) -> None:
    """Wrap the class-level layer functions (before the build runs)."""
    from repro.core.node import ResourceNode
    from repro.core.routing import RoutingTable
    from repro.core.store import BootstrapPlan
    from repro.sim.deployment import Deployment
    from repro.sim.network import SimNetwork
    from repro.sim.shard import ShardedDeployment

    if engine == "single":
        facade: Any = Deployment
    else:
        facade = ShardedDeployment
        tracer.wrap(BootstrapPlan, "__init__", "core.store.plan")
    tracer.wrap(RoutingTable, "seed_zero", "core.routing.seed")
    tracer.wrap(RoutingTable, "seed_slots", "core.routing.seed")
    tracer.wrap(ResourceNode, "handle_message", "core.node.handle")
    tracer.wrap(SimNetwork, "send", "sim.network.send")
    tracer.wrap(facade, "populate", "sim.deployment.populate")
    tracer.wrap(facade, "bootstrap", "sim.deployment.bootstrap")
    tracer.wrap(facade, "matching_descriptors", "core.index.ground_truth")
    tracer.wrap(facade, "execute_query", "sim.deployment.execute")


def _install_handles(tracer: Tracer, deployment: Any) -> None:
    """Wrappers on the shard workers the coordinator drives.

    The barrier protocol's calls: what a worker does inside one (node
    handling, sends) nests below as spans of its own.
    """
    for handle in deployment._workers:
        tracer.wrap(handle, "next_event_time", "sim.shard.next_event")
        tracer.wrap(
            handle, "run_window", "sim.shard.run_window",
            weigh=lambda args, crossings: len(crossings),
        )
        tracer.wrap(handle, "inject_crossings", "sim.shard.inject")
        for method in ("issue", "drain_outbox", "poll_completion", "query_record"):
            tracer.wrap(handle, method, "sim.shard.poll")


def measure(
    session: Session, ops: Iterator[Op], seconds: float, warmup: int
) -> List[Dict[str, Any]]:
    """Run *warmup* discarded ops, then timed ops for *seconds*.

    One op is the ground-truth lookup plus ``execute_query``, which is
    what a ``repro bench`` user pays per query. Each row carries host
    times, the simulated observables and the check verdict.
    """
    deployment, metrics, tracer = (
        session.deployment, session.metrics, session.tracer
    )
    for _ in range(warmup):
        _kind, query, origin = next(ops)
        deployment.matching_descriptors(query)
        deployment.execute_query(query, sigma=SIGMA, origin=origin)
    metrics.consume_opened()
    rows: List[Dict[str, Any]] = []
    events_before, messages_before = _counters(deployment)
    deadline = time.perf_counter() + seconds
    while len(rows) < DIGEST_QUERIES or time.perf_counter() < deadline:
        kind, query, origin = next(ops)
        opened = time.perf_counter()
        with tracer.span("op") if tracer else nullcontext():
            started = time.perf_counter()
            expected = deployment.matching_descriptors(query)
            looked_up = time.perf_counter()
            found = deployment.execute_query(query, sigma=SIGMA, origin=origin)
            finished = time.perf_counter()
        record = metrics.consume_opened()
        events, messages = _counters(deployment)
        rows.append({
            "kind": kind,
            # Encloses the op span, so every span of the op starts in it.
            "window": (opened, time.perf_counter()),
            "ms": (finished - started) * 1e3,
            "ground_truth_ms": (looked_up - started) * 1e3,
            "execute_ms": (finished - looked_up) * 1e3,
            "events": events - events_before,
            "messages": messages - messages_before,
            "overhead": record.routing_overhead() if record else -1,
            "duplicates": record.duplicates if record else -1,
            "found": sorted(descriptor.address for descriptor in found),
            "error": check_result(query, len(expected), found, SIGMA),
        })
        events_before, messages_before = events, messages
    return rows


def layer_metrics_external(
    rows: Sequence[Dict[str, Any]], facts: Dict[str, float]
) -> Dict[str, float]:
    """Layer metrics measurable without wrappers, from an untraced session."""
    metrics = dict(facts)
    prefix = rows[:DIGEST_QUERIES]
    metrics["metrics.duplicate_receipts"] = sum(
        row["duplicates"] for row in prefix
    )
    for kind in CLASSES:
        mine = by_class(rows, kind)
        exact = by_class(prefix, kind)
        metrics[f"core.index.ground_truth_ms_p50.{kind}"] = statistics.median(
            row["ground_truth_ms"] for row in mine
        )
        metrics[f"sim.deployment.execute_ms_p50.{kind}"] = statistics.median(
            row["execute_ms"] for row in mine
        )
        metrics[f"sim.engine.events_per_s.{kind}"] = sum(
            row["events"] for row in mine
        ) / (sum(row["execute_ms"] for row in mine) / 1e3)
        # Exact counts cover the fixed prefix, so they repeat from run to
        # run however many queries the timed loop got through.
        metrics[f"sim.engine.events_per_query.{kind}"] = statistics.fmean(
            row["events"] for row in exact
        )
        metrics[f"sim.network.messages_per_query.{kind}"] = statistics.fmean(
            row["messages"] for row in exact
        )
        metrics[f"metrics.routing_overhead_mean.{kind}"] = statistics.fmean(
            row["overhead"] for row in exact
        )
    return metrics


def layer_metrics_traced(
    session: Session, rows: Sequence[Dict[str, Any]]
) -> Dict[str, float]:
    """Layer self times from a traced session, per op of each class."""
    tracer = session.tracer
    assert tracer is not None
    windows: List[Window] = [row["window"] + (row["kind"],) for row in rows]
    windows.append(session.build_window + ("build",))
    tables = tracer.self_times(windows)
    build = tables.get("build", {})
    metrics = {
        "core.store.plan_s": layer(build, "core.store.plan"),
        "core.routing.seed_s": layer(build, "core.routing.seed"),
        "core.routing.seed_calls": layer(build, "core.routing.seed", "calls"),
    }
    traced_total = unattributed = 0.0
    for kind in CLASSES:
        table = tables.get(kind, {})
        ops = len(by_class(rows, kind))

        def per_op(name: str, field: str = "self_s", scale: float = 1e3) -> float:
            return layer(table, name, field) * scale / ops

        metrics.update({
            f"core.node.handle_ms_per_op.{kind}": per_op("core.node.handle"),
            f"core.node.messages_handled_per_op.{kind}": per_op(
                "core.node.handle", "calls", 1.0
            ),
            f"sim.network.send_ms_per_op.{kind}": per_op("sim.network.send"),
            f"sim.engine.self_ms_per_op.{kind}": per_op("sim.deployment.execute"),
            f"core.index.ground_truth_ms_per_op.{kind}": per_op(
                "core.index.ground_truth"
            ),
            f"sim.shard.windows_per_query.{kind}": per_op(
                "sim.shard.run_window", "calls", 1.0 / SHARDS
            ),
            f"sim.shard.window_ms_per_op.{kind}": per_op("sim.shard.next_event")
            + per_op("sim.shard.run_window"),
            f"sim.shard.crossings_per_query.{kind}": per_op(
                "sim.shard.run_window", "weight", 1.0
            ),
            f"sim.shard.inject_ms_per_op.{kind}": per_op("sim.shard.inject"),
            f"sim.shard.poll_ms_per_op.{kind}": per_op("sim.shard.poll"),
        })
        traced_total += layer(table, "op", "total_s")
        unattributed += layer(table, "op")
    metrics["trace.total_s"] = traced_total
    metrics["trace.unattributed_share"] = unattributed / traced_total
    return metrics


def run(engine: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of ``scale_<engine>``: set up ``BUILDS`` times, then measure.

    With *trace* the run splits in two: an untraced session gives the
    layer metrics that need no wrappers and the baseline throughput, a
    traced session gives layer self times and the tracing overhead.
    """
    import_started = time.perf_counter()
    from repro.experiments.config import PAPER_PEERSIM
    import repro.experiments.scale  # noqa: F401 - the import is timed set-up

    import_s = time.perf_counter() - import_started
    config = PAPER_PEERSIM.scaled(NETWORK_SIZE, seed=seed)

    if trace:
        return _run_traced(engine, config, seed, seconds)

    setups: List[float] = []
    builds: List[float] = []
    session: Optional[Session] = None
    try:
        for _ in range(BUILDS):
            if session is not None:
                session.close()
            started = time.perf_counter()
            session = Session(engine, config)
            ops = generate_ops(config, seed)
            setups.append(time.perf_counter() - started)
            builds.append(session.build_s)
        rows = measure(session, ops, seconds, WARMUP_QUERIES)
        peak_rss_mb = host.tree_peak_rss_mb()
    finally:
        if session is not None:
            session.close()
    metrics = class_metrics(rows, _walls(rows))
    metrics.update({
        "setup_s": import_s + statistics.median(setups),
        "build_s": statistics.median(builds),
        "peak_rss_mb": peak_rss_mb,
    })
    return result(rows, metrics, _detail(rows, setups_s=setups, builds_s=builds))


def _run_traced(
    engine: str, config: Any, seed: int, seconds: float
) -> Dict[str, Any]:
    session = Session(engine, config)
    try:
        plain = measure(
            session, generate_ops(config, seed), seconds / 2, WARMUP_QUERIES
        )
        facts = session.facts
    finally:
        session.close()
    tracer = Tracer()
    session = Session(engine, config, tracer)
    try:
        traced = measure(
            session, generate_ops(config, seed), seconds / 2, WARMUP_QUERIES
        )
    finally:
        session.close()
    metrics = class_metrics(plain, _walls(plain))
    metrics.update(layer_metrics_external(plain, facts))
    metrics.update(layer_metrics_traced(session, traced))
    metrics["trace.overhead_ratio"] = overhead_ratio(
        class_metrics(traced, _walls(traced)), metrics
    )
    metrics["trace.spans"] = len(tracer)
    report = result(plain + traced, metrics, _detail(plain))
    report["tracer"] = tracer
    return report


def _walls(rows: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Host seconds spent on each class (the sim runs one op at a time)."""
    return {
        kind: sum(row["ms"] for row in by_class(rows, kind)) / 1e3
        for kind in CLASSES
    }


def _detail(rows: Sequence[Dict[str, Any]], **extra: Any) -> Dict[str, Any]:
    """The simulated observables of the fixed prefix: checked, not timed."""
    prefix = rows[:DIGEST_QUERIES]
    return dict(
        extra,
        observables_digest=observables_digest([
            (index, row["found"], row["overhead"], row["duplicates"])
            for index, row in enumerate(prefix)
        ]),
        events_per_query=statistics.fmean(row["events"] for row in prefix),
    )
