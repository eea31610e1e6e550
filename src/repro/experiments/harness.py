"""Shared experiment machinery: deployment builders and query drivers."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.descriptors import Address
from repro.core.observer import FanoutObserver, ProtocolObserver
from repro.core.query import Query
from repro.experiments.config import ExperimentConfig
from repro.metrics.collectors import MetricsCollector, QueryRecord
from repro.obs import profile
from repro.sim.deployment import Deployment, ValueSampler
from repro.sim.latency import LatencyModel, constant_latency, lan_latency, wan_latency
from repro.util.rng import derive_rng
from repro.workloads.distributions import uniform_sampler


def latency_for_testbed(testbed: str) -> Tuple[LatencyModel, float]:
    """Latency model and message-loss rate for a testbed preset."""
    if testbed == "peersim":
        return constant_latency(0.01), 0.0
    if testbed == "das":
        return lan_latency(), 0.0
    if testbed == "planetlab":
        return wan_latency(), 0.01
    raise ValueError(f"unknown testbed {testbed!r}")


def build_deployment(
    config: ExperimentConfig,
    sampler: Optional[ValueSampler] = None,
    gossip: bool = False,
    retry_on_timeout: bool = True,
    warmup: float = 0.0,
    node_config=None,
    extra_observers: Sequence[ProtocolObserver] = (),
    telemetry=None,
) -> Tuple[Deployment, MetricsCollector]:
    """Build a populated deployment for *config*.

    With ``gossip=False`` the converged routing tables are installed
    directly (the state the paper measures steady-state efficiency in);
    with ``gossip=True`` the real two-layer stack runs and is warmed up for
    *warmup* simulated seconds.

    *extra_observers* (e.g. a :class:`~repro.obs.tracer.TraceRecorder`)
    watch the run alongside the metrics collector. *telemetry* is a
    :class:`~repro.obs.telemetry.Telemetry` session: its collector is the
    one returned, its registry collects gossip-layer telemetry, and its
    tracer (if sampling) joins the observers (its timeline is attached to
    the simulator by the caller, who decides the sampling window). The
    populate / bootstrap / converge phases are reported to the active
    :mod:`repro.obs.profile` profiler, if any.
    """
    schema = config.schema()
    registry = None
    if telemetry is None:
        metrics = MetricsCollector()
    else:
        metrics, registry = telemetry.collector, telemetry.registry
        if telemetry.tracer is not None:
            extra_observers = (*extra_observers, telemetry.tracer)
    observer: ProtocolObserver = metrics
    if extra_observers:
        observer = FanoutObserver(metrics, *extra_observers)
    latency, loss = latency_for_testbed(config.testbed)
    deployment = Deployment(
        schema,
        seed=config.seed,
        latency=latency,
        loss_rate=loss,
        node_config=(
            node_config
            if node_config is not None
            else config.node_config(retry_on_timeout=retry_on_timeout)
        ),
        gossip_config=config.gossip_config() if gossip else None,
        observer=observer,
        registry=registry,
    )
    with profile.phase("populate", deployment.simulator):
        deployment.populate(
            sampler or uniform_sampler(schema), config.network_size
        )
    if gossip:
        with profile.phase("bootstrap", deployment.simulator):
            deployment.start_gossip()
        if warmup > 0:
            with profile.phase("converge", deployment.simulator):
                deployment.run(warmup)
    else:
        with profile.phase("bootstrap", deployment.simulator):
            deployment.bootstrap()
    return deployment, metrics


@dataclass
class QueryOutcome:
    """One measured query: the paper's per-query observables."""

    overhead: int
    delivery: float
    found: int
    expected: int
    duplicates: int
    #: Simulated seconds from issue to completion at the origin.
    latency: float = 0.0


def measure_queries(
    deployment: Deployment,
    metrics: MetricsCollector,
    query_factory: Callable[[random.Random], Query],
    count: int,
    sigma: Optional[int] = None,
    seed: int = 1,
    origins: Optional[Sequence[Address]] = None,
) -> List[QueryOutcome]:
    """Issue *count* generated queries and collect the per-query metrics.

    The paper issues each query "repeatedly from every node in the system";
    we sample a random origin per query (or take them from *origins*),
    which estimates the same averages at tractable cost.
    """
    rng = derive_rng(seed, "measure-queries")
    outcomes: List[QueryOutcome] = []
    metrics.consume_opened()  # discard records opened before this batch
    with profile.phase("measure", deployment.simulator):
        outcomes = _measure_loop(
            deployment, metrics, query_factory, count, sigma, rng, origins
        )
    return outcomes


def _measure_loop(
    deployment: Deployment,
    metrics: MetricsCollector,
    query_factory: Callable[[random.Random], Query],
    count: int,
    sigma: Optional[int],
    rng: random.Random,
    origins: Optional[Sequence[Address]],
) -> List[QueryOutcome]:
    outcomes: List[QueryOutcome] = []
    for index in range(count):
        query = query_factory(rng)
        expected = {
            d.address for d in deployment.matching_descriptors(query)
        }
        origin = origins[index % len(origins)] if origins else None
        issued_at = deployment.simulator.now
        found = deployment.execute_query(query, sigma=sigma, origin=origin)
        latency = deployment.simulator.now - issued_at
        record: Optional[QueryRecord] = metrics.consume_opened()
        outcomes.append(
            QueryOutcome(
                overhead=record.routing_overhead() if record else 0,
                delivery=record.delivery(expected) if record else 0.0,
                found=len(found),
                expected=len(expected),
                duplicates=record.duplicates if record else 0,
                latency=latency,
            )
        )
    return outcomes


def mean_overhead(outcomes: Sequence[QueryOutcome]) -> float:
    """Average routing overhead over a batch of measured queries."""
    return (
        sum(outcome.overhead for outcome in outcomes) / len(outcomes)
        if outcomes
        else 0.0
    )


def mean_delivery(outcomes: Sequence[QueryOutcome]) -> float:
    """Average delivery over a batch of measured queries."""
    return (
        sum(outcome.delivery for outcome in outcomes) / len(outcomes)
        if outcomes
        else 0.0
    )
