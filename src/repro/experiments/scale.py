"""The sharded twin of :func:`repro.experiments.harness.build_deployment`.

Same config, same rng streams, same measurement surface — used by the
determinism tests, the perf smokes and the ``scale_sharded`` workload of
``python3 -m bench``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import latency_for_testbed
from repro.obs import profile
from repro.sim.deployment import ValueSampler
from repro.sim.shard import ShardedDeployment, _MergedMetrics
from repro.workloads.distributions import uniform_sampler


def build_sharded_deployment(
    config: ExperimentConfig,
    num_shards: int,
    mode: str = "inline",
    sampler: Optional[ValueSampler] = None,
    telemetry: bool = False,
    trace_sample_rate: Optional[float] = None,
    trace_seed: int = 0,
) -> Tuple[ShardedDeployment, _MergedMetrics]:
    """Build a populated, bootstrapped sharded deployment for *config*.

    Mirrors :func:`repro.experiments.harness.build_deployment` for the
    converged (gossip-less) case: same schema, same latency preset, same
    population and bootstrap rng streams — so per-query metrics are
    bit-identical to the single-process engine on deterministic
    testbeds (``peersim``). With ``telemetry=True`` every shard carries
    its own registry + collector (merge via
    ``deployment.telemetry_snapshot()``); *trace_sample_rate* arms a
    sampled per-shard tracer whose events merge through
    ``deployment.trace_events()``.

    Every shard runs in-process; *mode* accepts only ``"inline"``. The
    populate and bootstrap phases report to the active
    :mod:`repro.obs.profile` profiler.
    """
    if mode != "inline":
        raise ValueError(f"unknown shard mode {mode!r}")
    schema = config.schema()
    latency, loss = latency_for_testbed(config.testbed)
    deployment = ShardedDeployment(
        schema,
        num_shards=num_shards,
        seed=config.seed,
        latency=latency,
        loss_rate=loss,
        node_config=config.node_config(),
        telemetry=telemetry,
        trace_sample_rate=trace_sample_rate,
        trace_seed=trace_seed,
    )
    with profile.phase("populate", deployment.simulator):
        deployment.populate(
            sampler or uniform_sampler(schema), config.network_size
        )
    with profile.phase("bootstrap", deployment.simulator):
        deployment.bootstrap()
    return deployment, deployment.metrics
