"""Live chaos: the simulator's resilience invariants on real UDP sockets.

``run_live_chaos`` is the asyncio sibling of
:func:`repro.faults.harness.run_chaos`: it builds a loopback
:class:`~repro.runtime.aio.AioOverlay` (real datagrams, real wall-clock
timers, the reliability channel underneath), installs the same
severity-parameterized fault model through the overlay's
:class:`~repro.runtime.aio.FaultyTransport`, drives the identical
pre/fault/recovery query workload, and evaluates the same invariants:

I1 **termination** — every issued query completes at its origin or the
   origin demonstrably crashed while it was in flight.
I2 **no leaks** — after the drain, every live host has an empty pending
   table, no parked branches, a bounded seen-set, *and* an empty
   reliability channel: no unacked outbound message and no reassembly
   buffer survives its message.
I3 **no double counting** — injected duplicates and retransmissions
   never inflate a result set or its delivery.
I4 **monotonic degradation** — a severity ladder of fault-phase
   deliveries is non-increasing within slack.
I5 **adaptive wins** (``compare_static=True``) — the episode replayed
   with static failure timers must show at least twice the spurious
   timeouts of the adaptive stack, with no delivery regression.

Everything wall-clock is scaled to loopback: windows are seconds rather
than simulated minutes, fault delays fractions of a second rather than
the WAN's multiples of it. Crash-restart churn is driven by a
:class:`Supervisor` that kills hosts' sockets mid-run and restarts them
under the same identity — the live analogue of
:class:`~repro.sim.churn.CrashRestartChurn`.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.descriptors import Address
from repro.core.health import HealthConfig
from repro.core.node import NodeConfig
from repro.core.observer import FanoutObserver
from repro.faults.harness import (
    ChaosReport,
    InvariantResult,
    QueryRow,
    _check_adaptive,
    _check_monotonic,
    _check_no_double_counting,
    _check_termination,
    _count_spurious,
)
from repro.faults.model import (
    DuplicateFault,
    FaultSchedule,
    GilbertElliottFault,
    LatencySpikeFault,
    PartitionFault,
    StragglerFault,
)
from repro.gossip.maintenance import GossipConfig
from repro.metrics.collectors import MetricsCollector
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import TraceRecorder
from repro.runtime.aio import AioOverlay
from repro.runtime.reliable import ReliableConfig
from repro.util.rng import derive_rng
from repro.workloads.distributions import uniform_sampler
from repro.workloads.queries import aligned_selectivity_query


@dataclass(frozen=True)
class LiveChaosConfig:
    """Knobs of one live (real-socket) chaos run — wall-clock seconds."""

    size: int = 48
    seed: int = 7
    #: None = use the scenario's default severity.
    severity: Optional[float] = None
    selectivity: float = 0.125
    query_interval: float = 0.25
    #: Healthy-baseline window before the fault starts.
    pre: float = 2.0
    #: How long the fault stays active.
    hold: float = 6.0
    #: Post-heal window.
    recovery: float = 3.0
    #: Deadline for the post-episode drain (all queries settled, all
    #: channels empty) before the leak check gives up.
    drain_grace: float = 12.0
    #: Run the severity ladder backing invariant I4.
    sweep: bool = True
    sweep_pre: float = 1.0
    sweep_hold: float = 3.0
    sweep_recovery: float = 1.0
    #: Tolerated delivery *increase* between adjacent ladder severities.
    monotonic_slack: float = 0.15
    #: Replay the episode with the adaptive stack disabled (invariant I5).
    compare_static: bool = False
    #: Whole-query deadline for the live node config.
    query_timeout: float = 6.0
    #: Run gossip maintenance during the episode (crash-restart recovery
    #: depends on it; pure fault scenarios work from bootstrap tables).
    gossip: bool = True


def live_node_config(
    query_timeout: float = 6.0, static: bool = False
) -> NodeConfig:
    """Loopback-scaled protocol timing (sim timings assume WAN latency)."""
    return NodeConfig(
        query_timeout=query_timeout,
        min_timeout=0.25,
        latency_headroom=0.05,
        # Section 6.6's harsher mode, matching the simulated harness.
        retry_on_timeout=False,
        adaptive_timeouts=not static,
        hedge=not static,
        health=HealthConfig(
            rto_min=0.05,
            rto_max=2.0,
            breaker_reset=5.0,
            initial_rtt=0.02,
        ),
    )


def live_gossip_config() -> GossipConfig:
    """Loopback-scaled gossip periods (Table 1 runs in tens of seconds)."""
    return GossipConfig(period=0.5, answer_timeout=1.0)


def live_reliable_config() -> ReliableConfig:
    """Ack/retransmit on: the chaos episodes exercise the full layer."""
    return ReliableConfig(
        ack=True,
        max_retries=4,
        initial_rtt=0.02,
        rto_min=0.05,
        rto_max=1.0,
        reassembly_ttl=1.0,
    )


class Supervisor:
    """Crash-restart churn for a live overlay (socket-level kills).

    Every *interval* seconds one random live host crashes — its socket
    closes mid-run, timers die with the incarnation bump — and is
    restarted *downtime* seconds later under the same identity on a
    fresh port. ``stop()`` halts the killing; :meth:`drain` restarts
    every still-crashed host and waits for the rejoins to finish.
    """

    def __init__(
        self,
        overlay: AioOverlay,
        rng: random.Random,
        interval: float = 0.8,
        downtime: float = 1.2,
        kill_probability: float = 1.0,
    ) -> None:
        self.overlay = overlay
        self.rng = rng
        self.interval = interval
        self.downtime = downtime
        self.kill_probability = kill_probability
        self.crashes = 0
        self.restarts = 0
        #: Every address that crashed at least once (I1 accounting).
        self.ever_crashed: Set[Address] = set()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._tasks: Set[asyncio.Task] = set()
        self._stopped = False

    def start(self) -> None:
        """Arm the first kill tick."""
        self._timer = self.overlay.loop.call_later(self.interval, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        alive = [host for host in self.overlay.hosts.values() if host.alive]
        # Never kill the last hosts standing: the workload needs origins.
        if len(alive) > 2 and self.rng.random() < self.kill_probability:
            victim = self.rng.choice(alive)
            victim.crash()
            self.crashes += 1
            self.ever_crashed.add(victim.address)
            self.overlay.loop.call_later(
                self.downtime, self._restart_later, victim
            )
        self._timer = self.overlay.loop.call_later(self.interval, self._tick)

    def _restart_later(self, host) -> None:
        task = self.overlay.loop.create_task(host.restart())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        task.add_done_callback(lambda _: self._count_restart())

    def _count_restart(self) -> None:
        self.restarts += 1

    def stop(self) -> None:
        """Stop killing (pending restarts still run; see :meth:`drain`)."""
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    async def drain(self) -> None:
        """Restart every still-crashed host and await all rejoins."""
        self.stop()
        for host in self.overlay.hosts.values():
            if not host.alive:
                self._restart_later(host)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)


# -- live scenario builders ----------------------------------------------------------

#: A live builder receives (overlay, severity, now, heal_at, rng) and
#: returns (schedule or None, drivers, preferred origins or None). Fault
#: delays are loopback-scaled: fractions of a second, not the WAN's
#: multiples of it.
LiveBuilder = Callable[
    [AioOverlay, float, float, Optional[float], random.Random],
    Tuple[Optional[FaultSchedule], List[object], Optional[Set[Address]]],
]


def _live_burst_loss(overlay, severity, now, heal_at, rng):
    fault = GilbertElliottFault(
        p_enter_burst=0.01 + 0.12 * severity,
        p_exit_burst=0.25,
        loss_good=0.0,
        loss_bad=1.0,
        start=now,
        end=heal_at,
    )
    return FaultSchedule().add(fault), [], None


def _live_latency_spike(overlay, severity, now, heal_at, rng):
    fault = LatencySpikeFault(
        extra=0.8 * severity, jitter=0.5 * severity, start=now, end=heal_at
    )
    return FaultSchedule().add(fault), [], None


def _live_partition(overlay, severity, now, heal_at, rng):
    alive = sorted(
        host.address for host in overlay.hosts.values() if host.alive
    )
    count = int(round(len(alive) * severity))
    island = set(rng.sample(alive, min(count, len(alive))))
    groups = {address: (1 if address in island else 0) for address in alive}
    fault = PartitionFault(groups, start=now, heal_at=heal_at)
    mainland = {address for address in alive if address not in island}
    return FaultSchedule().add(fault), [], mainland or None


def _live_stragglers(overlay, severity, now, heal_at, rng):
    alive = [host.address for host in overlay.hosts.values() if host.alive]
    count = max(1, int(round(len(alive) * severity)))
    nodes = rng.sample(alive, min(count, len(alive)))
    fault = StragglerFault(
        nodes, extra=0.4, jitter=0.25, start=now, end=heal_at
    )
    return FaultSchedule().add(fault), [], None


def _live_duplicate_storm(overlay, severity, now, heal_at, rng):
    schedule = FaultSchedule()
    schedule.add(
        DuplicateFault(
            rate=min(1.0, severity), delay_spread=0.05, start=now, end=heal_at
        )
    )
    schedule.add(
        LatencySpikeFault(extra=0.0, jitter=0.02, start=now, end=heal_at)
    )
    return schedule, [], None


def _live_crash_restart(overlay, severity, now, heal_at, rng):
    supervisor = Supervisor(
        overlay,
        rng,
        interval=max(0.25, 0.8 * (1.0 - severity) + 0.2),
        downtime=1.2,
        kill_probability=min(1.0, 0.5 + severity),
    )
    supervisor.start()
    return None, [supervisor], None


def _live_wan_degraded(overlay, severity, now, heal_at, rng):
    schedule = FaultSchedule()
    schedule.add(
        LatencySpikeFault(
            extra=0.2 * severity, jitter=0.15 * severity,
            start=now, end=heal_at,
        )
    )
    schedule.add(
        GilbertElliottFault(
            p_enter_burst=0.02 * severity,
            p_exit_burst=0.4,
            start=now,
            end=heal_at,
        )
    )
    return schedule, [], None


LIVE_BUILDERS: Dict[str, LiveBuilder] = {
    "burst-loss": _live_burst_loss,
    "latency-spike": _live_latency_spike,
    "partition-50": _live_partition,
    "stragglers": _live_stragglers,
    "duplicate-storm": _live_duplicate_storm,
    "crash-restart": _live_crash_restart,
    "wan-degraded": _live_wan_degraded,
}


def live_scenario_names() -> List[str]:
    """Sorted names of the scenarios the live runtime supports."""
    return sorted(LIVE_BUILDERS)


@dataclass
class _LiveEpisode:
    """Raw artefacts of one live chaos episode."""

    metrics: MetricsCollector
    tracer: TraceRecorder
    registry: MetricsRegistry
    rows: List[QueryRow]
    crashed: Set[Address]
    schedule: Optional[FaultSchedule]
    drivers: List[object]
    leaks: List[str]
    drained: bool
    counters: Dict[str, int] = field(default_factory=dict)


async def _issue_queries(
    overlay: AioOverlay,
    phase: str,
    duration: float,
    config: LiveChaosConfig,
    rng: random.Random,
    issued: List[dict],
    registry: MetricsRegistry,
    origins: Optional[Set[Address]] = None,
) -> None:
    """Fire one query every ``query_interval`` seconds for *duration*."""
    queries = registry.counter("chaos.queries_issued")
    loop = overlay.loop
    end = loop.time() + duration
    while loop.time() < end:
        alive = [host for host in overlay.hosts.values() if host.alive]
        if origins:
            preferred = [host for host in alive if host.address in origins]
            alive = preferred or alive
        if not alive:
            break
        query = aligned_selectivity_query(
            overlay.schema, config.selectivity, rng
        )
        expected = {
            descriptor.address
            for descriptor in overlay.matching_descriptors(query)
        }
        origin = rng.choice(alive)
        query_id = origin.issue_query(query)  # no sigma: measure spread
        queries.inc()
        issued.append(
            {
                "time": loop.time(),
                "phase": phase,
                "query_id": query_id,
                "origin": origin.address,
                "expected": expected,
            }
        )
        await asyncio.sleep(config.query_interval)


async def _drain_live(
    overlay: AioOverlay,
    collector: MetricsCollector,
    issued: List[dict],
    crashed: Set[Address],
    grace: float,
) -> Tuple[bool, List[str]]:
    """Settle the overlay and sweep it for leaks.

    Waits (bounded by *grace*) for every issued query to complete —
    crashed origins excepted — and for every reliability channel to
    clear its outbound table, then stops gossip, lets the reassembly TTL
    elapse, and inspects all per-host state that must not outlive its
    traffic.
    """

    def settled() -> bool:
        for item in issued:
            record = collector.records.get(item["query_id"])
            if record is not None and record.completed:
                continue
            if item["origin"] in crashed:
                continue
            return False
        # Origins completing is not enough: intermediate nodes hold
        # pending branch state until their failure timers fire, and the
        # reliability channels hold unacked messages until acked or
        # given up. Both are timer-driven and bounded — wait them out.
        return all(
            host.channel.pending_outbound == 0
            and (not host.alive or not host.node.pending)
            for host in overlay.hosts.values()
        )

    loop = overlay.loop
    deadline = loop.time() + grace
    while loop.time() < deadline and not settled():
        await asyncio.sleep(0.05)
    drained = settled()
    for host in overlay.hosts.values():
        if host.maintenance is not None:
            host.maintenance.stop()
    # Let the reassembly TTL pass so an incomplete buffer left by injected
    # loss is (legitimately) evicted rather than reported as a leak.
    ttl = overlay.reliable.reassembly_ttl
    await asyncio.sleep(min(ttl + 0.2, grace))
    leaks: List[str] = []
    if not drained:
        leaks.append("drain deadline hit with unsettled queries or channels")
    pending_nodes = 0
    parked = 0
    oversize_seen = 0
    outbound = 0
    buffers = 0
    buffered_bytes = 0
    for host in overlay.hosts.values():
        if not host.alive:
            continue
        node = host.node
        if node.pending:
            pending_nodes += 1
        parked += sum(
            state.deferred + len(state.defer_timers)
            for state in node.pending.values()
        )
        if len(node._seen) > node.config.seen_history:
            oversize_seen += 1
        host.channel.expire(loop.time())
        outbound += host.channel.pending_outbound
        buffers += host.channel.pending_reassembly
        buffered_bytes += host.channel.buffered_bytes
    if pending_nodes:
        leaks.append(f"{pending_nodes} nodes with non-empty pending tables")
    if parked:
        leaks.append(f"{parked} parked branches / defer timers")
    if oversize_seen:
        leaks.append(f"{oversize_seen} nodes with oversize seen-sets")
    if outbound:
        leaks.append(f"{outbound} unacked outbound messages after drain")
    if buffers or buffered_bytes:
        leaks.append(
            f"{buffers} reassembly buffers ({buffered_bytes} bytes) "
            "after TTL"
        )
    return drained, leaks


async def _run_live_episode(
    scenario: str,
    severity: float,
    config: LiveChaosConfig,
    pre: float,
    hold: float,
    recovery: float,
    seed_salt: str = "main",
    static: bool = False,
) -> _LiveEpisode:
    """Build a loopback overlay, run the three phases, drain, measure."""
    builder = LIVE_BUILDERS.get(scenario)
    if builder is None:
        raise ValueError(
            f"scenario {scenario!r} has no live builder; live scenarios: "
            + ", ".join(live_scenario_names())
        )
    from repro.experiments.config import ExperimentConfig

    experiment = ExperimentConfig(network_size=config.size, seed=config.seed)
    registry = MetricsRegistry()
    collector = MetricsCollector()
    tracer = TraceRecorder()
    observer = FanoutObserver(collector, tracer)
    node_config = live_node_config(config.query_timeout, static=static)
    async with AioOverlay(
        experiment.schema(),
        seed=config.seed,
        node_config=node_config,
        gossip_config=live_gossip_config() if config.gossip else None,
        observer=observer,
        registry=registry,
        reliable=live_reliable_config(),
    ) as overlay:
        tracer.bind_clock(overlay.loop.time)
        await overlay.populate(
            uniform_sampler(experiment.schema()), config.size
        )
        overlay.bootstrap()
        if config.gossip:
            overlay.start_gossip()

        workload_rng = derive_rng(config.seed, f"live-workload:{seed_salt}")
        fault_rng = derive_rng(config.seed, f"live-faults:{seed_salt}")
        issued: List[dict] = []

        await _issue_queries(
            overlay, "pre", pre, config, workload_rng, issued, registry
        )
        now = overlay.loop.time()
        schedule, drivers, origins = builder(
            overlay, severity, now, now + hold, fault_rng
        )
        if schedule is not None:
            overlay.install_faults(schedule, fault_rng)
        await _issue_queries(
            overlay, "fault", hold, config, workload_rng, issued, registry,
            origins=origins,
        )
        overlay.clear_faults()
        for driver in drivers:
            stop = getattr(driver, "stop", None)
            if stop is not None:
                stop()
        await _issue_queries(
            overlay, "recovery", recovery, config, workload_rng, issued,
            registry,
        )
        for driver in drivers:
            drain = getattr(driver, "drain", None)
            if drain is not None:
                await drain()
        crashed: Set[Address] = set()
        for driver in drivers:
            crashed |= getattr(driver, "ever_crashed", set())
        drained, leaks = await _drain_live(
            overlay, collector, issued, crashed, config.drain_grace
        )

        delivery_metric = registry.histogram("chaos.delivery")
        rows: List[QueryRow] = []
        for item in issued:
            query_id = item["query_id"]
            expected = item["expected"]
            record = collector.records.get(query_id)
            delivery = record.delivery(expected) if record else 0.0
            delivery_metric.observe(delivery)
            rows.append(
                QueryRow(
                    time=item["time"],
                    phase=item["phase"],
                    query_id=query_id,
                    origin=item["origin"],
                    expected=len(expected),
                    delivery=delivery,
                    completed=bool(record and record.completed),
                    origin_crashed=item["origin"] in crashed,
                )
            )
        counters: Dict[str, int] = {
            "datagrams_sent": overlay.metrics.datagrams_sent.value,
            "datagrams_received": overlay.metrics.datagrams_received.value,
            "frames_rejected": overlay.metrics.frames_rejected.value,
            "crashed_hosts": len(crashed),
        }
        return _LiveEpisode(
            metrics=collector,
            tracer=tracer,
            registry=registry,
            rows=rows,
            crashed=crashed,
            schedule=schedule,
            drivers=drivers,
            leaks=leaks,
            drained=drained,
            counters=counters,
        )


def _check_no_leaks_live(episode: _LiveEpisode) -> InvariantResult:
    """I2 on live state: node tables, defer timers, and channel buffers."""
    if episode.leaks:
        return InvariantResult("no-leaks", False, "; ".join(episode.leaks))
    return InvariantResult(
        "no-leaks",
        True,
        "all pending tables empty, no defer timers, all reliability "
        "channels empty after drain",
    )


def run_live_chaos(
    scenario: str, config: Optional[LiveChaosConfig] = None
) -> ChaosReport:
    """Run *scenario* on a loopback UDP overlay and check the invariants.

    The synchronous entry point (it owns the event loop); the ``repro
    chaos --runtime aio`` CLI is a thin wrapper. Returns the same
    :class:`~repro.faults.harness.ChaosReport` shape as the simulated
    harness, so reporting and the ``--json`` export are shared.
    """
    config = config or LiveChaosConfig()
    from repro.faults.scenarios import SCENARIOS

    if scenario in SCENARIOS and config.severity is None:
        severity = SCENARIOS[scenario].default_severity
    else:
        severity = config.severity if config.severity is not None else 0.5
    if not 0.0 < severity <= 1.0:
        raise ValueError(f"severity must be in (0, 1], got {severity}")
    sweep_steps: Tuple[float, ...] = (
        SCENARIOS[scenario].sweep if scenario in SCENARIOS else (0.2, 0.5, 0.8)
    )

    async def _run() -> ChaosReport:
        episode = await _run_live_episode(
            scenario, severity, config, config.pre, config.hold,
            config.recovery,
        )
        baseline: Optional[_LiveEpisode] = None
        if config.compare_static:
            baseline = await _run_live_episode(
                scenario, severity, config, config.pre, config.hold,
                config.recovery, static=True,
            )
        ladder: List[Tuple[float, float]] = []
        if config.sweep:
            for step in sweep_steps:
                sweep_episode = await _run_live_episode(
                    scenario, step, config, config.sweep_pre,
                    config.sweep_hold, config.sweep_recovery,
                    seed_salt=f"sweep:{step:g}",
                )
                fault_rows = [
                    row for row in sweep_episode.rows if row.phase == "fault"
                ]
                delivery = (
                    sum(row.delivery for row in fault_rows) / len(fault_rows)
                    if fault_rows
                    else 0.0
                )
                ladder.append((step, delivery))

        shim = SimpleNamespace(
            metrics=episode.metrics,
            rows=episode.rows,
            active=SimpleNamespace(
                injected_duplicates=(
                    episode.schedule.injected_duplicates
                    if episode.schedule
                    else 0
                )
            ),
        )
        invariants = [
            _check_termination(episode),
            _check_no_leaks_live(episode),
            _check_no_double_counting(shim),
            _check_monotonic(ladder, config.monotonic_slack),
        ]
        if baseline is not None:
            invariants.append(_check_adaptive(episode, baseline))

        counters: Dict[str, int] = {
            "spurious_timeouts": _count_spurious(episode.tracer),
            "messages_sent": episode.counters["datagrams_sent"],
            "messages_delivered": episode.counters["datagrams_received"],
            "crashed_hosts": episode.counters["crashed_hosts"],
        }
        if episode.schedule is not None:
            counters["injected_drops"] = episode.schedule.injected_drops
            counters["injected_duplicates"] = (
                episode.schedule.injected_duplicates
            )
            counters["injected_delays"] = episode.schedule.delayed
            counters["messages_lost_injected"] = (
                episode.schedule.injected_drops
            )
        for driver in episode.drivers:
            for attribute in ("crashes", "restarts"):
                value = getattr(driver, attribute, None)
                if value is not None:
                    counters[attribute] = value
        if baseline is not None:
            counters["spurious_timeouts_static"] = _count_spurious(
                baseline.tracer
            )
        return ChaosReport(
            scenario=scenario,
            severity=severity,
            seed=config.seed,
            size=config.size,
            rows=episode.rows,
            invariants=invariants,
            counters=counters,
            metrics=episode.registry.snapshot(),
            sweep_deliveries=ladder,
        )

    return asyncio.run(_run())
