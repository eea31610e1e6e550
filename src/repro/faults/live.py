"""Live chaos: the chaos runner's adapter for real UDP sockets.

:func:`repro.faults.harness.run_chaos` with ``runtime="aio"`` runs the
one episode script on a loopback :class:`~repro.runtime.aio.AioOverlay`
(real datagrams, real wall-clock timers, the reliability channel
underneath) through :class:`AioAdapter`, and checks the same invariants
I1-I5 as on the simulator. This module holds only what differs on real
sockets:

* loopback-scaled protocol, gossip and reliability timings, and
  :data:`LIVE_DEFAULTS`, the run's windows in wall-clock seconds rather
  than simulated minutes;
* the scenario builders whose fault delays are loopback-scale
  (fractions of a second, not the WAN's multiples of it), installed
  through the overlay's :class:`~repro.runtime.aio.FaultyTransport`;
* :class:`Supervisor`, which kills hosts' sockets mid-run and restarts
  them under the same identity — the live analogue of
  :class:`~repro.sim.churn.CrashRestartChurn`;
* the drain: beyond node state, I2 on live sockets requires every
  reliability channel to end with no unacked outbound message and no
  reassembly buffer once the reassembly TTL has passed.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional, Set

from repro.core.descriptors import Address
from repro.core.health import HealthConfig
from repro.core.node import NodeConfig
from repro.core.observer import FanoutObserver
from repro.experiments.config import ExperimentConfig
from repro.faults.harness import ChaosConfig
from repro.faults.model import (
    DuplicateFault,
    FaultSchedule,
    GilbertElliottFault,
    LatencySpikeFault,
    StragglerFault,
)
from repro.faults.scenarios import (
    ActiveScenario,
    Builder,
    _build_burst_loss,
    _build_partition,
)
from repro.gossip.maintenance import GossipConfig
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import TraceRecorder
from repro.runtime.aio import AioOverlay
from repro.runtime.reliable import ReliableConfig
from repro.workloads.distributions import uniform_sampler

#: Wall-clock defaults for ``run_chaos(..., runtime="aio")``.
LIVE_DEFAULTS = ChaosConfig(
    size=48,
    query_interval=0.25,
    # Bootstrap installs converged tables; gossip runs from the start.
    warmup=0.0,
    pre=2.0,
    hold=6.0,
    recovery=3.0,
    # Deadline for all queries and channels to settle before the I2 sweep.
    drain_grace=12.0,
    sweep_pre=1.0,
    sweep_hold=3.0,
    sweep_recovery=1.0,
    monotonic_slack=0.15,
)


def live_node_config(static: bool = False) -> NodeConfig:
    """Loopback-scaled protocol timing (sim timings assume WAN latency)."""
    return NodeConfig(
        query_timeout=6.0,
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


#: Loopback-scaled gossip periods (Table 1 runs in tens of seconds).
LIVE_GOSSIP = GossipConfig(period=0.5, answer_timeout=1.0)

#: Ack/retransmit on: the chaos episodes exercise the full layer.
LIVE_RELIABLE = ReliableConfig(
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
        alive = self.overlay.alive_hosts()
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

# The builders below differ from their simulated namesakes only in delay
# and churn constants, which are loopback-scale here.


def _live_latency_spike(overlay, severity, now, heal_at, rng):
    fault = LatencySpikeFault(
        extra=0.8 * severity, jitter=0.5 * severity, start=now, end=heal_at
    )
    return FaultSchedule().add(fault), [], None


def _live_stragglers(overlay, severity, now, heal_at, rng):
    alive = [host.address for host in overlay.alive_hosts()]
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


LIVE_BUILDERS: Dict[str, Builder] = {
    # Scale-free: the simulated builders run unchanged on live sockets.
    "burst-loss": _build_burst_loss,
    "partition-50": _build_partition,
    "latency-spike": _live_latency_spike,
    "stragglers": _live_stragglers,
    "duplicate-storm": _live_duplicate_storm,
    "crash-restart": _live_crash_restart,
    "wan-degraded": _live_wan_degraded,
}


def live_scenario_names() -> List[str]:
    """Sorted names of the scenarios the live runtime supports."""
    return sorted(LIVE_BUILDERS)


class AioAdapter:
    """The episode script's view of a loopback UDP overlay."""

    defaults = LIVE_DEFAULTS
    scenarios = LIVE_BUILDERS
    quiescent = "all reliability channels empty"
    stream = "live"

    def __init__(self, overlay: AioOverlay):
        self.overlay = overlay
        #: Set by :meth:`apply`, which the script calls before the drain.
        self.active: Optional[ActiveScenario] = None

    @classmethod
    async def open(
        cls,
        config: ChaosConfig,
        session: Telemetry,
        tracer: TraceRecorder,
        static: bool,
    ) -> "AioAdapter":
        """Bind *config.size* sockets, install tables, start gossip."""
        schema = ExperimentConfig(
            network_size=config.size, seed=config.seed
        ).schema()
        overlay = AioOverlay(
            schema,
            seed=config.seed,
            node_config=live_node_config(static=static),
            gossip_config=LIVE_GOSSIP,
            observer=FanoutObserver(session.collector, tracer),
            registry=session.registry,
            reliable=LIVE_RELIABLE,
        )
        adapter = cls(overlay)
        try:
            tracer.bind_clock(overlay.loop.time)
            await overlay.populate(uniform_sampler(schema), config.size)
            overlay.bootstrap()
            overlay.start_gossip()
            await adapter.wait_until(adapter.now() + config.warmup)
        except BaseException:
            await overlay.close()
            raise
        return adapter

    def now(self) -> float:
        """The event loop's clock."""
        return self.overlay.loop.time()

    async def wait_until(self, time: float) -> None:
        """Sleep until the loop clock reaches *time*."""
        await asyncio.sleep(max(0.0, time - self.now()))

    def apply(self, scenario, severity, heal_at, rng) -> ActiveScenario:
        """Start *scenario*'s live builder; faults go through the sockets."""
        schedule, drivers, origins = LIVE_BUILDERS[scenario](
            self.overlay, severity, self.now(), heal_at, rng
        )
        if schedule is not None:
            self.overlay.install_faults(schedule, rng)
        self.active = ActiveScenario(
            name=scenario,
            severity=severity,
            clear_faults=self.overlay.clear_faults,
            schedule=schedule,
            drivers=drivers,
            preferred_origins=origins,
        )
        return self.active

    def crashed(self) -> Set[Address]:
        """Every host a :class:`Supervisor` crashed at least once."""
        crashed: Set[Address] = set()
        for driver in self.active.drivers:
            crashed |= getattr(driver, "ever_crashed", set())
        return crashed

    async def drain(self, grace: float) -> List[str]:
        """Settle the overlay, then sweep the reliability channels.

        Restarts every supervised host still down, waits (bounded by
        *grace*) until every live node's pending table and every
        channel's outbound table is empty, stops gossip, and lets the
        reassembly TTL elapse before inspecting channel state that must
        not outlive its traffic.
        """
        for driver in self.active.drivers:
            drain = getattr(driver, "drain", None)
            if drain is not None:
                await drain()
        overlay = self.overlay

        def quiet() -> bool:
            # An origin's pending entry lives until its query completes (a
            # restart wipes it, and the origin counts as crashed);
            # intermediate nodes hold branch state until their failure
            # timers fire, and channels hold unacked messages until acked
            # or given up. All are timer-driven and bounded — wait them
            # out.
            return all(
                host.channel.pending_outbound == 0
                and (not host.alive or not host.node.pending)
                for host in overlay.hosts.values()
            )

        deadline = self.now() + grace
        while self.now() < deadline and not quiet():
            await asyncio.sleep(0.05)
        drained = quiet()
        for host in overlay.hosts.values():
            if host.maintenance is not None:
                host.maintenance.stop()
        # Let the reassembly TTL pass so an incomplete buffer left by
        # injected loss is (legitimately) evicted rather than reported as
        # a leak.
        await asyncio.sleep(min(overlay.reliable.reassembly_ttl + 0.2, grace))
        findings: List[str] = []
        if not drained:
            findings.append(
                "drain deadline hit with unsettled queries or channels"
            )
        outbound = 0
        buffers = 0
        buffered_bytes = 0
        for host in overlay.alive_hosts():
            host.channel.expire(self.now())
            outbound += host.channel.pending_outbound
            buffers += host.channel.pending_reassembly
            buffered_bytes += host.channel.buffered_bytes
        if outbound:
            findings.append(
                f"{outbound} unacked outbound messages after drain"
            )
        if buffers or buffered_bytes:
            findings.append(
                f"{buffers} reassembly buffers ({buffered_bytes} bytes) "
                "after TTL"
            )
        return findings

    def counters(self) -> Dict[str, int]:
        """The socket layer's datagram and injected-drop counts."""
        metrics = self.overlay.metrics
        return {
            "messages_sent": metrics.datagrams_sent.value,
            "messages_delivered": metrics.datagrams_received.value,
            "messages_lost_injected": metrics.injected_drops.value,
        }

    async def close(self) -> None:
        """Close every socket."""
        await self.overlay.close()
