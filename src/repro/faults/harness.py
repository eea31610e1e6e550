"""Resilience harness: run a query workload under a chaos scenario.

``run_chaos`` builds a gossiping overlay, lets it converge, then drives
a periodic query workload through three phases — *pre* (healthy baseline),
*fault* (the named scenario active) and *recovery* (after healing) — and
finally drains the overlay to quiescence. One episode script does this on
either runtime through a small adapter: :class:`SimAdapter` over a
simulated deployment, or :class:`repro.faults.live.AioAdapter` over a
loopback UDP overlay. On the way it checks the resilience invariants,
with evidence gathered through the observability stack
(:class:`~repro.obs.tracer.TraceRecorder`,
:class:`~repro.obs.registry.MetricsRegistry`,
:class:`~repro.metrics.collectors.MetricsCollector`):

I1 **termination** — every issued query either completes at its origin or
   is accounted for (the origin crashed while it was in flight). Nothing
   hangs silently.
I2 **no leaks** — after the drain, every live node has an empty pending
   table, no parked branches, a bounded seen-set, and the runtime is
   idle (the simulator's event queue is empty; live reliability channels
   hold no unacked message or reassembly buffer): no timer or state
   survives its query.
I3 **no double counting** — duplicate deliveries (injected or organic)
   never inflate a result: candidate sets contain each node at most once,
   every reported match actually received the query, and delivery never
   exceeds 1.0.
I4 **monotonic degradation** — re-running the fault phase across a ladder
   of severities, mean delivery does not *increase* with severity (within
   a slack for workload noise): the system degrades gracefully instead of
   falling off a cliff at some severity.
I5 **adaptive failure detection** (``compare_static=True`` only) — the
   whole episode is replayed with the adaptive machinery disabled
   (static failure timers, no hedging, static gossip answer timeouts)
   under the identical workload and fault stream. The adaptive run must
   cut spurious timeouts — timeouts contradicted by a reply the presumed
   dead neighbor actually sent — by at least half, without regressing
   mean delivery by more than five points. This is the invariant that
   makes slow-but-alive (latency spikes, stragglers) distinguishable
   from dead.

The ``repro chaos`` CLI subcommand is a thin wrapper over this module.
"""

from __future__ import annotations

import asyncio
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.descriptors import Address
from repro.core.messages import QueryId
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import build_deployment
from repro.experiments.timeline import issue_probe
from repro.faults.scenarios import SCENARIOS, ActiveScenario, apply_scenario
from repro.metrics.collectors import MetricsCollector
from repro.obs import events as ev
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import TraceRecorder
from repro.sim.deployment import Deployment
from repro.util.rng import derive_rng

#: Bound on drain passes: each pass stops every maintenance stack and runs
#: the simulator dry; restarts landing mid-pass re-arm gossip, so we sweep
#: until truly idle (two passes in practice).
_MAX_DRAIN_PASSES = 5
_DRAIN_EVENT_BUDGET = 5_000_000


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one chaos run (scenario specs may override some).

    Times are in the runtime's seconds: simulated for ``sim`` (these
    defaults), wall-clock for ``aio`` (see
    :data:`repro.faults.live.LIVE_DEFAULTS`).
    """

    size: int = 256
    seed: int = 7
    #: None = use the scenario's default severity.
    severity: Optional[float] = None
    testbed: str = "peersim"
    selectivity: float = 0.125
    query_interval: float = 30.0
    #: Gossip convergence time before any measurement.
    warmup: float = 240.0
    #: Healthy-baseline window before the fault starts.
    pre: float = 90.0
    #: How long the fault stays active.
    hold: float = 300.0
    #: Post-heal window (the paper's recovery measurements live here).
    recovery: float = 600.0
    #: Extra settle time before the leak check.
    drain_grace: float = 60.0
    #: Run the severity ladder backing invariant I4.
    sweep: bool = True
    #: Shorter windows for the ladder runs (they only need fault-phase
    #: delivery, not the full recovery tail).
    sweep_pre: float = 60.0
    sweep_hold: float = 180.0
    sweep_recovery: float = 120.0
    #: Tolerated delivery *increase* between adjacent ladder severities.
    monotonic_slack: float = 0.12
    #: Replay the main episode with static timers / no hedging / static
    #: gossip answer timeouts and check invariant I5 against it.
    compare_static: bool = False


@dataclass
class QueryRow:
    """One workload query: issue-time context plus measured outcome."""

    time: float
    phase: str
    query_id: QueryId
    origin: Address
    expected: int
    delivery: float
    completed: bool
    origin_crashed: bool


def _mean_delivery(rows: Sequence[QueryRow]) -> float:
    return sum(row.delivery for row in rows) / len(rows) if rows else 0.0


@dataclass
class InvariantResult:
    """Verdict for one resilience invariant."""

    name: str
    passed: bool
    detail: str


@dataclass
class ChaosReport:
    """Everything ``run_chaos`` measured and concluded."""

    scenario: str
    severity: float
    seed: int
    size: int
    rows: List[QueryRow]
    invariants: List[InvariantResult]
    #: Network/fault-layer accounting (messages_lost vs dropped_dead etc).
    counters: Dict[str, int]
    #: Snapshot of the shared metrics registry (gossip + chaos series).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: (severity, mean fault-phase delivery) pairs from the I4 ladder.
    sweep_deliveries: List[Tuple[float, float]] = field(default_factory=list)
    #: Sampled telemetry timeline rows (one dict per sample instant).
    timeline: List[Dict[str, object]] = field(default_factory=list)
    #: Fault-phase boundaries: (time, label) — fault start and heal.
    annotations: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every invariant passed."""
        return all(result.passed for result in self.invariants)

    def mean_delivery(self, phase: Optional[str] = None) -> float:
        """Mean delivery over all rows, or over one phase's rows."""
        return _mean_delivery(
            [row for row in self.rows if phase is None or row.phase == phase]
        )

    def summary_lines(self) -> List[str]:
        """Human-readable report for the CLI."""
        lines = [
            f"scenario {self.scenario} severity={self.severity:g} "
            f"size={self.size} seed={self.seed}",
            "phase deliveries: "
            + "  ".join(
                f"{phase}={self.mean_delivery(phase):.3f}"
                for phase in ("pre", "fault", "recovery")
            ),
        ]
        # Runtimes measure different counters: print only those held.
        for key in (
            "messages_sent",
            "messages_lost",
            "messages_lost_injected",
            "messages_dropped_dead",
            "messages_duplicated",
            "spurious_timeouts",
        ):
            if key in self.counters:
                lines.append(f"  {key}: {self.counters[key]}")
        if "spurious_timeouts_static" in self.counters:
            static = self.counters["spurious_timeouts_static"]
            adaptive = self.counters.get("spurious_timeouts", 0)
            saved = static - adaptive
            percent = (100.0 * saved / static) if static else 0.0
            lines.append(
                f"  spurious_timeouts_static: {static} "
                f"(adaptive saves {saved}, {percent:.0f}%)"
            )
        if self.sweep_deliveries:
            ladder = "  ".join(
                f"s={severity:g}:{delivery:.3f}"
                for severity, delivery in self.sweep_deliveries
            )
            lines.append(f"severity ladder: {ladder}")
        for result in self.invariants:
            status = "PASS" if result.passed else "FAIL"
            lines.append(f"[{status}] {result.name}: {result.detail}")
        return lines


@dataclass
class _Episode:
    """Raw artefacts of one chaos episode, whatever the runtime."""

    metrics: MetricsCollector
    tracer: TraceRecorder
    registry: MetricsRegistry
    rows: List[QueryRow]
    crashed: Set[Address]
    active: ActiveScenario
    #: I2 findings: the runtime's drain findings, then the node sweep's.
    leaks: List[str]
    #: What a clean drain left empty, for the I2 readout.
    quiescent: str
    #: The runtime's message counters (``messages_*``).
    counters: Dict[str, int]
    timeline: List[dict] = field(default_factory=list)
    annotations: List[Tuple[float, str]] = field(default_factory=list)


def _drain(deployment: Deployment, grace: float) -> Tuple[bool, int]:
    """Run the deployment to quiescence; returns (drained, leftover).

    Stops every gossip stack and churn-free periodic source, then runs the
    event queue dry. Crash-restart scenarios can re-arm maintenance from a
    restart event that was still in flight, so the stop-and-run sweep
    repeats until the queue is genuinely empty.
    """
    deployment.run(grace)
    for _ in range(_MAX_DRAIN_PASSES):
        for host in deployment.hosts.values():
            if host.maintenance is not None:
                host.maintenance.stop()
        deployment.simulator.run_until_idle(max_events=_DRAIN_EVENT_BUDGET)
        if deployment.simulator.pending_events == 0:
            return True, 0
    return False, deployment.simulator.pending_events


class SimAdapter:
    """The episode script's view of a simulated, gossiping deployment.

    Every adapter offers the same members. Class attributes: ``defaults``
    (the runtime's :class:`ChaosConfig`), ``scenarios`` (the names it can
    build), ``quiescent`` (what a clean drain empties, for I2) and
    ``stream`` (the prefix of its seeded workload and fault RNG streams,
    so a seed draws the same episode on a runtime as it always has).
    ``await open(config, session, tracer, static)`` builds and warms the
    overlay around the session's collector and *tracer*; ``overlay`` then
    gives ``schema``, ``alive_hosts()`` and ``matching_descriptors()``.
    ``now()`` and ``await wait_until(t)`` run on the runtime's clock.
    ``apply()`` starts a scenario (its :meth:`ActiveScenario.stop`
    heals), ``crashed()`` names crashed origins, ``await drain(grace)``
    returns I2 findings beyond the node sweep, ``counters()`` the
    runtime's message counters, and ``await close()`` tears down.
    """

    defaults = ChaosConfig()
    scenarios = SCENARIOS
    quiescent = "event queue empty"
    stream = "chaos"

    def __init__(self, deployment: Deployment):
        self.overlay = deployment
        self._crashed: Set[Address] = set()
        for host in deployment.hosts.values():
            host.watch(self._watch)

    @classmethod
    async def open(
        cls,
        config: ChaosConfig,
        session: Telemetry,
        tracer: TraceRecorder,
        static: bool,
    ) -> "SimAdapter":
        """Build the deployment and converge it for ``config.warmup``."""
        experiment = ExperimentConfig(
            network_size=config.size, seed=config.seed, testbed=config.testbed
        )
        node_config = None
        if static:
            node_config = dataclasses.replace(
                experiment.node_config(retry_on_timeout=False),
                adaptive_timeouts=False,
                hedge=False,
            )
        deployment, _ = build_deployment(
            experiment,
            gossip=True,
            # Section 6.6 measures delivery with retries disabled; the chaos
            # invariants must hold in that harsher mode too.
            retry_on_timeout=False,
            warmup=config.warmup,
            node_config=node_config,
            extra_observers=(tracer,),
            telemetry=session,
        )
        tracer.bind_clock(lambda: deployment.simulator.now)
        session.install_standard_series(network=deployment.network)
        session.attach(deployment.simulator)
        return cls(deployment)

    def _watch(self, host, event: str) -> None:
        if event == "fail":
            self._crashed.add(host.address)

    def now(self) -> float:
        """Simulated time."""
        return self.overlay.simulator.now

    async def wait_until(self, time: float) -> None:
        """Run the simulator up to *time*."""
        self.overlay.simulator.run(until=time)

    def apply(self, scenario, severity, heal_at, rng) -> ActiveScenario:
        """Start *scenario* on the deployment (see :func:`apply_scenario`)."""
        return apply_scenario(
            self.overlay, scenario, severity=severity, heal_at=heal_at,
            rng=rng,
        )

    def crashed(self) -> Set[Address]:
        """Every host that failed during the episode."""
        return self._crashed

    async def drain(self, grace: float) -> List[str]:
        """Run the event queue dry."""
        drained, leftover = _drain(self.overlay, grace)
        if drained:
            return []
        return [f"simulator not drained ({leftover} events left)"]

    def counters(self) -> Dict[str, int]:
        """The simulated network's message accounting."""
        network = self.overlay.network
        return {
            "messages_sent": network.messages_sent,
            "messages_delivered": network.messages_delivered,
            "messages_lost": network.messages_lost,
            "messages_lost_injected": network.messages_lost_injected,
            "messages_dropped_dead": network.messages_dropped_dead,
            "messages_duplicated": network.messages_duplicated,
        }

    async def close(self) -> None:
        """Nothing to release: the deployment holds no OS resources."""


def adapter_for(runtime: str):
    """The adapter class for *runtime* (``sim`` or ``aio``)."""
    if runtime == "sim":
        return SimAdapter
    if runtime == "aio":
        from repro.faults.live import AioAdapter

        return AioAdapter
    raise ValueError(f"unknown runtime {runtime!r} (sim or aio)")


def unknown_scenario(scenario: str, runtime: str) -> str:
    """The error message for a scenario *runtime* cannot build."""
    return (
        f"unknown scenario {scenario!r} for the {runtime} runtime; choose "
        "from: " + ", ".join(sorted(adapter_for(runtime).scenarios))
    )


async def _issue_queries(
    adapter,
    session: Telemetry,
    phase: str,
    start: float,
    duration: float,
    config: ChaosConfig,
    rng,
    issued: List[dict],
    origins: Optional[Set[Address]] = None,
) -> None:
    """Fire-and-forget one query every ``query_interval`` for *duration*.

    Issue times follow the fixed schedule ``start + k * interval`` on the
    adapter's clock. *session* learns each ``(query_id, expected)`` so
    the live delivery timeline tracks the most recent query.
    """
    queries = session.registry.counter("chaos.queries_issued")
    overlay = adapter.overlay
    time = start
    end = start + duration
    while time < end:
        await adapter.wait_until(time)
        alive = overlay.alive_hosts()
        if origins:
            preferred = [host for host in alive if host.address in origins]
            alive = preferred or alive
        if not alive:
            break
        origin, query_id, expected = issue_probe(
            overlay, alive, config.selectivity, rng
        )
        queries.inc()
        session.note_query(query_id, expected)
        issued.append(
            {
                "time": time,
                "phase": phase,
                "query_id": query_id,
                "origin": origin.address,
                "expected": expected,
            }
        )
        time += config.query_interval


def _sweep_nodes(hosts) -> List[str]:
    """I2 findings on live hosts' query state after the drain."""
    problems: List[str] = []
    pending_nodes = 0
    parked = 0
    oversize_seen = 0
    for host in hosts:
        node = host.node
        if node.pending:
            pending_nodes += 1
        parked += sum(
            len(state.defer_timers) for state in node.pending.values()
        )
        if len(node._seen) > node.config.seen_history:
            oversize_seen += 1
    if pending_nodes:
        problems.append(f"{pending_nodes} nodes with non-empty pending tables")
    if parked:
        problems.append(f"{parked} parked branches")
    if oversize_seen:
        problems.append(f"{oversize_seen} nodes with oversize seen-sets")
    return problems


async def _run_episode(
    adapter_class,
    scenario: str,
    severity: float,
    config: ChaosConfig,
    pre: float,
    hold: float,
    recovery: float,
    seed_salt: str = "main",
    static: bool = False,
) -> _Episode:
    """Build an overlay, run the three phases, drain, and measure.

    Warm-up (inside ``open``) → pre → fault → heal → recovery → drain →
    rows. With ``static=True`` the adaptive failure-detection stack is
    disabled end to end (static per-hop timers, no hedged forwards, and
    static gossip answer timeouts): the I5 baseline. The same
    ``seed_salt`` keeps workload and fault streams identical, so the two
    episodes differ only in the machinery under test.
    """
    tracer = TraceRecorder()
    session = Telemetry(sample_interval=config.query_interval)
    registry = session.registry
    adapter = await adapter_class.open(config, session, tracer, static)
    try:
        workload_rng = derive_rng(
            config.seed, f"{adapter.stream}-workload:{seed_salt}"
        )
        fault_rng = derive_rng(
            config.seed, f"{adapter.stream}-faults:{seed_salt}"
        )
        issued: List[dict] = []

        start = adapter.now()
        await _issue_queries(
            adapter, session, "pre", start, pre, config, workload_rng, issued
        )
        await adapter.wait_until(start + pre)
        fault_start = adapter.now()
        session.annotate(fault_start, f"fault:{scenario}")
        active = adapter.apply(
            scenario, severity, fault_start + hold, fault_rng
        )
        await _issue_queries(
            adapter, session, "fault", fault_start, hold, config,
            workload_rng, issued, origins=active.preferred_origins,
        )
        await adapter.wait_until(fault_start + hold)
        active.stop()
        heal_time = adapter.now()
        session.annotate(heal_time, "heal")
        await _issue_queries(
            adapter, session, "recovery", heal_time, recovery, config,
            workload_rng, issued,
        )
        await adapter.wait_until(heal_time + recovery)
        # The sampler re-arms itself forever; stop it before the drain or the
        # I2 no-leak sweep would find its tick keeping the heap alive.
        session.detach()

        leaks = await adapter.drain(config.drain_grace)
        leaks += _sweep_nodes(adapter.overlay.alive_hosts())
        crashed = adapter.crashed()
        metrics = session.collector

        delivery_metric = registry.histogram("chaos.delivery")
        rows: List[QueryRow] = []
        for item in issued:
            query_id = item["query_id"]
            expected = item["expected"]
            delivery = metrics.delivery_of(query_id, expected)
            delivery_metric.observe(delivery)
            record = metrics.records.get(query_id)
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
        return _Episode(
            metrics=metrics,
            tracer=tracer,
            registry=registry,
            rows=rows,
            crashed=crashed,
            active=active,
            leaks=leaks,
            quiescent=adapter.quiescent,
            counters=adapter.counters(),
            timeline=session.timeline(),
            annotations=list(session.recorder.annotations),
        )
    finally:
        await adapter.close()


# -- invariant checks ---------------------------------------------------------------


def _check_termination(episode: _Episode) -> InvariantResult:
    """I1: every issued query completed or its origin is accounted dead."""
    hanging = [
        row.query_id
        for row in episode.rows
        if not row.completed and not row.origin_crashed
    ]
    completed = sum(1 for row in episode.rows if row.completed)
    accounted = sum(
        1 for row in episode.rows if not row.completed and row.origin_crashed
    )
    if hanging:
        sample = ", ".join(str(query_id) for query_id in hanging[:5])
        return InvariantResult(
            "termination",
            False,
            f"{len(hanging)}/{len(episode.rows)} queries neither completed "
            f"nor accounted (e.g. {sample})",
        )
    return InvariantResult(
        "termination",
        True,
        f"{completed} completed, {accounted} accounted to crashed origins, "
        f"0 hanging of {len(episode.rows)} issued",
    )


def _check_no_leaks(episode: _Episode) -> InvariantResult:
    """I2: empty pending tables, no parked branches, runtime drained."""
    if episode.leaks:
        return InvariantResult("no-leaks", False, "; ".join(episode.leaks))
    return InvariantResult(
        "no-leaks",
        True,
        f"all pending tables empty, no defer timers, {episode.quiescent} "
        "after drain",
    )


def _check_no_double_counting(episode: _Episode) -> InvariantResult:
    """I3: duplicate delivery never inflates results or delivery."""
    problems: List[str] = []
    duplicates_seen = 0
    for row in episode.rows:
        record = episode.metrics.records.get(row.query_id)
        if record is None:
            continue
        duplicates_seen += record.duplicates
        if row.delivery > 1.0 + 1e-9:
            problems.append(f"{row.query_id}: delivery {row.delivery:.3f} > 1")
        if record.result is None:
            continue
        addresses = [descriptor.address for descriptor in record.result]
        if len(addresses) != len(set(addresses)):
            problems.append(f"{row.query_id}: duplicate nodes in result")
        ghosts = set(addresses) - record.received_by - {row.origin}
        if ghosts:
            problems.append(
                f"{row.query_id}: {len(ghosts)} result nodes never "
                "received the query"
            )
    if problems:
        return InvariantResult(
            "no-double-counting", False, "; ".join(problems[:5])
        )
    injected = episode.active.injected_duplicates
    return InvariantResult(
        "no-double-counting",
        True,
        f"results consistent across {len(episode.rows)} queries "
        f"({injected} duplicate copies injected, {duplicates_seen} "
        "duplicate receptions suppressed)",
    )


def _count_spurious(tracer: TraceRecorder) -> int:
    """Timeouts contradicted by a reply the timed-out neighbor sent.

    A ``TIMEOUT`` at node A about peer B is *spurious* when the same
    query's trace also holds a ``REPLY`` from B to A: B was alive and
    answered, the timer just beat the answer (or its delivery). Counting
    from the trace — rather than the protocol's own spurious-timeout
    hook — keeps the measure identical for adaptive and static episodes,
    including replies that arrive after the query already completed.
    """
    spurious = 0
    for trace in tracer.traces.values():
        replied = {
            (event.node, event.peer)
            for event in trace.events
            if event.kind == ev.REPLY
        }
        spurious += sum(
            1
            for event in trace.events
            if event.kind == ev.TIMEOUT
            and (event.peer, event.node) in replied
        )
    return spurious


def _check_adaptive(
    episode: _Episode, baseline: _Episode
) -> InvariantResult:
    """I5: adaptive detection halves spurious timeouts, delivery holds."""
    spurious = _count_spurious(episode.tracer)
    spurious_static = _count_spurious(baseline.tracer)
    delivery = _mean_delivery(episode.rows)
    delivery_static = _mean_delivery(baseline.rows)
    problems = []
    if spurious_static > 0 and spurious > 0.5 * spurious_static:
        problems.append(
            f"spurious timeouts {spurious} > 50% of static baseline "
            f"{spurious_static}"
        )
    if delivery < delivery_static - 0.05:
        problems.append(
            f"mean delivery {delivery:.3f} regressed vs static "
            f"{delivery_static:.3f}"
        )
    readout = (
        f"spurious {spurious} vs {spurious_static} static, "
        f"delivery {delivery:.3f} vs {delivery_static:.3f} static"
    )
    if problems:
        return InvariantResult(
            "adaptive-failure-detection", False, "; ".join(problems)
        )
    return InvariantResult("adaptive-failure-detection", True, readout)


def _check_monotonic(
    ladder: Sequence[Tuple[float, float]], slack: float
) -> InvariantResult:
    """I4: fault-phase delivery non-increasing along the severity ladder."""
    if len(ladder) < 2:
        return InvariantResult(
            "monotonic-degradation", True, "severity sweep skipped"
        )
    violations = [
        f"s={low:g}->{high:g}: {d_low:.3f}->{d_high:.3f}"
        for (low, d_low), (high, d_high) in zip(ladder, ladder[1:])
        if d_high > d_low + slack
    ]
    readout = "  ".join(f"s={s:g}:{d:.3f}" for s, d in ladder)
    if violations:
        return InvariantResult(
            "monotonic-degradation",
            False,
            f"delivery rose with severity ({'; '.join(violations)})",
        )
    return InvariantResult(
        "monotonic-degradation",
        True,
        f"delivery non-increasing within slack {slack:g} ({readout})",
    )


# -- entry point ---------------------------------------------------------------------


def _effective_config(scenario: str, config: ChaosConfig) -> ChaosConfig:
    """Apply the scenario's overrides to fields still at their defaults.

    Overrides are simulated seconds and compare against the simulator's
    defaults; :data:`repro.faults.live.LIVE_DEFAULTS` differs in every
    overridden field, so loopback runs keep their own windows.
    """
    spec = SCENARIOS[scenario]
    if not spec.overrides:
        return config
    defaults = ChaosConfig()
    updates = {
        name: value
        for name, value in spec.overrides.items()
        if getattr(config, name) == getattr(defaults, name)
    }
    return dataclasses.replace(config, **updates) if updates else config


def run_chaos(
    scenario: str,
    config: Optional[ChaosConfig] = None,
    runtime: str = "sim",
) -> ChaosReport:
    """Run *scenario* under *config* and evaluate the invariants.

    ``runtime="sim"`` (default) runs the episode on a simulated
    deployment; ``runtime="aio"`` runs the same script on a loopback UDP
    overlay with socket-level fault injection
    (:class:`repro.faults.live.AioAdapter`). *config* defaults to the
    runtime's own time scale (``adapter_for(runtime).defaults``). Runs
    its own event loop, so call it from synchronous code.
    """
    adapter_class = adapter_for(runtime)
    if scenario not in adapter_class.scenarios:
        raise ValueError(unknown_scenario(scenario, runtime))
    config = _effective_config(scenario, config or adapter_class.defaults)
    severity = config.severity
    if severity is None:
        severity = SCENARIOS[scenario].default_severity
    if not 0.0 < severity <= 1.0:
        raise ValueError(f"severity must be in (0, 1], got {severity}")
    return asyncio.run(_run_chaos(adapter_class, scenario, severity, config))


async def _run_chaos(
    adapter_class, scenario: str, severity: float, config: ChaosConfig
) -> ChaosReport:
    episode = await _run_episode(
        adapter_class, scenario, severity, config, config.pre, config.hold,
        config.recovery,
    )
    baseline: Optional[_Episode] = None
    if config.compare_static:
        baseline = await _run_episode(
            adapter_class, scenario, severity, config, config.pre,
            config.hold, config.recovery, static=True,
        )

    ladder: List[Tuple[float, float]] = []
    if config.sweep:
        for step in SCENARIOS[scenario].sweep:
            sweep_episode = await _run_episode(
                adapter_class, scenario, step, config, config.sweep_pre,
                config.sweep_hold, config.sweep_recovery,
                seed_salt=f"sweep:{step:g}",
            )
            fault_rows = [
                row for row in sweep_episode.rows if row.phase == "fault"
            ]
            ladder.append((step, _mean_delivery(fault_rows)))

    invariants = [
        _check_termination(episode),
        _check_no_leaks(episode),
        _check_no_double_counting(episode),
        _check_monotonic(ladder, config.monotonic_slack),
    ]
    if baseline is not None:
        invariants.append(_check_adaptive(episode, baseline))

    counters: Dict[str, int] = {
        "spurious_timeouts": _count_spurious(episode.tracer),
        **episode.counters,
        "crashed_hosts": len(episode.crashed),
    }
    if episode.active.schedule is not None:
        counters["injected_drops"] = episode.active.schedule.injected_drops
        counters["injected_duplicates"] = (
            episode.active.schedule.injected_duplicates
        )
        counters["injected_delays"] = episode.active.schedule.delayed
    for driver in episode.active.drivers:
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
        timeline=episode.timeline,
        annotations=episode.annotations,
    )
