"""Named, severity-parameterised chaos scenarios.

A scenario turns the fault primitives of :mod:`repro.faults.model` (and
the membership drivers of :mod:`repro.sim.churn`) into a scripted episode
on a live deployment: *apply* it at the start of the fault window, let the
workload run, then *stop* it to heal. Severity is a single knob in
``(0, 1]`` so the harness can sweep it and check that delivery degrades
monotonically — the graceful-degradation claim of Sections 6.6-6.8.

Scenarios compose; ``apply_scenario`` installs the built fault schedule on
the deployment's network and returns an :class:`ActiveScenario` handle
whose :meth:`~ActiveScenario.stop` heals the substrate and halts any
membership drivers it started.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.descriptors import Address

from repro.faults.model import (
    DuplicateFault,
    FaultSchedule,
    GilbertElliottFault,
    LatencySpikeFault,
    LinkLossFault,
    PartitionFault,
    StragglerFault,
)
from repro.sim.churn import CrashRestartChurn, MassiveFailure
from repro.sim.deployment import Deployment


@dataclass
class ActiveScenario:
    """A scenario currently sabotaging a deployment or live overlay."""

    name: str
    severity: float
    #: Removes the installed fault schedule from the substrate.
    clear_faults: Callable[[], None]
    schedule: Optional[FaultSchedule] = None
    #: Membership drivers with a ``stop()`` (churn engines and the like).
    drivers: List[object] = field(default_factory=list)
    #: Addresses a workload should issue queries from while the fault is
    #: active (None = anywhere). The partition scenario restricts origins
    #: to the mainland: an operator's entry point sits on the majority
    #: side, and mainland origins make delivery degrade as ``1 - severity``
    #: instead of the symmetric ``s^2 + (1-s)^2`` of uniform origins.
    preferred_origins: Optional[Set[Address]] = None
    stopped: bool = False

    def stop(self) -> None:
        """Heal the substrate and stop all membership drivers."""
        if self.stopped:
            return
        self.stopped = True
        for driver in self.drivers:
            stop = getattr(driver, "stop", None)
            if stop is not None:
                stop()
        self.clear_faults()

    @property
    def injected_drops(self) -> int:
        """Messages dropped by the fault layer so far."""
        return self.schedule.injected_drops if self.schedule else 0

    @property
    def injected_duplicates(self) -> int:
        """Extra copies delivered by the fault layer so far."""
        return self.schedule.injected_duplicates if self.schedule else 0


#: A builder receives (deployment, severity, now, heal_at, rng) and
#: returns (schedule or None, drivers it started, preferred origins or None).
#: The live builders of :mod:`repro.faults.live` receive an
#: :class:`~repro.runtime.aio.AioOverlay` in place of the deployment.
Builder = Callable[
    [Any, float, float, Optional[float], random.Random],
    Tuple[Optional[FaultSchedule], List[object], Optional[Set[Address]]],
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario: a builder plus harness defaults."""

    name: str
    summary: str
    builder: Builder
    default_severity: float = 0.5
    #: Severities for the monotonic-degradation sweep.
    sweep: Tuple[float, ...] = (0.2, 0.5, 0.8)
    #: ChaosConfig field overrides (e.g. a longer recovery window).
    overrides: Mapping[str, float] = field(default_factory=dict)


def _build_partition(deployment, severity, now, heal_at, rng):
    alive = sorted(host.address for host in deployment.alive_hosts())
    count = int(round(len(alive) * severity))
    island = set(rng.sample(alive, min(count, len(alive))))
    groups = {address: (1 if address in island else 0) for address in alive}
    fault = PartitionFault(groups, start=now, heal_at=heal_at)
    mainland = {address for address in alive if address not in island}
    return FaultSchedule().add(fault), [], mainland or None


def _build_burst_loss(deployment, severity, now, heal_at, rng):
    fault = GilbertElliottFault(
        p_enter_burst=0.01 + 0.12 * severity,
        p_exit_burst=0.25,
        loss_good=0.0,
        loss_bad=1.0,
        start=now,
        end=heal_at,
    )
    return FaultSchedule().add(fault), [], None


def _build_flaky_links(deployment, severity, now, heal_at, rng):
    # Asymmetric per-link loss on the links that actually carry traffic:
    # a severity-fraction of hosts see their *outbound* routing links drop
    # most messages while the reverse direction stays clean.
    alive = deployment.alive_hosts()
    count = max(1, int(round(len(alive) * severity)))
    flaky = rng.sample(alive, min(count, len(alive)))
    rates: Dict[Tuple[int, int], float] = {}
    for host in flaky:
        for descriptor in host.node.routing.descriptors():
            rates[(host.address, descriptor.address)] = 0.75
    fault = LinkLossFault(rates, start=now, end=heal_at)
    return FaultSchedule().add(fault), [], None


def _build_latency_spike(deployment, severity, now, heal_at, rng):
    # A global delay surge with heavy jitter: nothing is lost, nothing is
    # down, every message is just late. The scenario that separates an
    # adaptive failure detector from a static one — static timers declare
    # live neighbors dead wholesale (spurious timeouts), adaptive ones
    # stretch with the measured round trips (invariant I5).
    fault = LatencySpikeFault(
        extra=2.0 * severity, jitter=1.5 * severity, start=now, end=heal_at
    )
    return FaultSchedule().add(fault), [], None


def _build_stragglers(deployment, severity, now, heal_at, rng):
    alive = [host.address for host in deployment.alive_hosts()]
    count = max(1, int(round(len(alive) * severity)))
    nodes = rng.sample(alive, min(count, len(alive)))
    fault = StragglerFault(
        nodes, extra=0.75, jitter=0.5, start=now, end=heal_at
    )
    return FaultSchedule().add(fault), [], None


def _build_duplicate_storm(deployment, severity, now, heal_at, rng):
    schedule = FaultSchedule()
    schedule.add(
        DuplicateFault(
            rate=min(1.0, severity), delay_spread=0.2, start=now, end=heal_at
        )
    )
    # Jitter without a base shift: enough to reorder back-to-back messages.
    schedule.add(
        LatencySpikeFault(extra=0.0, jitter=0.05, start=now, end=heal_at)
    )
    return schedule, [], None


def _build_crash_restart(deployment, severity, now, heal_at, rng):
    churn = CrashRestartChurn(
        deployment,
        rate=0.05 * severity,
        interval=10.0,
        downtime=40.0,
        rng=rng,
    )
    churn.start()
    return None, [churn], None


def _build_massive(deployment, severity, now, heal_at, rng):
    failure = MassiveFailure(
        deployment, fraction=severity, at_time=now, rng=rng
    )
    # The window opens *at* `now`; fire immediately rather than arming a
    # same-instant event so the kill precedes the first workload query.
    failure._fire()
    return None, [failure], None


def _build_wan_degraded(deployment, severity, now, heal_at, rng):
    # Combined WAN misery: latency spikes plus mild burst loss — the
    # scenario that exercises the timeout-headroom path end to end.
    schedule = FaultSchedule()
    schedule.add(
        LatencySpikeFault(
            extra=0.3 * severity, jitter=0.2 * severity, start=now, end=heal_at
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


SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="partition-50",
            summary="isolate half the nodes, heal at the end of the window",
            builder=_build_partition,
            default_severity=0.5,
        ),
        ScenarioSpec(
            name="burst-loss",
            summary="Gilbert-Elliott burst loss on every link",
            builder=_build_burst_loss,
            default_severity=0.5,
        ),
        ScenarioSpec(
            name="flaky-links",
            summary="asymmetric heavy loss on outbound routing links",
            builder=_build_flaky_links,
            default_severity=0.3,
            sweep=(0.1, 0.3, 0.6),
        ),
        ScenarioSpec(
            name="latency-spike",
            summary="every message delayed by a severity-scaled surge",
            builder=_build_latency_spike,
            default_severity=0.5,
        ),
        ScenarioSpec(
            name="stragglers",
            summary="a fraction of nodes answer slowly (latency stragglers)",
            builder=_build_stragglers,
            default_severity=0.3,
            sweep=(0.1, 0.3, 0.6),
        ),
        ScenarioSpec(
            name="duplicate-storm",
            summary="duplicate and reorder messages at random",
            builder=_build_duplicate_storm,
            default_severity=0.5,
        ),
        ScenarioSpec(
            name="crash-restart",
            summary="nodes crash and restart with stale routing state",
            builder=_build_crash_restart,
            default_severity=0.5,
            overrides={"drain_grace": 120.0},
        ),
        ScenarioSpec(
            name="massive-50",
            summary="one-shot 50% simultaneous failure (Fig. 12 shape)",
            builder=_build_massive,
            default_severity=0.5,
            sweep=(0.2, 0.5, 0.8),
            overrides={"hold": 60.0, "recovery": 960.0},
        ),
        ScenarioSpec(
            name="wan-degraded",
            summary="latency spikes plus mild burst loss (WAN misery)",
            builder=_build_wan_degraded,
            default_severity=0.5,
        ),
    )
}


def scenario_names() -> List[str]:
    """Sorted names of all registered scenarios."""
    return sorted(SCENARIOS)


def apply_scenario(
    deployment: Deployment,
    name: str,
    severity: Optional[float] = None,
    heal_at: Optional[float] = None,
    rng: Optional[random.Random] = None,
) -> ActiveScenario:
    """Start the named scenario on *deployment*, effective immediately.

    The fault window opens at the deployment's current simulated time and
    (for windowed faults) closes at *heal_at*; membership drivers run
    until :meth:`ActiveScenario.stop`. Raises ``KeyError`` for unknown
    names — ``scenario_names()`` lists the valid ones.
    """
    spec = SCENARIOS[name]
    severity = spec.default_severity if severity is None else severity
    if not 0.0 < severity <= 1.0:
        raise ValueError(f"severity must be in (0, 1], got {severity}")
    rng = rng or random.Random(1009)
    now = deployment.simulator.now
    schedule, drivers, origins = spec.builder(
        deployment, severity, now, heal_at, rng
    )
    if schedule is not None:
        deployment.network.install_faults(schedule)
    return ActiveScenario(
        name=name,
        severity=severity,
        clear_faults=deployment.network.clear_faults,
        schedule=schedule,
        drivers=drivers,
        preferred_origins=origins,
    )
