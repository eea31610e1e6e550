"""Composable fault injection and chaos testing, simulated and live.

The paper's resilience claims (Sections 6.6-6.8) rest on *graceful
degradation*: the overlay keeps answering queries while links break,
messages burst-drop, and nodes crash, and self-repairs once the faults
clear. This package makes those conditions scriptable:

* :mod:`repro.faults.model` — fault primitives (partitions with scheduled
  heal, per-link asymmetric loss, Gilbert-Elliott burst loss, latency
  spikes and straggler links, duplication + reordering) composed into a
  :class:`~repro.faults.model.FaultSchedule` installed on a
  :class:`~repro.sim.network.SimNetwork`;
* :mod:`repro.faults.scenarios` — named, severity-parameterised scenarios
  (``partition-50``, ``burst-loss``, ``crash-restart``, ...) built on the
  primitives plus the membership drivers in :mod:`repro.sim.churn`;
* :mod:`repro.faults.harness` — the resilience harness behind
  ``repro chaos``: one episode script runs a query workload across a
  fault window and checks the resilience invariants (termination, no
  leaks, no double counting, monotonic degradation and, against a
  static-timer replay, adaptive failure detection) using the
  observability stack;
* :mod:`repro.faults.live` — the same runner on real UDP sockets
  (``run_chaos(..., runtime="aio")``): loopback-scaled timings and
  defaults, live scenario builders, a crash-restart ``Supervisor``, and
  the adapter that injects faults through the asyncio runtime's
  ``FaultyTransport`` and sweeps its reliability channels for leaks.
"""

from repro.faults.model import (
    DuplicateFault,
    Fault,
    FaultSchedule,
    GilbertElliottFault,
    LatencySpikeFault,
    LinkLossFault,
    PartitionFault,
    StragglerFault,
)
from repro.faults.scenarios import SCENARIOS, apply_scenario, scenario_names
from repro.faults.harness import ChaosConfig, ChaosReport, run_chaos

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "DuplicateFault",
    "Fault",
    "FaultSchedule",
    "GilbertElliottFault",
    "LatencySpikeFault",
    "LinkLossFault",
    "PartitionFault",
    "SCENARIOS",
    "StragglerFault",
    "apply_scenario",
    "run_chaos",
    "scenario_names",
]
