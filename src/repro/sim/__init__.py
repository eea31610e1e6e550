"""Discrete-event simulation substrate (the PeerSim equivalent)."""

from repro.sim.churn import ContinuousChurn, MassiveFailure, RepeatedFailure
from repro.sim.deployment import Deployment, ValueSampler
from repro.sim.engine import Event, Simulator
from repro.sim.host import SimHost
from repro.sim.latency import (
    constant_latency,
    lan_latency,
    uniform_latency,
    wan_latency,
)
from repro.sim.network import SimNetwork, SimTransport

__all__ = [
    "ContinuousChurn",
    "MassiveFailure",
    "RepeatedFailure",
    "Deployment",
    "ValueSampler",
    "Event",
    "Simulator",
    "SimHost",
    "constant_latency",
    "lan_latency",
    "uniform_latency",
    "wan_latency",
    "SimNetwork",
    "SimTransport",
]
