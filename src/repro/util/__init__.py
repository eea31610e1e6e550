"""Shared utilities: interval math, seeded RNG helpers, errors."""

from repro.util.errors import (
    ConfigurationError,
    HostDownError,
    ProtocolError,
    ReproError,
)
from repro.util.intervals import (
    clamp,
    intersect,
    interval_contains,
    interval_length,
    intervals_overlap,
)
from repro.util.rng import derive_rng, spawn_seeds

__all__ = [
    "ConfigurationError",
    "HostDownError",
    "ProtocolError",
    "ReproError",
    "clamp",
    "intersect",
    "interval_contains",
    "interval_length",
    "intervals_overlap",
    "derive_rng",
    "spawn_seeds",
]
