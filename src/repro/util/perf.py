"""Small performance utilities shared by the hot paths."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from types import MappingProxyType
from typing import Any, Iterator, Mapping

#: The one read-only empty mapping. Per-node containers that most nodes
#: of a large overlay never fill start as this shared object (not a fresh
#: 64-byte dict each) and are replaced by a real dict on their first
#: write; an owner tests ``container is EMPTY`` before it writes.
EMPTY: Mapping[Any, Any] = MappingProxyType({})


@contextmanager
def paused_gc() -> Iterator[None]:
    """Suspend the cyclic garbage collector for an allocation-heavy phase.

    Building a 100,000-node deployment allocates millions of long-lived
    objects (descriptors, routing entries, hosts); every generational
    collection triggered mid-build rescans that entire population for
    cycles it cannot contain, which makes construction super-linear in N.
    Pausing collection for the duration (and restoring the previous state
    afterwards, even on error) removes that overhead without changing
    behavior — reference counting still reclaims everything non-cyclic.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
