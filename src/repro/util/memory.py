"""Process-memory measurement helpers (Linux, stdlib-only).

The shard workers and the CI memory gate need two different numbers:

* **RSS** — what the OS actually charges the process;
  ``current_rss_bytes`` reads ``/proc/self/status``.
* **Traced allocation** — ``tracemalloc``-attributed Python allocations
  between two points, independent of allocator slack and interpreter
  baseline. This is the number the CI bytes-per-node gate uses, because
  it is stable across machines and python builds in a way RSS is not.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from typing import Iterator, List


def current_rss_bytes() -> int:
    """Current resident set size, in bytes (0 if /proc is unavailable)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


@contextmanager
def traced_allocation(result: List[int]) -> Iterator[None]:
    """Measure net Python allocations across the with-block.

    Appends one integer (bytes) to *result* on exit. Uses tracemalloc
    snapshots of current (not peak) usage, so transient scratch memory
    inside the block does not count — only what the block *keeps*.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    before, _peak = tracemalloc.get_traced_memory()
    try:
        yield
    finally:
        after, _peak = tracemalloc.get_traced_memory()
        if not was_tracing:
            tracemalloc.stop()
        result.append(max(0, after - before))
