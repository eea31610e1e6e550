"""Timing wrappers around the program's public layer functions.

The traced pass installs a wrapper around each layer function (by
assigning to the class, module or instance that owns it), records one
span per call in memory, and removes the wrappers afterwards. Nothing
under ``src/`` is edited. A span is ``(name, start, end, parent)``;
synchronous spans nest on a stack, so a layer's *self time* is its
span's duration minus the part its child spans cover. Coroutine spans
(:meth:`Tracer.wrap_async`) include the time the coroutine was
suspended, overlap freely, and therefore take no part in self-time
accounting: they are reported as durations only.

Timestamps are ``time.perf_counter()`` — ``CLOCK_MONOTONIC`` on Linux,
one epoch for every process on the host — so spans recorded in the
server child can be bucketed by phase windows the generator measured.
"""

from __future__ import annotations

import bisect
import functools
import json
import time
from array import array
from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

#: Parent marker of a root synchronous span.
ROOT = -1
#: Parent marker of a coroutine span (outside the synchronous stack).
ASYNC = -2

#: End time of a span that has not finished yet.
OPEN = -1.0

_MISSING = object()

#: A labelled time window: spans starting in [start, end) get *label*.
Window = Tuple[float, float, str]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        #: Optional per-span count (crossings returned, bytes sent, ...).
        self.weights = array("d")
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def _name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _open(self, name_id: int, parent: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.ends.append(OPEN)
        self.weights.append(0.0)
        self.starts.append(self.clock())
        return index

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a synchronous span around the with-block."""
        stack = self._stack
        index = self._open(self._name_id(name), stack[-1] if stack else ROOT)
        stack.append(index)
        try:
            yield
        finally:
            self.ends[index] = self.clock()
            stack.pop()

    # -- installing wrappers --------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        weigh: Optional[Callable[[Tuple[Any, ...], Any], float]] = None,
    ) -> None:
        """Time every call of synchronous ``owner.attr`` as span *name*.

        *weigh*, given the call's positional arguments and its result,
        returns a count to record with the span.
        """
        function = getattr(owner, attr)
        name_id = self._name_id(name)
        stack, ends, weights, clock, open_span = (
            self._stack, self.ends, self.weights, self.clock, self._open
        )

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_span(name_id, stack[-1] if stack else ROOT)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
                if weigh is not None:
                    weights[index] = weigh(args, result)
                return result
            finally:
                ends[index] = clock()
                stack.pop()

        self._patch(owner, attr, traced)

    def wrap_async(self, owner: Any, attr: str, name: str) -> None:
        """Time every await of coroutine function ``owner.attr``."""
        function = getattr(owner, attr)
        name_id = self._name_id(name)
        ends, clock, open_span = self.ends, self.clock, self._open

        @functools.wraps(function)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_span(name_id, ASYNC)
            try:
                return await function(*args, **kwargs)
            finally:
                ends[index] = clock()

        self._patch(owner, attr, traced)

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- persistence ----------------------------------------------------------

    def _columns(self) -> Tuple[array, ...]:
        return (
            self.name_ids, self.parents, self.starts, self.ends, self.weights
        )

    def save(self, path: str) -> None:
        """Write the spans recorded so far: a JSON header, then raw arrays."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "count": len(self.starts)}
            handle.write(json.dumps(header).encode() + b"\n")
            for column in self._columns():
                column.tofile(handle)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        """Read back what :meth:`save` wrote (same host, same python)."""
        tracer = cls()
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            tracer.names = list(header["names"])
            for column in tracer._columns():
                column.fromfile(handle, header["count"])
        return tracer

    # -- analysis -------------------------------------------------------------

    def self_times(
        self, windows: Sequence[Window] = ()
    ) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per window label, per span name: self_s, total_s, calls, weight.

        A span belongs to the window its start falls in; without
        *windows* every span lands under the label ``"all"``. Spans still
        open when the recording stopped are skipped. A child's duration
        is subtracted from its parent whatever window either is in.
        """
        starts, ends, parents = self.starts, self.ends, self.parents
        count = len(starts)
        covered = [0.0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0 and ends[index] != OPEN:
                covered[parent] += ends[index] - starts[index]
        ordered = sorted(windows)
        edges = [window[0] for window in ordered]
        result: Dict[str, Dict[str, Dict[str, float]]] = {}
        for index in range(count):
            start, end = starts[index], ends[index]
            if end == OPEN:
                continue
            if ordered:
                slot = bisect.bisect_right(edges, start) - 1
                if slot < 0 or start >= ordered[slot][1]:
                    continue
                label = ordered[slot][2]
            else:
                label = "all"
            by_name = result.setdefault(label, {})
            entry = by_name.setdefault(
                self.names[self.name_ids[index]],
                {"self_s": 0.0, "total_s": 0.0, "calls": 0, "weight": 0.0},
            )
            duration = end - start
            entry["total_s"] += duration
            entry["calls"] += 1
            entry["weight"] += self.weights[index]
            if parents[index] != ASYNC:
                entry["self_s"] += duration - covered[index]
        return result


def layer(
    table: Dict[str, Dict[str, float]], name: str, field: str = "self_s"
) -> float:
    """``table[name][field]``, or 0 when the layer recorded no span."""
    return table.get(name, {}).get(field, 0.0)
