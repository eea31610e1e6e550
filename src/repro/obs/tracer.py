"""Per-query hop tracing: reconstruct *how* a query travelled the overlay.

:class:`TraceRecorder` is a :class:`~repro.core.observer.ProtocolObserver`
that captures every query/reply/duplicate/drop/timeout event with simulated
timestamps and groups them per query. From a query's event stream it
rebuilds the depth-first dissemination tree — who forwarded to whom, along
which neighboring-cell slot ``(level, dim)``, and which dimensions remained
in the query after the traversed one was removed — so a missed delivery or
a duplicate reception can be localised to the exact hop that caused it,
instead of showing up only in end-of-run aggregates.

Recorders compose with metric collectors through
:class:`~repro.core.observer.FanoutObserver`, so tracing never replaces
measurement. Event streams export as JSONL (one event per line; see
:mod:`repro.obs.events` for the schema) and render as ASCII routing trees
via :mod:`repro.obs.render`.
"""

from __future__ import annotations

import hashlib

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import json

from repro.core.descriptors import Address, NodeDescriptor
from repro.core.messages import QueryId, mask_dimensions
from repro.core.observer import ProtocolObserver
from repro.obs import events as ev

#: A clock callable returning the current simulated time in seconds.
Clock = Callable[[], float]


@dataclass
class HopNode:
    """One node of a reconstructed dissemination tree.

    ``level``/``dim``/``dimensions`` describe the *edge from the parent*
    (``None`` at the root; ``level == -1`` marks a C0 fan-out edge).
    ``matched`` is None when the node never reported a reception (the
    forward was lost in flight). ``revisit`` flags an edge into a node
    already present elsewhere in the tree — on a converged overlay this
    never happens (the exactly-once property).
    """

    address: Address
    matched: Optional[bool] = None
    level: Optional[int] = None
    dim: Optional[int] = None
    dimensions: Optional[Tuple[int, ...]] = None
    revisit: bool = False
    children: List["HopNode"] = field(default_factory=list)


@dataclass
class QueryTrace:
    """Every event observed for one query, in arrival order."""

    query_id: QueryId
    events: List[ev.TraceEvent] = field(default_factory=list)

    @property
    def origin(self) -> Address:
        """The originating node (encoded in the query id)."""
        return self.query_id[0]

    def count(self, kind: str) -> int:
        """Number of recorded events of *kind*."""
        return sum(1 for event in self.events if event.kind == kind)

    def reception_counts(self) -> Counter:
        """How many times each node reported receiving the query.

        Duplicate receptions are rejected before the ``received`` hook
        fires, so on a healthy run every count is exactly 1; the rejected
        ones show up as :data:`~repro.obs.events.DUPLICATE` events instead.
        """
        counts: Counter = Counter()
        for event in self.events:
            if event.kind == ev.RECEIVED:
                counts[event.node] += 1
        return counts

    def matched_nodes(self) -> List[Address]:
        """Nodes that received the query and matched it."""
        return [
            event.node
            for event in self.events
            if event.kind == ev.RECEIVED and event.matched
        ]

    def duplicate_nodes(self) -> List[Address]:
        """Nodes that reported a duplicate reception."""
        return [e.node for e in self.events if e.kind == ev.DUPLICATE]

    def hop_tree(self) -> HopNode:
        """Rebuild the dissemination tree from the forward edges.

        Children appear in the order their forwards were observed. An edge
        into an already-placed node is attached as a leaf flagged
        ``revisit`` (it indicates a duplicate path, never recursed into).
        """
        matched: Dict[Address, bool] = {}
        for event in self.events:
            if event.kind == ev.RECEIVED:
                matched[event.node] = bool(event.matched)
        forwards: Dict[Address, List[ev.TraceEvent]] = {}
        for event in self.events:
            if event.kind == ev.FORWARDED:
                forwards.setdefault(event.node, []).append(event)
        root = HopNode(address=self.origin, matched=matched.get(self.origin))
        placed = {self.origin}
        stack = [root]
        while stack:
            parent = stack.pop()
            for edge in forwards.get(parent.address, ()):
                child = HopNode(
                    address=edge.peer,
                    matched=matched.get(edge.peer),
                    level=edge.level,
                    dim=edge.dim,
                    dimensions=edge.dimensions,
                    revisit=edge.peer in placed,
                )
                parent.children.append(child)
                if not child.revisit:
                    placed.add(edge.peer)
                    stack.append(child)
        return root

    def exactly_once(self, expected: Sequence[Address]) -> bool:
        """True iff every *expected* node received the query exactly once."""
        counts = self.reception_counts()
        return not self.duplicate_nodes() and all(
            counts[address] == 1 for address in expected
        )


class TraceRecorder(ProtocolObserver):
    """Observer recording structured per-query event streams.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulated time;
        bind one later with :meth:`bind_clock` when the simulator does
        not exist yet at construction time (events recorded before a
        clock is bound are stamped 0.0).
    sample_rate:
        Head-based per-query sampling: trace roughly this fraction of
        queries end-to-end and ignore the rest entirely (None or 1.0 =
        trace everything). The decision is a pure function of
        ``(sample_seed, query_id)`` — hash of the query's origin address
        and sequence number — so every recorder with the same seed makes
        the *same* decision for the same query. That is what keeps a
        sampled query traced end-to-end across shard workers without any
        coordination, and what makes ``repro trace`` usable at paper
        scale: at N=100k with ``sample_rate=0.01``, tracer memory holds
        ~1% of the queries instead of all of them.
    sample_seed:
        Seed for the sampling hash (default 0). Same seed ⇒ same sampled
        query set, run to run and shard to shard.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        sample_rate: Optional[float] = None,
        sample_seed: int = 0,
    ) -> None:
        if sample_rate is not None and not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.traces: Dict[QueryId, QueryTrace] = {}
        self.sample_rate = sample_rate
        self.sample_seed = sample_seed
        # Memoized per-query decisions (bounded: cleared when it grows
        # past _DECISION_CACHE_LIMIT; recomputation is deterministic).
        self._decisions: Dict[QueryId, bool] = {}
        self._clock = clock

    _DECISION_CACHE_LIMIT = 8192

    def sampled(self, query_id: QueryId) -> bool:
        """Whether this query is in the traced sample (deterministic)."""
        if self.sample_rate is None or self.sample_rate >= 1.0:
            return True
        decision = self._decisions.get(query_id)
        if decision is None:
            origin, sequence = query_id
            digest = hashlib.sha256(
                f"{self.sample_seed}:{origin}:{sequence}".encode()
            ).digest()
            draw = int.from_bytes(digest[:8], "big") / 2**64
            decision = draw < self.sample_rate
            if len(self._decisions) >= self._DECISION_CACHE_LIMIT:
                self._decisions.clear()
            self._decisions[query_id] = decision
        return decision

    def bind_clock(self, clock: Clock) -> None:
        """Attach the time source (e.g. ``lambda: simulator.now``)."""
        self._clock = clock

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def _trace(self, query_id: QueryId) -> QueryTrace:
        trace = self.traces.get(query_id)
        if trace is None:
            trace = QueryTrace(query_id=query_id)
            self.traces[query_id] = trace
        return trace

    def _record(self, kind: str, query_id: QueryId, node: Address, **extra) -> None:
        if not self.sampled(query_id):
            return
        self._trace(query_id).events.append(
            ev.TraceEvent(
                time=self._now(), kind=kind, query_id=query_id, node=node, **extra
            )
        )

    # -- ProtocolObserver -------------------------------------------------------

    def query_forwarded(
        self,
        sender: Address,
        receiver: Address,
        query_id: QueryId,
        level: int,
        dim: Optional[int],
        dimensions: int,
    ) -> None:
        """Record a forward edge with its routing annotation."""
        self._record(
            ev.FORWARDED,
            query_id,
            sender,
            peer=receiver,
            level=level,
            dim=dim,
            dimensions=tuple(mask_dimensions(dimensions)),
        )

    def query_received(
        self, node: Address, query_id: QueryId, matched: bool
    ) -> None:
        """Record a reception and whether the receiver matched."""
        self._record(ev.RECEIVED, query_id, node, matched=matched)

    def reply_sent(
        self, sender: Address, receiver: Address, query_id: QueryId
    ) -> None:
        """Record a reply travelling back up the tree."""
        self._record(ev.REPLY, query_id, sender, peer=receiver)

    def query_completed(
        self,
        origin: Address,
        query_id: QueryId,
        matching: Sequence[NodeDescriptor],
        coverage: float,
    ) -> None:
        """Record the final candidate-set assembly at the origin."""
        self._record(ev.COMPLETED, query_id, origin)

    def duplicate_query(self, node: Address, query_id: QueryId) -> None:
        """Record a duplicate reception (a routing anomaly)."""
        self._record(ev.DUPLICATE, query_id, node)

    def neighbor_timeout(
        self, node: Address, neighbor: Address, query_id: QueryId
    ) -> None:
        """Record a presumed-failed neighbor."""
        self._record(ev.TIMEOUT, query_id, node, peer=neighbor)

    def query_dropped(
        self,
        node: Address,
        query_id: QueryId,
        reason: str,
    ) -> None:
        """Record an abandoned branch, annotated with why it was dropped."""
        self._record(ev.DROPPED, query_id, node, reason=reason)

    # -- access / export --------------------------------------------------------

    def ingest(self, events: Sequence[ev.TraceEvent]) -> None:
        """Append already-recorded events (e.g. from another shard).

        Events are grouped into per-query traces exactly as live recording
        would; the caller is responsible for ordering (sort by time before
        ingesting when merging multiple shard streams). Sampling is *not*
        re-applied — shard recorders already made the (identical, seeded)
        decision at record time.
        """
        for event in events:
            self._trace(event.query_id).events.append(event)

    def last_trace(self) -> Optional[QueryTrace]:
        """The most recently opened query trace, if any."""
        if not self.traces:
            return None
        return next(reversed(self.traces.values()))

    def event_count(self) -> int:
        """Total events recorded across all retained traces."""
        return sum(len(trace.events) for trace in self.traces.values())

    def iter_events(self) -> Iterator[ev.TraceEvent]:
        """All retained events, grouped by query in recording order."""
        for trace in self.traces.values():
            yield from trace.events

    def write_jsonl(self, path: Union[str, Path]) -> int:
        """Export every retained event as JSONL; returns the line count."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        count = 0
        with path.open("w") as handle:
            for event in self.iter_events():
                handle.write(json.dumps(event.to_dict(), sort_keys=True))
                handle.write("\n")
                count += 1
        return count


def read_jsonl(path: Union[str, Path]) -> List[ev.TraceEvent]:
    """Load events exported by :meth:`TraceRecorder.write_jsonl`."""
    return [
        ev.event_from_dict(json.loads(line))
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
