"""The resource node: autonomous self-selection protocol of Figure 5.

Each compute node represents itself in the overlay. The node stores, per
in-flight query (Figure 4(b)):

* ``pending`` — the query state, with a timeout ``T(q)`` per outstanding
  forward (an expired timeout marks the neighbor failed and re-forwards),
* ``matching`` — the candidate descriptors collected so far,
* ``waiting`` — the neighbors the query was forwarded to that have not
  replied yet.

Control flow follows the paper's pseudo-code line by line:

* ``receive_query``: record state, match self, forward unless σ is met.
* ``forward``: scan levels from the current one downward; at each level scan
  the remaining dimensions in order; on the first neighboring cell that
  overlaps Q, remove that dimension from the query (preventing backward
  propagation) and forward to the selected neighbor, then stop. When the
  level is exhausted, descend one level and reset the dimension set. At
  level 0, fan the query out to every *matching* member of the node's C0
  cell with ``level = -1`` (a pure match-report request). If nothing could
  be forwarded, reply to the parent.
* ``receive_reply``: merge the candidates; when every outstanding branch has
  replied, either resume forwarding (σ not yet met and levels remain) or
  reply to the parent / complete at the origin.

Failure handling — the timeout ``T(q)`` and what grew around it: adaptive
timers, hedges, retries, deferral and breaker-aware fail-over — lives in
:mod:`repro.core.reliability`. This module arms, cancels and sizes no
timer; it calls that seam when it picks a slot's neighbor, sends a
forward, receives a reply, completes a query and restarts.

One deliberate deviation from the pseudo-code as printed: after the level-0
fan-out we set the local level to ``-1`` so the fan-out happens at most once
and, when *no* C0 member matched, the code falls through to the
empty-``waiting`` check and replies instead of hanging (the printed code
``return``\\ s unconditionally after the loop, which would leave the parent
waiting forever in that corner case).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.attributes import AttributeSchema
from repro.core.cells import overlapping_dimensions
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.health import HealthConfig, HealthMonitor
from repro.core.messages import QueryId, QueryMessage, ReplyMessage
from repro.core.observer import ProtocolObserver
from repro.core.query import Query
from repro.core.reliability import BUDGET_DECAY, Outstanding, Reliability
from repro.core.routing import RoutingTable
from repro.core.transport import TimerHandle, Transport
from repro.util.intervals import Interval
from repro.util.perf import EMPTY

CompletionCallback = Callable[[QueryId, List[NodeDescriptor]], None]


@dataclass(frozen=True)
class NodeConfig:
    """Tunable knobs of the node protocol."""

    #: Seconds to wait for a reply before presuming the neighbor failed.
    query_timeout: float = 30.0
    #: Floor for the decayed timeout budget.
    min_timeout: float = 0.5
    #: Minimum slack, in seconds, between a child's timeout budget and the
    #: parent's failure timer, so that a deep branch over slow links can
    #: reply before its parent gives up on it. Size it to one round trip on
    #: the deployment's links and no larger: excess headroom compounds down
    #: the tree (each floored child waits ``min_timeout + headroom`` while
    #: its parent only allows one headroom of slack), so over-sizing it
    #: makes parents abandon live branches.
    latency_headroom: float = 0.25
    #: Re-forward to an alternate neighbor after a timeout (Section 4.3).
    #: The paper's churn experiments disable this ("the message is dropped")
    #: to avoid biasing delivery measurements.
    retry_on_timeout: bool = True
    #: Cap on the C0 member list (None = unbounded, as the paper assumes).
    zero_capacity: Optional[int] = None
    #: When a query hits a broken link (an overlapping neighboring cell
    #: with no usable inhabitant), wait this many seconds for the gossip
    #: layer to repair the slot and retry, instead of dropping the branch.
    #: This is the Section 6.6 alternative the paper describes ("delay the
    #: query until the overlay has been restored"): delivery approaches 1
    #: under churn at the cost of latency. ``None`` (default) drops, as in
    #: the paper's measurements.
    defer_broken_links: Optional[float] = None
    #: Remember this many completed/seen query ids for duplicate detection.
    seen_history: int = 4096
    #: Stretch failure timers past the static budget window by the
    #: per-neighbor RTT estimate, up to a span-scaled ``rto_max``, and skip
    #: neighbors whose circuit breaker is open (see
    #: :mod:`repro.core.reliability`).
    adaptive_timeouts: bool = True
    #: Speculatively re-forward a slow branch to the best alternate after a
    #: p99-derived hedge delay (first reply wins; the seen-LRU suppresses
    #: the duplicate exploration on the receiving side, preserving I3).
    hedge: bool = True
    #: Estimator/breaker knobs (see :mod:`repro.core.health`).
    health: HealthConfig = field(default_factory=HealthConfig)


@dataclass(slots=True)
class _PendingQuery:
    """Local state for one query (the three tables of Figure 4(b))."""

    query: Query
    index_ranges: Tuple[Interval, ...]
    sigma: Optional[int]
    level: int
    #: Dimensions still to scan at ``level``, as a bitmask (bit k = k).
    dimensions: int
    parent: Optional[Address]
    budget: float = 30.0
    matching: Dict[Address, NodeDescriptor] = field(default_factory=dict)
    waiting: Dict[Address, Outstanding] = field(default_factory=dict)
    failed: Set[Address] = field(default_factory=set)
    on_complete: Optional[CompletionCallback] = None
    completed: bool = False
    #: Retry timers of the branches parked on a broken link awaiting
    #: gossip repair, one per parked branch.
    defer_timers: List[TimerHandle] = field(default_factory=list)
    #: Distinct branches actually opened below this node (fresh
    #: forwards). Denominator of the coverage estimate: a branch that
    #: never reports back (timed out dry, breaker-blocked, deferral
    #: expired) depresses the estimate.
    branch_total: int = 0
    #: Sum of the coverage fractions reported back by completed branches.
    branch_coverage: float = 0.0
    #: Bitmask of the dimensions whose ``N(level, k)`` overlaps Q, for the
    #: current level and node coordinates; None until first needed.
    overlapping: Optional[int] = None

    def idle(self) -> bool:
        """No outstanding forwards and no parked branches."""
        return not self.waiting and not self.defer_timers

    def sigma_met(self) -> bool:
        """True once enough candidates have been collected."""
        return self.sigma is not None and len(self.matching) >= self.sigma

    def coverage(self) -> float:
        """Estimated fraction of the subtree actually explored.

        Counts this node as one unit plus one unit per opened branch;
        branches contribute the coverage their replies reported, so
        abandoned branches (timeouts without alternates, open breakers,
        broken links) depress the estimate recursively up the tree.
        """
        if self.branch_total <= 0:
            return 1.0
        return min(
            1.0, (1.0 + self.branch_coverage) / (1.0 + self.branch_total)
        )


class ResourceNode:
    """Protocol logic of a single overlay node (transport-agnostic)."""

    __slots__ = (
        "schema",
        "transport",
        "config",
        "observer",
        "reliability",
        "descriptor",
        "address",
        "routing",
        "pending",
        "_seen",
        "_query_counter",
        "dynamic_values",
    )

    def __init__(
        self,
        descriptor: NodeDescriptor,
        schema: AttributeSchema,
        transport: Transport,
        config: Optional[NodeConfig] = None,
        observer: Optional[ProtocolObserver] = None,
        health: Optional[HealthMonitor] = None,
    ) -> None:
        self.schema = schema
        self.transport = transport
        self.config = config or NodeConfig()
        self.observer = observer or ProtocolObserver()
        self.descriptor = descriptor
        #: This node's address (constant: see :meth:`update_attributes`).
        self.address = descriptor.address
        self.routing = RoutingTable(
            descriptor,
            schema.dimensions,
            schema.max_level,
            zero_capacity=self.config.zero_capacity,
        )
        #: Every timer, retry, hedge and fail-over decision of this node.
        self.reliability = Reliability(self, health)
        #: In-flight queries: the shared read-only ``EMPTY`` mapping while
        #: the node is idle (most nodes of a large overlay, most of the
        #: time), a dict of its own while it holds a query.
        self.pending: Dict[QueryId, _PendingQuery] = EMPTY
        #: Recently seen query ids in LRU order: ``EMPTY`` until the first
        #: query, then a plain dict (insertion order at half an
        #: OrderedDict's bytes per entry, and every node of a deployment
        #: holds one) until it first fills; see :meth:`_remember`.
        self._seen: "Dict[QueryId, None]" = EMPTY
        #: Sequence number of the next query this node originates.
        self._query_counter = 0
        #: Live, rapidly-changing local state checked against the dynamic
        #: constraints of queries (footnote 1 of the paper). Not gossiped,
        #: not a routing dimension — always fresh by construction.
        #: ``EMPTY`` until a value is first published.
        self.dynamic_values: Dict[str, float] = EMPTY

    # -- identity ---------------------------------------------------------------

    @property
    def health(self) -> HealthMonitor:
        """This node's per-neighbor failure-detection state."""
        return self.reliability.health

    def update_attributes(self, descriptor: NodeDescriptor) -> None:
        """Adopt a new self-descriptor (the node's attributes changed).

        No registry must be informed — the node simply reclassifies its own
        links around the new coordinates; gossip re-advertises the new
        descriptor from then on.
        """
        if descriptor.address != self.descriptor.address:
            raise ValueError("update_attributes must keep the address")
        self.descriptor = descriptor
        self.routing.rebuild(descriptor)
        for state in self.pending.values():
            state.overlapping = None  # computed from the old coordinates

    def set_dynamic_value(self, name: str, value: Optional[float]) -> None:
        """Publish (or clear, with ``None``) a dynamic attribute locally."""
        values = self.dynamic_values
        if value is None:
            if name in values:
                del values[name]
            return
        if values is EMPTY:
            values = self.dynamic_values = {}
        values[name] = float(value)

    def _self_matches(self, query: Query) -> bool:
        """Full self-check: static attributes plus live dynamic state."""
        return query.matches(self.descriptor.values) and query.matches_dynamic(
            self.dynamic_values
        )

    # -- user entry point ---------------------------------------------------------

    def issue_query(
        self,
        query: Query,
        sigma: Optional[int] = None,
        on_complete: Optional[CompletionCallback] = None,
    ) -> QueryId:
        """Start a query at this node (``create QUERY`` in Figure 5).

        Any node can originate a query; there is no designated entry point.
        *sigma* bounds the number of candidates (None = find all).
        *on_complete* is invoked with ``(query_id, descriptors)`` when the
        depth-first dissemination finishes.
        """
        sequence = self._query_counter
        self._query_counter = sequence + 1
        query_id: QueryId = (self.address, sequence)
        state = _PendingQuery(
            query=query,
            index_ranges=query.index_ranges(),
            sigma=sigma,
            level=self.schema.max_level,
            dimensions=(1 << self.schema.dimensions) - 1,
            parent=None,
            budget=self.config.query_timeout,
            on_complete=on_complete,
        )
        self._admit(query_id, state)
        return query_id

    # -- message handling -----------------------------------------------------------

    def handle_message(self, sender: Address, message: object) -> None:
        """Dispatch an incoming message (transport callback)."""
        kind = type(message)
        if kind is QueryMessage:
            self.receive_query(message)
        elif kind is ReplyMessage:
            self.receive_reply(message)

    def receive_query(self, message: QueryMessage) -> None:
        """Handle a QUERY message (Figure 5, ``receive_query``)."""
        query_id = message.query_id
        if query_id in self.pending or query_id in self._seen:
            # Stale links under churn can route a query here twice; the
            # paper observed zero duplicates with a converged overlay, and
            # our property tests assert the same. Reply empty so the parent
            # does not block, and record the anomaly. Refresh the seen
            # entry: an id still being duplicated is the one worth keeping.
            if query_id in self._seen:
                self._remember(query_id)
            self.observer.duplicate_query(self.address, query_id)
            self._send_reply(message.sender, query_id, (), duplicate=True)
            return
        state = _PendingQuery(
            query=message.query,
            index_ranges=message.index_ranges,
            sigma=message.sigma,
            level=message.level,
            dimensions=message.dimensions,
            parent=message.sender,
            budget=message.budget,
        )
        self._admit(query_id, state)

    def _admit(self, query_id: QueryId, state: _PendingQuery) -> None:
        """Record a new query, match self, and forward unless σ is met."""
        pending = self.pending
        if pending is EMPTY:
            pending = self.pending = {}
        pending[query_id] = state
        self._remember(query_id)
        matched = self._self_matches(state.query)
        self.observer.query_received(self.address, query_id, matched)
        if matched:
            state.matching[self.address] = self.descriptor
        if state.sigma_met():
            self._complete(query_id, state)
        else:
            self._forward(query_id, state)

    def receive_reply(self, message: ReplyMessage) -> None:
        """Handle a REPLY message (Figure 5, ``receive_reply``)."""
        query_id = message.query_id
        state = self.pending.get(query_id)
        if state is None or state.completed:
            return  # stale reply (query already answered or timed out away)
        sender = message.sender
        for descriptor in message.matching:
            state.matching.setdefault(descriptor.address, descriptor)
        outstanding = state.waiting.pop(sender, None)
        if not self.reliability.reply_arrived(state, outstanding, message):
            return
        # Clamped to [0, 1] like ``max(0.0, min(1.0, coverage))``, but
        # without two builtin calls on every reply.
        coverage = message.coverage
        coverage = coverage if coverage < 1.0 else 1.0
        state.branch_coverage += coverage if coverage > 0.0 else 0.0
        self._settle(query_id, state)

    def _settle(self, query_id: QueryId, state: _PendingQuery) -> None:
        """Once no branch is outstanding, resume forwarding or complete."""
        if not state.idle():
            return
        if not state.sigma_met() and state.level >= 0:
            self._forward(query_id, state)
        else:
            self._complete(query_id, state)

    # -- forwarding (Figure 5, ``forward``) ----------------------------------------

    def _forward(self, query_id: QueryId, state: _PendingQuery) -> None:
        while state.level > 0:
            if self._forward_at_level(query_id, state):
                return
            state.level -= 1
            state.dimensions = (1 << self.routing.dimensions) - 1
            state.overlapping = None
        if state.level == 0:
            state.level = -1  # the C0 fan-out happens exactly once
            self._fan_out_zero(query_id, state)
        if state.idle():
            self._complete(query_id, state)

    def _forward_at_level(self, query_id: QueryId, state: _PendingQuery) -> bool:
        """Try to forward along one dimension at the current level.

        Returns True if a message was sent (the scan resumes on reply).
        """
        overlapping = state.overlapping
        if overlapping is None:
            overlapping = state.overlapping = overlapping_dimensions(
                self.descriptor.coordinates, state.level, state.index_ranges
            )
        candidates = state.dimensions & overlapping
        while candidates:
            # Lowest remaining dimension first, as the paper's scan.
            bit = candidates & -candidates
            candidates ^= bit
            dim = bit.bit_length() - 1
            # The neighboring cell overlaps Q. Whether or not we know an
            # inhabitant, this (level, dim) branch is now considered
            # explored: remove the dimension so the subtree rooted at the
            # neighbor cannot propagate back (Figure 5, forward line 4).
            state.dimensions ^= bit
            neighbor = self.reliability.neighbor(state, state.level, dim)
            if neighbor is None:
                # Empty cell (no link must be maintained) — or a broken
                # link under churn, in which case the region is lost for
                # this query; the paper's churn runs drop it the same way.
                # (An unfilled slot is locally indistinguishable from an
                # empty cell, so the defer-on-broken-link option applies
                # only where breakage is *observable*: the timeout path.
                # For the same reason it does not count against the
                # coverage estimate: on a converged overlay an unfilled
                # slot is a genuinely empty cell, and charging it would
                # mark every clean sparse-overlay query as degraded.)
                self.observer.query_dropped(
                    self.address, query_id, reason="empty_cell"
                )
                continue
            self._send_query(
                query_id, state, neighbor, state.level, state.dimensions,
                (state.level, dim),
            )
            return True
        return False

    def _fan_out_zero(self, query_id: QueryId, state: _PendingQuery) -> None:
        """Fan the query out to the matching members of the own C0 cell."""
        for neighbor in self.routing.zero_neighbors():
            address = neighbor.address
            if address in state.matching or address in state.failed:
                continue
            if not state.query.matches(neighbor.values):
                continue
            self._send_query(query_id, state, neighbor, -1, 0, None)

    def _send_query(
        self,
        query_id: QueryId,
        state: _PendingQuery,
        neighbor: NodeDescriptor,
        level: int,
        dimensions: int,
        slot: Optional[Tuple[int, int]],
        fresh: bool = True,
        hedge_of: Optional[Address] = None,
    ) -> None:
        """Send one QUERY, guarded by the reliability seam's timers.

        *fresh* is False when a retry, deferral or hedge re-opens a
        branch; *hedge_of* names the primary a hedge copies.
        """
        address = neighbor.address
        message = QueryMessage(
            query_id, self.address, state.query, state.index_ranges,
            state.sigma, level, dimensions,
            max(self.config.min_timeout, state.budget * BUDGET_DECAY),
        )
        state.waiting[address] = self.reliability.forward_sent(
            state, address, message, slot, hedge_of
        )
        if fresh:
            state.branch_total += 1
        dim = slot[1] if slot is not None else None
        self.observer.query_forwarded(
            self.address, address, query_id, level, dim, dimensions
        )
        self.transport.send(self.address, address, message)

    # -- completion --------------------------------------------------------------------

    def _complete(self, query_id: QueryId, state: _PendingQuery) -> None:
        state.completed = True
        self.reliability.query_completed(state)
        pending = self.pending
        if query_id in pending:
            del pending[query_id]
            if not pending:
                # A dict keeps its table after its last pop; most nodes
                # hold one query at a time, so drop the dict with it.
                self.pending = EMPTY
        descriptors = list(state.matching.values())
        # σ met means the job is done regardless of unexplored regions; a
        # full coverage estimate otherwise reports honestly how much of
        # the subtree the candidates were actually drawn from.
        coverage = 1.0 if state.sigma_met() else state.coverage()
        if state.parent is None:
            # Below 1.0 the observer sees an explicit graceful degradation
            # instead of a silent partial answer: every alternate was
            # open-circuit, a region was partitioned, or branches timed
            # out dry.
            self.observer.query_completed(
                self.address, query_id, descriptors, coverage
            )
            if state.on_complete is not None:
                state.on_complete(query_id, descriptors)
        else:
            self._send_reply(
                state.parent, query_id, tuple(descriptors), coverage=coverage
            )

    def _send_reply(
        self,
        parent: Address,
        query_id: QueryId,
        matching: Tuple[NodeDescriptor, ...],
        coverage: float = 1.0,
        duplicate: bool = False,
    ) -> None:
        self.observer.reply_sent(self.address, parent, query_id)
        self.transport.send(
            self.address,
            parent,
            ReplyMessage(query_id, self.address, matching, coverage, duplicate),
        )

    def _remember(self, query_id: QueryId) -> None:
        """Move *query_id* to the fresh end of the bounded seen-LRU."""
        seen = self._seen
        if query_id in seen:
            del seen[query_id]  # re-inserted at the fresh end
        elif seen is EMPTY:
            seen = self._seen = {}
        seen[query_id] = None
        if len(seen) > self.config.seen_history:
            if type(seen) is dict:
                # Full for the first time. A dict finds its oldest entry
                # by scanning past every slot earlier evictions emptied;
                # an OrderedDict pops it in O(1).
                seen = self._seen = OrderedDict(seen)
            seen.popitem(last=False)

    # -- crash-restart ----------------------------------------------------------------

    def restart(self) -> None:
        """Forget all in-flight query state after a crash-restart.

        The routing table is deliberately *kept*, stale links and all: a
        restarted node rejoins under the same identity with whatever view
        of the overlay it had at crash time, and must rely on gossip
        repair and its neighbors' timeout machinery to become useful
        again — the Section 6.6 recovery story, but for process restarts
        rather than population turnover. Pending queries and the seen set
        die with the process, exactly as they would in a real restart.
        """
        self.reliability.restart(self.pending.values())
        self.pending = EMPTY
        self._seen = EMPTY
        self.dynamic_values = EMPTY
