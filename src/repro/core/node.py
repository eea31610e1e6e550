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

One deliberate deviation from the pseudo-code as printed: after the level-0
fan-out we set the local level to ``-1`` so the fan-out happens at most once
and, when *no* C0 member matched, the code falls through to the
empty-``waiting`` check and replies instead of hanging (the printed code
``return``\\ s unconditionally after the loop, which would leave the parent
waiting forever in that corner case).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.attributes import AttributeSchema
from repro.core.cells import overlapping_dimensions
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.health import HealthConfig, HealthMonitor
from repro.core.messages import QueryId, QueryMessage, ReplyMessage
from repro.core.observer import ProtocolObserver
from repro.core.query import Query
from repro.core.routing import RoutingTable
from repro.core.transport import TimerHandle, Transport
from repro.util.intervals import Interval

CompletionCallback = Callable[[QueryId, List[NodeDescriptor]], None]


@dataclass(frozen=True)
class NodeConfig:
    """Tunable knobs of the node protocol."""

    #: Seconds to wait for a reply before presuming the neighbor failed.
    query_timeout: float = 30.0
    #: Fraction of the remaining timeout budget handed to each child, so
    #: failure timers deep in the dissemination tree fire before shallow
    #: ones and partial results propagate back instead of being lost.
    budget_decay: float = 0.75
    #: Floor for the decayed timeout budget.
    min_timeout: float = 0.5
    #: Minimum slack, in seconds, between a child's timeout budget and the
    #: parent's failure timer. The decay margin ``budget * (1 - decay)``
    #: ignores link latency entirely and shrinks to *zero* once budgets hit
    #: the ``min_timeout`` floor, so deep branches over slow links time out
    #: at the parent before the child's own reply can arrive, triggering
    #: spurious retry storms. The failure timer is therefore never armed
    #: closer than this headroom to the child's budget. Size it to one
    #: round trip on the deployment's links and no larger: excess headroom
    #: compounds down the tree (each floored child waits ``min_timeout +
    #: headroom`` while its parent only allows one headroom of slack), so
    #: over-sizing it makes parents abandon live branches.
    latency_headroom: float = 0.25
    #: Re-forward to an alternate neighbor after a timeout (Section 4.3).
    #: The paper's churn experiments disable this ("the message is dropped")
    #: to avoid biasing delivery measurements.
    retry_on_timeout: bool = True
    #: Fallback descriptors kept per neighboring-cell slot.
    alternates_per_slot: int = 3
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
    #: Forget seen query ids older than this many seconds (None = keep
    #: until the ``seen_history`` size bound evicts them). A long-running
    #: node otherwise pins ``seen_history`` dead ids forever.
    seen_ttl: Optional[float] = None
    #: Stretch failure timers by the per-neighbor RTT estimate (Jacobson
    #: ``srtt + 4*rttvar`` with Karn backoff), scaled by the depth of the
    #: subtree the timer guards, when that exceeds the static decayed
    #: budget; and skip neighbors whose circuit breaker is open. The
    #: static formula is the floor (a subtree reply may legitimately take
    #: the whole budget window) and the span-scaled ``rto_max`` the
    #: ceiling, so a spike-inflated estimate can never stall failure
    #: detection indefinitely.
    adaptive_timeouts: bool = True
    #: Speculatively re-forward a slow branch to the best alternate after a
    #: p99-derived hedge delay (first reply wins; the seen-LRU suppresses
    #: the duplicate exploration on the receiving side, preserving I3).
    hedge: bool = True
    #: Estimator/breaker/hedging knobs (see :mod:`repro.core.health`).
    health: HealthConfig = field(default_factory=HealthConfig)


@dataclass(slots=True)
class _Outstanding:
    """Book-keeping for one entry of the ``waiting`` table."""

    timer: Optional[TimerHandle]
    slot: Optional[Tuple[int, int]]
    sent_level: int
    sent_dimensions: frozenset
    #: Send time, for RTT sampling when the reply comes back.
    sent_at: float = 0.0
    #: True when this entry is a speculative (hedged) copy of a branch.
    hedged: bool = False
    #: The other member of a hedge pair (primary <-> hedge), if both are
    #: still outstanding. First reply wins: it cancels the partner.
    partner: Optional[Address] = None
    #: Pending speculation timer for this entry (primaries only).
    hedge_timer: Optional[TimerHandle] = None


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
    waiting: Dict[Address, _Outstanding] = field(default_factory=dict)
    failed: Set[Address] = field(default_factory=set)
    on_complete: Optional[CompletionCallback] = None
    completed: bool = False
    #: Branches parked on a broken link awaiting gossip repair.
    deferred: int = 0
    #: Live defer-retry timers, so completion can cancel parked branches
    #: instead of leaking timers that fire into a finished query.
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
        return not self.waiting and self.deferred == 0

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


def _dimension_mask(dimensions: frozenset) -> int:
    """The wire form of a dimension set as the node's internal bitmask."""
    mask = 0
    for dim in dimensions:
        mask |= 1 << dim
    return mask


def _dimension_set(mask: int) -> frozenset:
    """The node's dimension bitmask as the ``frozenset`` messages carry."""
    dims = []
    while mask:
        bit = mask & -mask
        dims.append(bit.bit_length() - 1)
        mask ^= bit
    return frozenset(dims)


class ResourceNode:
    """Protocol logic of a single overlay node (transport-agnostic)."""

    __slots__ = (
        "schema",
        "transport",
        "config",
        "observer",
        "health",
        "descriptor",
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
        #: Per-neighbor failure-detection state, shared with the gossip
        #: layer when the embedding (e.g. :class:`~repro.sim.host.SimHost`)
        #: passes one in; standalone nodes build their own cold monitor.
        self.health = health or HealthMonitor(self.config.health)
        self.descriptor = descriptor
        self.routing = RoutingTable(
            descriptor,
            schema.dimensions,
            schema.max_level,
            alternates_per_slot=self.config.alternates_per_slot,
            zero_capacity=self.config.zero_capacity,
        )
        self.pending: Dict[QueryId, _PendingQuery] = {}
        #: Recently seen query ids in LRU order → last-seen timestamp when
        #: ``seen_ttl`` is set (for expiry), else ``None``; see
        #: :meth:`_remember`.
        self._seen: "OrderedDict[QueryId, Optional[float]]" = OrderedDict()
        self._query_counter = itertools.count()
        #: Live, rapidly-changing local state checked against the dynamic
        #: constraints of queries (footnote 1 of the paper). Not gossiped,
        #: not a routing dimension — always fresh by construction.
        self.dynamic_values: Dict[str, float] = {}

    # -- identity ---------------------------------------------------------------

    @property
    def address(self) -> Address:
        """This node's address."""
        return self.descriptor.address

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
        if value is None:
            self.dynamic_values.pop(name, None)
        else:
            self.dynamic_values[name] = float(value)

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
        query_id: QueryId = (self.address, next(self._query_counter))
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
        self.pending[query_id] = state
        self._remember(query_id)
        matched = self._self_matches(query)
        self.observer.query_received(self.address, query_id, matched)
        if matched:
            state.matching[self.address] = self.descriptor
        if state.sigma_met():
            self._complete(query_id, state)
        else:
            self._forward(query_id, state)
        return query_id

    # -- message handling -----------------------------------------------------------

    def handle_message(self, sender: Address, message: object) -> None:
        """Dispatch an incoming message (transport callback)."""
        if isinstance(message, QueryMessage):
            self.receive_query(message)
        elif isinstance(message, ReplyMessage):
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
            dimensions=_dimension_mask(message.dimensions),
            parent=message.sender,
            budget=message.budget,
        )
        self.pending[query_id] = state
        self._remember(query_id)
        matched = self._self_matches(message.query)
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
        if outstanding is None:
            if sender in state.failed:
                # The "failed" neighbor answered after all: the timeout was
                # spurious. Rehabilitate it (breaker success) and let
                # retries pick it again.
                self.observer.spurious_timeout(self.address, sender, query_id)
                self.health.spurious_timeout()
                self.health.record_success(sender)
                state.failed.discard(sender)
            return
        self._cancel_entry(outstanding)
        if outstanding.sent_level < 0:
            # A C0 fan-out reply is an immediate echo — the one reply
            # whose latency is a clean link round trip. Replies to slot
            # forwards measure the child's whole subtree exploration, a
            # span-dependent quantity that must NOT train the link
            # estimator (the failure timer reconstructs subtree time from
            # link time by span-scaling; feeding it subtree samples would
            # compound the span twice).
            self.health.observe_rtt(
                sender, self.transport.now() - outstanding.sent_at
            )
        else:
            self.health.record_success(sender)
        if outstanding.partner is not None:
            # First reply of a live hedge pair: merge and *detach* — never
            # cancel the survivor. The seen-LRU splits the subtree between
            # the two copies (each node under the slot answers whichever
            # copy reached it first and duplicate-rejects the other), so
            # the two replies carry disjoint shares of the matches and
            # both must be awaited; cancelling the one still in flight
            # would forfeit its share. Cancellation is only ever applied
            # where it is safe: query completion.
            partner = state.waiting.get(outstanding.partner)
            if partner is not None:
                partner.partner = None
                if outstanding.hedged:
                    # Hedge first: its share is merged now (the latency
                    # win); the primary still carries the branch's
                    # coverage bookkeeping, so stop here.
                    if message.matching and not message.duplicate:
                        self.health.hedge_won()
                    else:
                        self.health.hedge_lost()
                    return
                # Primary first: the speculation saved no latency. The
                # detached copy is awaited like a normal branch from here
                # on (its share merges on reply), so swap its
                # maximum-patience timer for an ordinary failure window.
                partner.hedged = False
                self._rearm_survivor(
                    query_id, state, outstanding.partner, partner
                )
                self.health.hedge_lost()
        elif outstanding.hedged:
            # Sole survivor of a pair whose primary already timed out:
            # the speculation is what kept the branch alive.
            self.health.hedge_won()
        state.branch_coverage += max(0.0, min(1.0, message.coverage))
        if not state.idle():
            return
        if not state.sigma_met() and state.level >= 0:
            self._forward(query_id, state)
        else:
            self._complete(query_id, state)

    def _cancel_entry(self, outstanding: _Outstanding) -> None:
        """Cancel the timers attached to one ``waiting`` entry."""
        if outstanding.timer is not None:
            self.transport.cancel(outstanding.timer)
            outstanding.timer = None
        if outstanding.hedge_timer is not None:
            self.transport.cancel(outstanding.hedge_timer)
            outstanding.hedge_timer = None

    # -- forwarding (Figure 5, ``forward``) ----------------------------------------

    def _forward(self, query_id: QueryId, state: _PendingQuery) -> None:
        while state.level > 0:
            if self._forward_at_level(query_id, state):
                return
            state.level -= 1
            state.dimensions = (1 << self.schema.dimensions) - 1
            state.overlapping = None
        if state.level == 0:
            state.level = -1  # the C0 fan-out happens exactly once
            self._fan_out_zero(query_id, state)
            if not state.idle():
                return
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
            neighbor = self._usable_neighbor(state, state.level, dim)
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
                query_id, state, neighbor, state.level,
                _dimension_set(state.dimensions), slot=(state.level, dim),
            )
            return True
        return False

    def _fan_out_zero(self, query_id: QueryId, state: _PendingQuery) -> None:
        """Fan the query out to the matching members of the own C0 cell."""
        for neighbor in self.routing.zero_neighbors():
            if neighbor.address in state.matching:
                continue
            if neighbor.address in state.failed:
                continue
            if not state.query.matches(neighbor.values):
                continue
            self._send_query(
                query_id, state, neighbor, -1, frozenset(), slot=None
            )

    def _usable_neighbor(
        self, state: _PendingQuery, level: int, dim: int
    ) -> Optional[NodeDescriptor]:
        neighbor = self.routing.neighbor(level, dim)
        if neighbor is not None and neighbor.address not in self._excluded(state):
            return neighbor
        return self._pick_alternative(state, level, dim)

    def _pick_alternative(
        self, state: _PendingQuery, level: int, dim: int
    ) -> Optional[NodeDescriptor]:
        """Fail-over choice for a slot, avoiding open-circuit peers.

        Preference order: any inhabitant whose breaker is not open, then —
        when every candidate is suspect — an open-circuit inhabitant after
        all. Trying a suspect peer costs one (adaptively sized) timeout;
        dropping the region outright forfeits its matches, so breakers
        only ever *reorder* fail-over, never shrink reachability.
        """
        exclude = self._excluded(state)
        choice = self.routing.alternative(level, dim, exclude)
        if choice is None and exclude is not state.failed:
            choice = self.routing.alternative(level, dim, state.failed)
        return choice

    def _excluded(self, state: _PendingQuery) -> Set[Address]:
        """Addresses not to forward to: failed this query or open-circuit."""
        if not self.config.adaptive_timeouts:
            return state.failed
        open_now = self.health.open_addresses(self.transport.now())
        return state.failed | open_now if open_now else state.failed

    def _send_query(
        self,
        query_id: QueryId,
        state: _PendingQuery,
        neighbor: NodeDescriptor,
        level: int,
        dimensions: frozenset,
        slot: Optional[Tuple[int, int]],
        fresh: bool = True,
        hedge_of: Optional[Address] = None,
    ) -> None:
        child_budget = max(
            self.config.min_timeout,
            state.budget * self.config.budget_decay,
        )
        message = QueryMessage(
            query_id=query_id,
            sender=self.address,
            query=state.query,
            index_ranges=state.index_ranges,
            sigma=state.sigma,
            level=level,
            dimensions=dimensions,
            budget=child_budget,
        )
        delay, floor = self._failure_delay(
            state, level, neighbor.address, hedge=hedge_of is not None
        )
        now = self.transport.now()
        timer = self.transport.call_later(
            delay,
            lambda: self._on_timeout(query_id, neighbor.address),
        )
        entry = _Outstanding(
            timer=timer,
            slot=slot,
            sent_level=level,
            sent_dimensions=dimensions,
            sent_at=now,
            hedged=hedge_of is not None,
        )
        state.waiting[neighbor.address] = entry
        if fresh:
            state.branch_total += 1
        if hedge_of is not None:
            entry.partner = hedge_of
            primary = state.waiting.get(hedge_of)
            if primary is not None:
                primary.partner = neighbor.address
        elif slot is not None:
            self._maybe_arm_hedge(query_id, state, entry, neighbor.address, floor, delay)
        self.observer.query_forwarded(
            self.address,
            neighbor.address,
            query_id,
            level,
            slot[1] if slot is not None else None,
            dimensions,
        )
        self.transport.send(self.address, neighbor.address, message)

    def _failure_delay(
        self,
        state: _PendingQuery,
        level: int,
        address: Address,
        hedge: bool,
    ) -> Tuple[float, float]:
        """Failure-timer delay for a forward, plus the child budget floor.

        The failure timer must outlast the child's own budget by enough
        to cover the round trip, or the parent declares the neighbor
        dead while its (partial) reply is still in flight and re-forwards
        — a retry storm under WAN latency. The decay margin provides
        that slack at the top of the tree but collapses to zero at the
        min_timeout floor, so enforce an explicit clamped headroom.

        Per-neighbor adaptive timeout: the static decayed budget is the
        floor — the reply this timer guards is a whole subtree
        (including the child's own retries), so no RTT estimate, however
        confident, may undercut the budget window the retry math is
        sized for. The measured estimate only *extends* the wait, and is
        scaled by the subtree *span* (hop-layers below the child: levels
        ``level-1 .. 0`` plus the C0 fan-out) because the reply travels
        the critical path of that whole subtree, not one round trip — a
        spike that inflates every hop inflates the top-level reply
        span-fold. The span-scaled ``rto_max`` bounds the stretch so
        failure detection never stalls (invariant I1).

        A live hedge copy gets the ceiling outright: while its primary's
        (normal) timer guards the branch, the copy is a speculative
        bonus whose only timing duty is to eventually unblock completion
        if both pair members die. A tight timer on it would re-create
        the spurious timeouts hedging exists to absorb — the copy's late
        reply contradicting its own timer. When the copy becomes the
        branch's sole carrier, ``_rearm_survivor`` restores a normal
        window.
        """
        child_budget = max(
            self.config.min_timeout,
            state.budget * self.config.budget_decay,
        )
        headroom = min(
            max(self.config.latency_headroom, 0.0), self.config.query_timeout
        )
        floor = child_budget + headroom
        static_timer = max(state.budget, floor)
        delay = static_timer
        if self.config.adaptive_timeouts:
            rto = self.health.rto(address)
            if rto is not None:
                span = max(1, level + 2)
                ceiling = max(static_timer, span * self.config.health.rto_max)
                if hedge:
                    delay = ceiling
                else:
                    delay = min(max(static_timer, span * rto), ceiling)
        return delay, floor

    def _rearm_survivor(
        self,
        query_id: QueryId,
        state: _PendingQuery,
        address: Address,
        entry: _Outstanding,
    ) -> None:
        """Give a detached hedge copy a normal failure window from now.

        A hedge copy is armed with maximum patience while its primary's
        timer guards the branch. The moment the copy becomes the
        branch's sole carrier — the primary replied or timed out — that
        patience would turn into stalled failure detection (a copy sent
        to a dead alternate would hold completion open for the full
        ceiling), so its timer is re-armed with the ordinary adaptive
        delay, measured from now.
        """
        if entry.timer is not None:
            self.transport.cancel(entry.timer)
        delay, _ = self._failure_delay(
            state, entry.sent_level, address, hedge=False
        )
        entry.timer = self.transport.call_later(
            delay, lambda: self._on_timeout(query_id, address)
        )

    # -- hedged forwards ---------------------------------------------------------------

    def _maybe_arm_hedge(
        self,
        query_id: QueryId,
        state: _PendingQuery,
        entry: _Outstanding,
        neighbor: Address,
        floor: float,
        timer_delay: float,
    ) -> None:
        """Arm a speculation timer for a slot forward, when evidence allows.

        A hedge fires only when the neighbor's estimator has real samples
        (a p99-style reply-time bound exists), and the hedge delay is both
        floored at a fraction of the child's budget window — estimators
        trained on fast exchanges must not speculate against a deep
        forward whose reply legitimately takes longer than any single
        round trip — and required to undercut the failure timer by a
        margin (a hedge firing just before the timeout saves nothing).
        """
        if not self.config.hedge:
            return
        bound = self.health.hedge_delay(neighbor)
        if bound is None:
            return
        # The estimator's bound is per-link; a slot forward's reply covers
        # a whole subtree whose depth grows with the level, so scale the
        # bound by the same span factor the failure timer uses. Without
        # this, a top-level forward is hedged after a link-scale delay and
        # the overlay speculates constantly during global slowdowns.
        span = max(1, entry.sent_level + 2)
        hedge_delay = max(span * bound, self.config.health.hedge_fraction * floor)
        if hedge_delay >= 0.9 * timer_delay:
            return
        entry.hedge_timer = self.transport.call_later(
            hedge_delay, lambda: self._fire_hedge(query_id, neighbor)
        )

    def _fire_hedge(self, query_id: QueryId, primary: Address) -> None:
        """Speculatively re-forward a slow branch to the best alternate."""
        state = self.pending.get(query_id)
        if state is None or state.completed:
            return
        outstanding = state.waiting.get(primary)
        if outstanding is None or outstanding.partner is not None:
            return
        outstanding.hedge_timer = None
        slot = outstanding.slot
        if slot is None or state.sigma_met():
            return
        exclude = self._excluded(state) | set(state.waiting)
        alternate = self.routing.alternative(slot[0], slot[1], exclude)
        if alternate is None:
            return
        self.observer.query_hedged(
            self.address, primary, alternate.address, query_id
        )
        self.health.hedge_launched()
        self._send_query(
            query_id,
            state,
            alternate,
            outstanding.sent_level,
            outstanding.sent_dimensions,
            slot=slot,
            fresh=False,
            hedge_of=primary,
        )

    # -- timeouts --------------------------------------------------------------------

    def _on_timeout(self, query_id: QueryId, neighbor: Address) -> None:
        state = self.pending.get(query_id)
        if state is None or state.completed:
            return
        outstanding = state.waiting.pop(neighbor, None)
        if outstanding is None:
            return
        self._cancel_entry(outstanding)
        state.failed.add(neighbor)
        self.observer.neighbor_timeout(self.address, neighbor, query_id)
        self.routing.remove(neighbor)
        self.health.record_failure(neighbor, self.transport.now())
        if outstanding.partner is not None:
            # The other member of the hedge pair is still in flight and
            # keeps the branch alive; no retry, no deferral, no drop.
            partner = state.waiting.get(outstanding.partner)
            if partner is not None:
                partner.partner = None
                if partner.hedged:
                    # The hedge copy is now the branch's sole carrier:
                    # trade its maximum-patience timer for an ordinary
                    # failure window so detection doesn't stall.
                    self._rearm_survivor(
                        query_id, state, outstanding.partner, partner
                    )
            if outstanding.hedged:
                self.health.hedge_lost()
            return
        if self.config.retry_on_timeout and outstanding.slot is not None:
            level, dim = outstanding.slot
            alternate = self._pick_alternative(state, level, dim)
            if alternate is not None:
                self._send_query(
                    query_id,
                    state,
                    alternate,
                    outstanding.sent_level,
                    outstanding.sent_dimensions,
                    slot=outstanding.slot,
                    fresh=False,
                )
                return
        if (
            self.config.defer_broken_links is not None
            and outstanding.slot is not None
        ):
            # A link we used just broke and no alternate is known: park the
            # branch and let the gossip layer repair the slot (Section 6.6's
            # "delay the query until the overlay has been restored").
            self._defer_branch(
                query_id,
                state,
                outstanding.slot,
                outstanding.sent_level,
                outstanding.sent_dimensions,
            )
            return
        # The branch is abandoned for good: no alternate to retry and no
        # deferral window. Account it exactly once, on this path — the
        # same event the forward-time drop and the deferral give-up emit.
        self.observer.query_dropped(
            self.address, query_id, reason="timeout_exhausted"
        )
        if not state.idle():
            return
        if not state.sigma_met() and state.level >= 0:
            self._forward(query_id, state)
        else:
            self._complete(query_id, state)

    # -- deferred branches (broken-link repair window) -------------------------------

    def _defer_branch(
        self,
        query_id: QueryId,
        state: _PendingQuery,
        slot: Tuple[int, int],
        sent_level: int,
        sent_dimensions: frozenset,
    ) -> None:
        state.deferred += 1
        self.observer.branch_deferred(self.address, query_id)
        handle_box: List[TimerHandle] = []

        def fire() -> None:
            if handle_box:
                try:
                    state.defer_timers.remove(handle_box[0])
                except ValueError:
                    pass
            self._retry_deferred(query_id, slot, sent_level, sent_dimensions)

        handle = self.transport.call_later(self.config.defer_broken_links, fire)
        handle_box.append(handle)
        state.defer_timers.append(handle)

    def _retry_deferred(
        self,
        query_id: QueryId,
        slot: Tuple[int, int],
        sent_level: int,
        sent_dimensions: frozenset,
    ) -> None:
        state = self.pending.get(query_id)
        if state is None or state.completed:
            return
        state.deferred -= 1
        level, dim = slot
        neighbor = self._pick_alternative(state, level, dim)
        if neighbor is not None and not state.sigma_met():
            self._send_query(
                query_id, state, neighbor, sent_level, sent_dimensions,
                slot=slot, fresh=False,
            )
            return
        if neighbor is None:
            self.observer.query_dropped(
                self.address, query_id, reason="defer_exhausted"
            )
        if not state.idle():
            return
        if not state.sigma_met() and state.level >= 0:
            self._forward(query_id, state)
        else:
            self._complete(query_id, state)

    # -- completion --------------------------------------------------------------------

    def _complete(self, query_id: QueryId, state: _PendingQuery) -> None:
        state.completed = True
        for outstanding in state.waiting.values():
            self._cancel_entry(outstanding)
            if outstanding.hedged:
                self.health.hedge_cancelled()
        state.waiting.clear()
        for timer in state.defer_timers:
            self.transport.cancel(timer)
        state.defer_timers.clear()
        state.deferred = 0
        self.pending.pop(query_id, None)
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
            ReplyMessage(
                query_id=query_id,
                sender=self.address,
                matching=matching,
                coverage=coverage,
                duplicate=duplicate,
            ),
        )

    def _remember(self, query_id: QueryId) -> None:
        ttl = self.config.seen_ttl
        # Without a TTL only the size bound applies: no clock read and no
        # timestamp to keep per entry.
        now = None if ttl is None else self.transport.now()
        self._seen[query_id] = now
        self._seen.move_to_end(query_id)
        if ttl is not None:
            horizon = now - ttl
            while self._seen:
                oldest_id, stamp = next(iter(self._seen.items()))
                if stamp >= horizon:
                    break
                del self._seen[oldest_id]
        while len(self._seen) > self.config.seen_history:
            self._seen.popitem(last=False)

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
        for state in self.pending.values():
            state.completed = True
            for outstanding in state.waiting.values():
                self._cancel_entry(outstanding)
            for timer in state.defer_timers:
                self.transport.cancel(timer)
        self.pending.clear()
        self._seen.clear()
        self.dynamic_values.clear()
