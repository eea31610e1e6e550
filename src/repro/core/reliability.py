"""Failure handling of the node protocol: every timer a query arms.

The paper guards each forward with one static timeout ``T(q)`` (Section
4.3): on expiry the neighbor is presumed failed and the query re-forwarded.
:class:`Reliability` owns that timer and what grew around it, so that
:mod:`repro.core.node` reads as Figures 4 and 5:

* **sizing** — each child gets a decayed share of its parent's budget; the
  failure timer outlasts it by a latency headroom and, with
  ``adaptive_timeouts``, stretches to the RTT estimate of
  :mod:`repro.core.health`, scaled by the depth of the guarded subtree;
* **hedges** — a slot forward past a p99-style reply bound is re-sent to
  the slot's best alternate, and both replies of the pair are merged;
* **on timeout** — retry an alternate, park the branch until gossip
  repairs the link (``defer_broken_links``), or drop it;
* **breaker-aware fail-over** — open-circuit neighbors are tried last;
* **teardown** — completion and restart cancel every timer of a query.

The node calls in when it picks a slot's neighbor, sends a forward,
receives a reply, completes a query and restarts. This module calls back
into the node to send retries and hedges (``_send_query``) and to resume a
query whose last outstanding branch settled (``_settle``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Set, Tuple

from repro.core.descriptors import Address, NodeDescriptor
from repro.core.health import HealthMonitor
from repro.core.messages import QueryId, QueryMessage, ReplyMessage
from repro.core.transport import TimerHandle

if TYPE_CHECKING:
    from repro.core.node import NodeConfig, ResourceNode, _PendingQuery

#: Fraction of the remaining timeout budget handed to each child, so
#: failure timers deep in the dissemination tree fire before shallow ones
#: and partial results propagate back instead of being lost.
BUDGET_DECAY = 0.75
#: The hedge delay never undercuts this fraction of the child's budget
#: window: estimators trained on fast exchanges (gossip answers, leaf
#: replies) must not speculate against a deep forward whose reply
#: legitimately takes longer than any individual round trip.
HEDGE_FRACTION = 0.5


@dataclass(slots=True)
class Outstanding:
    """Book-keeping for one entry of the ``waiting`` table."""

    timer: Optional[TimerHandle]
    slot: Optional[Tuple[int, int]]
    #: The QUERY this entry waits on a reply to.
    message: QueryMessage
    #: Send time, for RTT sampling when the reply comes back.
    sent_at: float = 0.0
    #: True when this entry is a speculative (hedged) copy of a branch.
    hedged: bool = False
    #: The other member of a hedge pair (primary <-> hedge), while both
    #: are outstanding.
    partner: Optional[Address] = None
    #: Pending speculation timer for this entry (primaries only).
    hedge_timer: Optional[TimerHandle] = None


class Reliability:
    """The timers, retries, hedges and fail-over of one node."""

    __slots__ = ("node", "config", "transport", "health", "_headroom")

    def __init__(
        self, node: "ResourceNode", health: Optional[HealthMonitor] = None
    ) -> None:
        self.node = node
        self.config = node.config
        self.transport = node.transport
        #: Per-neighbor failure-detection state, shared with the gossip
        #: layer when the embedding (e.g. :class:`~repro.sim.host.SimHost`)
        #: passes one in; standalone nodes build their own cold monitor.
        self.health = health or HealthMonitor(self.config.health)
        config = self.config
        #: Slack between a child's budget and its parent's failure timer
        #: (see :meth:`_failure_delay`); the config is frozen.
        self._headroom = min(
            max(config.latency_headroom, 0.0), config.query_timeout
        )

    @property
    def gossip_health(self) -> Optional[HealthMonitor]:
        """The monitor gossip maintenance should feed, or None.

        A static-timeout node gets a static gossip layer too, so the chaos
        harness's compare-static episodes measure the whole adaptive stack
        against the whole static one.
        """
        return self.health if self.config.adaptive_timeouts else None

    # -- neighbor choice ---------------------------------------------------------

    def neighbor(
        self, state: "_PendingQuery", level: int, dim: int
    ) -> Optional[NodeDescriptor]:
        """The inhabitant of slot ``(level, dim)`` to forward to, if any.

        Preference order: the selected neighbor, then an alternate, among
        the inhabitants not failed for this query and whose breaker is
        not open; then — when every candidate is suspect — an open-circuit
        inhabitant after all. Trying a suspect peer costs one (adaptively
        sized) timeout; dropping the region outright forfeits its matches,
        so breakers only ever *reorder* fail-over, never shrink
        reachability.
        """
        routing = self.node.routing
        exclude = self._excluded(state)
        choice = routing.alternative(level, dim, exclude)
        if choice is None and exclude is not state.failed:
            choice = routing.alternative(level, dim, state.failed)
        return choice

    def _excluded(self, state: "_PendingQuery") -> Set[Address]:
        """Addresses not to forward to: failed this query or open-circuit."""
        if not self.config.adaptive_timeouts or not self.health.tripped:
            return state.failed
        open_now = self.health.open_addresses(self.transport.now())
        return state.failed | open_now if open_now else state.failed

    # -- a forward is sent -------------------------------------------------------

    def forward_sent(
        self,
        state: "_PendingQuery",
        address: Address,
        message: QueryMessage,
        slot: Optional[Tuple[int, int]],
        hedge_of: Optional[Address],
    ) -> Outstanding:
        """Arm the timers guarding one forward; returns its waiting entry.

        *hedge_of* names the primary when the forward is a hedge copy.
        """
        hedged = hedge_of is not None
        delay, floor = self._failure_delay(state, address, message, hedged)
        entry = Outstanding(
            timer=self.transport.call_later(
                delay, self._on_timeout, message.query_id, address
            ),
            slot=slot,
            message=message,
            sent_at=self.transport.now(),
            hedged=hedged,
            partner=hedge_of,
        )
        if not hedged and slot is not None:
            self._maybe_arm_hedge(entry, address, floor, delay)
        return entry

    def _failure_delay(
        self,
        state: "_PendingQuery",
        address: Address,
        message: QueryMessage,
        hedge: bool,
    ) -> Tuple[float, float]:
        """Failure-timer delay for a forward, plus the child budget floor.

        The timer must outlast the child's own budget by a round trip,
        or the parent declares the neighbor dead while its (partial) reply
        is in flight and re-forwards — a retry storm under WAN latency.
        The decay margin gives that slack at the top of the tree but
        collapses at the min_timeout floor, hence the clamped headroom.

        The adaptive estimate only *extends* that static window, since the
        guarded reply is a whole subtree (the child's retries included).
        It is scaled by the subtree *span* (levels ``level-1 .. 0`` plus
        the C0 fan-out), because a spike inflates every hop of the
        subtree's critical path; the span-scaled ``rto_max`` caps it so
        failure detection never stalls (invariant I1).

        A live hedge copy gets that ceiling outright: its primary's timer
        guards the branch, and a tight timer on the copy would re-create
        the spurious timeouts hedging absorbs. ``_rearm_survivor`` gives
        it a normal window once it carries the branch alone.
        """
        config = self.config
        floor = message.budget + self._headroom
        static_timer = max(state.budget, floor)
        delay = static_timer
        if config.adaptive_timeouts:
            rto = self.health.rto(address)
            if rto is not None:
                span = message.level + 2  # levels run from -1 (C0) up
                ceiling = max(static_timer, span * config.health.rto_max)
                if hedge:
                    delay = ceiling
                else:
                    delay = min(max(static_timer, span * rto), ceiling)
        return delay, floor

    def _rearm_survivor(
        self, state: "_PendingQuery", address: Address, entry: Outstanding
    ) -> None:
        """Give a detached hedge copy a normal failure window from now.

        Once the copy carries the branch alone (its primary replied or
        timed out), the copy's maximum patience would stall failure
        detection, e.g. for a copy sent to a dead alternate.
        """
        if entry.timer is not None:
            self.transport.cancel(entry.timer)
        delay, _ = self._failure_delay(state, address, entry.message, False)
        entry.timer = self.transport.call_later(
            delay, self._on_timeout, entry.message.query_id, address
        )

    def _detach(
        self, state: "_PendingQuery", entry: Outstanding
    ) -> Optional[Outstanding]:
        """Split *entry* from its still-outstanding hedge partner, if any."""
        partner = state.waiting.get(entry.partner)
        if partner is not None:
            partner.partner = None
        return partner

    def _resend(
        self,
        state: "_PendingQuery",
        branch: Outstanding,
        neighbor: NodeDescriptor,
        hedge_of: Optional[Address] = None,
    ) -> None:
        """Re-open *branch* toward *neighbor*: a retry, deferral or hedge."""
        sent = branch.message
        self.node._send_query(
            sent.query_id, state, neighbor, sent.level, sent.dimensions,
            branch.slot, fresh=False, hedge_of=hedge_of,
        )

    # -- hedged forwards ---------------------------------------------------------

    def _maybe_arm_hedge(
        self,
        entry: Outstanding,
        neighbor: Address,
        floor: float,
        timer_delay: float,
    ) -> None:
        """Arm a speculation timer for a slot forward, when evidence allows.

        A hedge needs real samples behind the neighbor's p99-style bound;
        its delay is floored at a fraction of the child's budget window
        and must undercut the failure timer by a margin (a hedge firing
        just before the timeout saves nothing).
        """
        if not self.config.hedge:
            return
        bound = self.health.hedge_delay(neighbor)
        if bound is None:
            return
        # The bound is per link, but the reply covers a subtree: scale it
        # by the failure timer's span, or a top-level forward is hedged
        # after a link-scale delay during every global slowdown.
        span = entry.message.level + 2
        hedge_delay = max(span * bound, HEDGE_FRACTION * floor)
        if hedge_delay >= 0.9 * timer_delay:
            return
        entry.hedge_timer = self.transport.call_later(
            hedge_delay, self._fire_hedge, entry.message.query_id, neighbor
        )

    def _fire_hedge(self, query_id: QueryId, primary: Address) -> None:
        """Speculatively re-forward a slow branch to the best alternate."""
        node = self.node
        state = node.pending.get(query_id)
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
        alternate = node.routing.alternative(slot[0], slot[1], exclude)
        if alternate is None:
            return
        node.observer.query_hedged(
            node.address, primary, alternate.address, query_id
        )
        self.health.hedge_launched()
        outstanding.partner = alternate.address
        self._resend(state, outstanding, alternate, hedge_of=primary)

    # -- a reply arrives ---------------------------------------------------------

    def reply_arrived(
        self,
        state: "_PendingQuery",
        outstanding: Optional[Outstanding],
        message: ReplyMessage,
    ) -> bool:
        """Account a reply whose entry was popped from ``waiting``.

        True when the reply closes its branch, so the node counts its
        coverage and may move on; False when there was no entry, or when
        a hedge copy answered first and its primary still carries the
        branch.
        """
        health = self.health
        sender = message.sender
        if outstanding is None:
            if sender in state.failed:
                # The "failed" neighbor answered after all: the timeout was
                # spurious. Rehabilitate it (breaker success) and let
                # retries pick it again.
                self.node.observer.spurious_timeout(
                    self.node.address, sender, message.query_id
                )
                health.spurious_timeout()
                health.record_success(sender)
                state.failed.discard(sender)
            return False
        self._cancel_entry(outstanding)
        if outstanding.message.level < 0:
            # Only a C0 fan-out reply is a clean link round trip. A slot
            # forward's reply times a whole subtree; training the link
            # estimator on it would compound the span-scaling twice.
            health.observe_rtt(sender, self.transport.now() - outstanding.sent_at)
        else:
            health.record_success(sender)
        if outstanding.partner is not None:
            # First reply of a live hedge pair: merge and *detach*, never
            # cancel the survivor. The seen-LRU splits the subtree between
            # the two copies, so their replies carry disjoint shares of
            # the matches and both must be awaited.
            partner = self._detach(state, outstanding)
            if partner is not None:
                if outstanding.hedged:
                    # Hedge first: its share is merged now (the latency
                    # win); the primary still carries the branch's
                    # coverage bookkeeping, so stop here.
                    if message.matching and not message.duplicate:
                        health.hedge_won()
                    else:
                        health.hedge_lost()
                    return False
                # Primary first: the speculation saved no latency, and the
                # copy is awaited like a normal branch from here on.
                partner.hedged = False
                self._rearm_survivor(state, outstanding.partner, partner)
                health.hedge_lost()
        elif outstanding.hedged:
            # Sole survivor of a pair whose primary already timed out:
            # the speculation is what kept the branch alive.
            health.hedge_won()
        return True

    # -- timeouts ----------------------------------------------------------------

    def _on_timeout(self, query_id: QueryId, neighbor: Address) -> None:
        node = self.node
        state = node.pending.get(query_id)
        if state is None or state.completed:
            return
        outstanding = state.waiting.pop(neighbor, None)
        if outstanding is None:
            return
        self._cancel_entry(outstanding)
        state.failed.add(neighbor)
        node.observer.neighbor_timeout(node.address, neighbor, query_id)
        node.routing.remove(neighbor)
        self.health.record_failure(neighbor, self.transport.now())
        if outstanding.partner is not None:
            # The other member of the hedge pair is still in flight and
            # keeps the branch alive; no retry, no deferral, no drop.
            partner = self._detach(state, outstanding)
            if partner is not None and partner.hedged:
                # The hedge copy now carries the branch alone.
                self._rearm_survivor(state, outstanding.partner, partner)
            if outstanding.hedged:
                self.health.hedge_lost()
            return
        slot = outstanding.slot
        if slot is not None:
            if self.config.retry_on_timeout:
                alternate = self.neighbor(state, *slot)
                if alternate is not None:
                    self._resend(state, outstanding, alternate)
                    return
            if self.config.defer_broken_links is not None:
                # A link we used just broke and no alternate is known: park
                # the branch and let gossip repair the slot (Section 6.6's
                # "delay the query until the overlay has been restored").
                self._defer_branch(query_id, state, outstanding)
                return
        # The branch is abandoned for good: no alternate to retry and no
        # deferral window. Account it exactly once, on this path — the
        # same event the forward-time drop and the deferral give-up emit.
        node.observer.query_dropped(
            node.address, query_id, reason="timeout_exhausted"
        )
        node._settle(query_id, state)

    # -- deferred branches (broken-link repair window) ---------------------------

    def _defer_branch(
        self, query_id: QueryId, state: "_PendingQuery", branch: Outstanding
    ) -> None:
        self.node.observer.branch_deferred(self.node.address, query_id)

        def fire() -> None:
            state.defer_timers.remove(handle)
            self._retry_deferred(query_id, branch)

        handle = self.transport.call_later(self.config.defer_broken_links, fire)
        state.defer_timers.append(handle)

    def _retry_deferred(self, query_id: QueryId, branch: Outstanding) -> None:
        node = self.node
        state = node.pending.get(query_id)
        if state is None or state.completed:
            return
        neighbor = self.neighbor(state, *branch.slot)
        if neighbor is not None and not state.sigma_met():
            self._resend(state, branch, neighbor)
            return
        if neighbor is None:
            node.observer.query_dropped(
                node.address, query_id, reason="defer_exhausted"
            )
        node._settle(query_id, state)

    # -- teardown ----------------------------------------------------------------

    def query_completed(self, state: "_PendingQuery") -> None:
        """Cancel every timer of a query that just completed."""
        if not state.waiting and not state.defer_timers:
            return  # the usual case: every branch has replied
        for outstanding in state.waiting.values():
            if outstanding.hedged:
                self.health.hedge_cancelled()
        self._disarm(state)
        state.waiting.clear()
        state.defer_timers.clear()

    def restart(self, states: Iterable["_PendingQuery"]) -> None:
        """Cancel every timer of the queries a crash-restart forgets."""
        for state in states:
            state.completed = True
            self._disarm(state)

    def _disarm(self, state: "_PendingQuery") -> None:
        for outstanding in state.waiting.values():
            self._cancel_entry(outstanding)
        for timer in state.defer_timers:
            self.transport.cancel(timer)

    def _cancel_entry(self, outstanding: Outstanding) -> None:
        """Cancel the timers attached to one ``waiting`` entry."""
        if outstanding.timer is not None:
            self.transport.cancel(outstanding.timer)
            outstanding.timer = None
        if outstanding.hedge_timer is not None:
            self.transport.cancel(outstanding.hedge_timer)
            outstanding.hedge_timer = None
