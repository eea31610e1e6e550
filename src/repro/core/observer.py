"""Observation hooks for protocol instrumentation.

The node protocol reports every externally meaningful event to a
:class:`ProtocolObserver`, one call per protocol act: one per QUERY
sent, one per REPLY sent, one per completion. The metric collector
(routing overhead, delivery, per-node load — see :mod:`repro.metrics`)
subclasses this instead of patching protocol internals, keeping
measurement strictly separated from behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from repro.core.descriptors import Address, NodeDescriptor
    from repro.core.messages import QueryId


class ProtocolObserver:
    """No-op base class; override the events you care about."""

    def query_forwarded(
        self,
        sender: "Address",
        receiver: "Address",
        query_id: "QueryId",
        level: int,
        dim: Optional[int],
        dimensions: int,
    ) -> None:
        """A QUERY message left *sender* toward *receiver*.

        *level*/*dim* name the neighboring-cell slot the query travelled
        along (``level == -1`` and ``dim is None`` for the C0 fan-out);
        *dimensions* is the bitmask of the dimensions remaining in the
        query after the traversed dimension was removed. Fires once per
        send.
        """

    def query_received(
        self, node: "Address", query_id: "QueryId", matched: bool
    ) -> None:
        """A node received a QUERY; *matched* tells if its attributes match."""

    def reply_sent(
        self, sender: "Address", receiver: "Address", query_id: "QueryId"
    ) -> None:
        """A REPLY message left *sender* toward *receiver*."""

    def query_completed(
        self,
        origin: "Address",
        query_id: "QueryId",
        matching: Sequence["NodeDescriptor"],
        coverage: float,
    ) -> None:
        """The originating node assembled the final candidate set.

        *coverage* is 1.0 when the query completed fully. Below 1.0 the
        query degraded: σ was not met and at least one branch was
        abandoned, and *coverage* estimates the explored fraction.
        """

    def duplicate_query(self, node: "Address", query_id: "QueryId") -> None:
        """A node received the same QUERY twice (stale links under churn)."""

    def neighbor_timeout(
        self, node: "Address", neighbor: "Address", query_id: "QueryId"
    ) -> None:
        """A forwarded QUERY timed out; the neighbor is presumed failed."""

    def query_dropped(
        self,
        node: "Address",
        query_id: "QueryId",
        reason: str,
    ) -> None:
        """A QUERY branch was abandoned for good.

        *reason* classifies the failure mode: ``"empty_cell"`` (nowhere to
        forward — sparse overlay), ``"timeout_exhausted"`` (every retry
        and alternate failed), ``"defer_exhausted"`` (a deferred branch
        never found a repaired link).
        """

    def query_hedged(
        self,
        node: "Address",
        primary: "Address",
        alternate: "Address",
        query_id: "QueryId",
    ) -> None:
        """A branch was speculatively re-forwarded to *alternate* because
        *primary*'s reply is past its p99-derived hedge delay."""

    def spurious_timeout(
        self, node: "Address", neighbor: "Address", query_id: "QueryId"
    ) -> None:
        """A reply arrived from a neighbor already declared failed — the
        earlier ``neighbor_timeout`` was spurious (the peer was alive)."""

    def branch_deferred(self, node: "Address", query_id: "QueryId") -> None:
        """A branch was parked on a broken link awaiting gossip repair."""


#: The hook names, in declaration order.
HOOKS = tuple(
    name for name in vars(ProtocolObserver) if not name.startswith("_")
)


class FanoutObserver(ProtocolObserver):
    """Broadcasts every event to several observers, in order.

    Lets measurement (:class:`~repro.metrics.collectors.MetricsCollector`)
    and tracing (:class:`~repro.obs.tracer.TraceRecorder`) watch the same
    run without either knowing about the other. Each hook is bound once,
    at construction, to the observers' own methods, so a hook added to
    :class:`ProtocolObserver` fans out with no change here.
    """

    def __init__(self, *observers: ProtocolObserver) -> None:
        self.observers = tuple(observers)
        for name in HOOKS:
            handlers = tuple(getattr(observer, name) for observer in observers)
            setattr(self, name, _broadcast(handlers))


def _broadcast(handlers):
    def hook(*args, **kwargs) -> None:
        for handler in handlers:
            handler(*args, **kwargs)

    return hook
