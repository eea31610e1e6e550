"""Wire messages of the query-routing protocol (Figure 4(a) of the paper).

Messages are immutable: every forwarding step constructs a fresh
:class:`QueryMessage` with the updated ``level`` and ``dimensions`` fields.
(The paper's pseudo-code mutates ``q`` in place; value semantics express the
same protocol without aliasing hazards inside a single-process simulator.)

Both stay frozen dataclasses, but with a hand-written ``__init__`` that
fills the instance ``__dict__`` in one call: the generated frozen
``__init__`` pays one ``object.__setattr__`` per field, and a message is
built for every hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.descriptors import Address, NodeDescriptor
from repro.core.query import Query
from repro.util.intervals import Interval

#: Query identifiers must be globally unique; we use (origin address, counter).
QueryId = Tuple[Address, int]

_set_attribute = object.__setattr__


def mask_dimensions(mask: int) -> List[int]:
    """The dimensions set in a non-negative bitmask, ascending."""
    return [dim for dim, bit in enumerate(reversed(bin(mask))) if bit == "1"]


@dataclass(frozen=True, init=False)
class QueryMessage:
    """QUERY: id, forwarder address, ranges, sigma, level, dimensions.

    ``sender`` is "the address of the last forwarder of the query" — the
    parent in the depth-first dissemination tree, to which the receiver will
    eventually reply. ``index_ranges`` is the projection of the query onto
    cell-index space, carried along so every hop evaluates overlap tests
    against the exact same region Q.
    """

    query_id: QueryId
    sender: Address
    query: Query
    index_ranges: Tuple[Interval, ...]
    sigma: Optional[int]
    level: int
    #: The dimensions still to scan at ``level``, as a bitmask (bit k set
    #: = dimension k remains). The wire carries them as sorted u16s.
    dimensions: int
    #: Remaining timeout budget T(q) in seconds. Each hop arms its
    #: per-neighbor failure timer with its own budget and hands children a
    #: geometrically smaller one, so a child always gives up (and reports
    #: its partial results) before its parent gives up on the child.
    budget: float = 30.0

    def __init__(
        self,
        query_id: QueryId,
        sender: Address,
        query: Query,
        index_ranges: Tuple[Interval, ...],
        sigma: Optional[int],
        level: int,
        dimensions: int,
        budget: float = 30.0,
    ) -> None:
        _set_attribute(self, "__dict__", {
            "query_id": query_id,
            "sender": sender,
            "query": query,
            "index_ranges": index_ranges,
            "sigma": sigma,
            "level": level,
            "dimensions": dimensions,
            "budget": budget,
        })


@dataclass(frozen=True, init=False)
class ReplyMessage:
    """REPLY: id, the matching descriptors collected, and the reply sender."""

    query_id: QueryId
    sender: Address
    matching: Tuple[NodeDescriptor, ...]
    #: Fraction of the subtree below the sender that was actually explored
    #: (1.0 on a clean run). Drops below 1 when branches were abandoned —
    #: broken links with no alternates, open breakers, partitioned regions
    #: — letting the origin report an honest *partial* result instead of
    #: presenting a degraded candidate set as complete.
    coverage: float = 1.0
    #: True when this reply acknowledges a *duplicate* reception (the
    #: receiver had already seen the query and did not explore again).
    #: Hedged forwards use this to tell "the cell was already covered by
    #: the primary's subtree" apart from a genuine answer, so a fast
    #: duplicate ack never cancels the live primary branch of a pair.
    duplicate: bool = False

    def __init__(
        self,
        query_id: QueryId,
        sender: Address,
        matching: Tuple[NodeDescriptor, ...],
        coverage: float = 1.0,
        duplicate: bool = False,
    ) -> None:
        _set_attribute(self, "__dict__", {
            "query_id": query_id,
            "sender": sender,
            "matching": matching,
            "coverage": coverage,
            "duplicate": duplicate,
        })
