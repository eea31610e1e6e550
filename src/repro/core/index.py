"""Cell-bucketed descriptor index: the scalar semantics of record.

The nested-cell geometry (:mod:`repro.core.cells`) already partitions the
attribute space into ``(2**d)**max_level`` lowest-level cells, and a
query's routing region is an axis-aligned box of those cells
(:meth:`repro.core.query.Query.index_ranges`). The :class:`CellIndex`
exploits that: descriptors are bucketed by their C0 cell id (the full
coordinate vector), so answering "which descriptors match this query?"
only has to look at the cells overlapping the query box instead of
scanning the whole population — the same recursive-decomposition trick
that gives distributed range-query structures their sub-linear lookups.

Both sim engines answer ground truth from
:class:`repro.core.store.ColumnarCellIndex`, the array form of this
index, and every engine derives its bootstrap buckets from
:class:`repro.core.store.BootstrapPlan`. ``CellIndex`` stays only as

* the oracle the columnar index and the plan are property-tested
  against;
* the columnar index's churn overlay, small by construction.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.attributes import AttributeSchema
from repro.core.cells import Coordinates
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.query import Query
from repro.util.intervals import Interval


class CellIndex:
    """Incremental C0-cell bucket index over node descriptors.

    One descriptor per address; re-adding an address whose coordinates
    changed (the node's attributes were updated) moves it between cells.
    """

    __slots__ = ("schema", "_cells", "_cell_of")

    def __init__(self, schema: AttributeSchema) -> None:
        self.schema = schema
        self._cells: Dict[Coordinates, Dict[Address, NodeDescriptor]] = {}
        self._cell_of: Dict[Address, Coordinates] = {}

    def __len__(self) -> int:
        return len(self._cell_of)

    def __contains__(self, address: Address) -> bool:
        return address in self._cell_of

    @property
    def occupied_cells(self) -> int:
        """Number of C0 cells currently holding at least one descriptor."""
        return len(self._cells)

    # -- mutation ---------------------------------------------------------------

    def add(self, descriptor: NodeDescriptor) -> None:
        """Insert or refresh *descriptor*, moving it if its cell changed."""
        address = descriptor.address
        coordinates = descriptor.coordinates
        previous = self._cell_of.get(address)
        if previous is not None and previous != coordinates:
            self._evict(address, previous)
        members = self._cells.get(coordinates)
        if members is None:
            members = {}
            self._cells[coordinates] = members
        members[address] = descriptor
        self._cell_of[address] = coordinates

    def discard(self, address: Address) -> bool:
        """Remove *address* if present; returns True when something was removed."""
        coordinates = self._cell_of.pop(address, None)
        if coordinates is None:
            return False
        members = self._cells.get(coordinates)
        if members is not None:
            members.pop(address, None)
            if not members:
                del self._cells[coordinates]
        return True

    def _evict(self, address: Address, coordinates: Coordinates) -> None:
        members = self._cells.get(coordinates)
        if members is not None:
            members.pop(address, None)
            if not members:
                del self._cells[coordinates]
        del self._cell_of[address]

    # -- lookup -----------------------------------------------------------------

    def get(self, address: Address) -> Optional[NodeDescriptor]:
        """The stored descriptor for *address*, or None."""
        coordinates = self._cell_of.get(address)
        if coordinates is None:
            return None
        return self._cells[coordinates][address]

    def members(self, coordinates: Coordinates) -> Tuple[NodeDescriptor, ...]:
        """All descriptors in the C0 cell identified by *coordinates*."""
        members = self._cells.get(tuple(coordinates))
        return tuple(members.values()) if members else ()

    def cells(self) -> Iterator[Tuple[Coordinates, List[NodeDescriptor]]]:
        """Iterate over ``(cell coordinates, member descriptors)`` pairs."""
        for coordinates, members in self._cells.items():
            yield coordinates, list(members.values())

    def descriptors(self) -> Iterator[NodeDescriptor]:
        """Iterate over every indexed descriptor (cell order)."""
        for members in self._cells.values():
            yield from members.values()

    # -- queries ----------------------------------------------------------------

    def candidates(
        self, ranges: Sequence[Interval]
    ) -> Iterator[NodeDescriptor]:
        """Descriptors whose cells overlap the box described by *ranges*.

        This is the routing-level candidate set: every descriptor that a
        correct query dissemination would visit. Some candidates' raw
        values may still fall outside the query (the paper's *routing
        overhead*); use :meth:`matching` for the exact match set.

        Enumeration strategy: when the query box holds fewer cells than
        are currently occupied, walk the box and look each cell up;
        otherwise walk the occupied cells and test each against the box.
        Either way the cost is bounded by ``min(box cells, occupied
        cells)`` plus the members touched.
        """
        box_cells = 1
        for low, high in ranges:
            box_cells *= max(0, high - low + 1)
        if box_cells <= len(self._cells):
            cells = self._cells
            for coordinates in product(
                *(range(low, high + 1) for low, high in ranges)
            ):
                members = cells.get(coordinates)
                if members:
                    yield from members.values()
        else:
            for coordinates, members in self._cells.items():
                if all(
                    low <= index <= high
                    for index, (low, high) in zip(coordinates, ranges)
                ):
                    yield from members.values()

    def matching(self, query: Query) -> List[NodeDescriptor]:
        """Exact match set of *query*, sorted by address.

        Equivalent to brute-force filtering every indexed descriptor with
        ``query.matches`` (the property tests assert this), but only
        evaluates descriptors whose cells overlap the query's routing
        region.
        """
        matches = query.matches
        result = [
            descriptor
            for descriptor in self.candidates(query.index_ranges())
            if matches(descriptor.values)
        ]
        result.sort(key=lambda descriptor: descriptor.address)
        return result
