"""Nested-cell geometry of the attribute space.

Section 4.1 of the paper recursively splits the d-dimensional attribute
space into *cells*. With nesting depth ``L = max(l)``:

* Each dimension is cut into ``2**L`` lowest-level intervals; a node's
  position is a vector of d integer *cell indices*, each of L bits
  (MSB = coarsest split).
* A level-``l`` cell ``C_l(X)`` fixes the top ``L - l`` bits of every
  dimension to X's bits. ``C_L`` is the whole space; ``C_0`` is the smallest
  cell.
* The *neighboring cell* ``N(l, k)(X)`` is built by splitting ``C_l(X)``
  dimension by dimension: split along dimension 0, keep the half containing
  ``C_(l-1)(X)``, split that along dimension 1, and so on. The half *not*
  containing X at the k-th split is ``N(l, k)(X)``. Concretely, in terms of
  the bit at position ``L - l`` (0-based from the MSB):

  - dimensions ``j < k``: the bit equals X's bit (same half),
  - dimension ``k``: the bit is X's bit flipped,
  - dimensions ``j > k``: the bit is free.

Every region is therefore a product of per-dimension closed integer
intervals, which makes membership and query-overlap tests trivial — and
lets :func:`overlapping_dimensions` answer "which ``N(l, k)`` overlap Q"
for all k at once from per-dimension bitmasks, without building a region.

The key structural fact (verified by property tests) is that for any node X::

    {C_0(X)}  ∪  { N(l, k)(X) : 1 <= l <= L, 0 <= k < d }

partitions the whole space. This is what gives the routing protocol its
exactly-once delivery guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple, Union

from repro.util.intervals import Interval, interval_contains, intervals_overlap

Coordinates = Tuple[int, ...]

#: Slot identifying the set of nodes sharing X's lowest-level cell.
ZERO_SLOT: Tuple[str] = ("zero",)

Slot = Union[Tuple[str], Tuple[int, int]]


@dataclass(frozen=True, slots=True)
class Region:
    """An axis-aligned box of cell indices (inclusive per-dimension bounds).

    The geometric form of a cell, used by tests, analysis and the
    oracle of :func:`overlapping_dimensions`; the forwarding hot path
    never builds one.
    """

    intervals: Tuple[Interval, ...]

    def contains(self, coordinates: Coordinates) -> bool:
        """True if the cell-index vector lies inside this region."""
        return all(
            interval_contains(interval, coordinate)
            for interval, coordinate in zip(self.intervals, coordinates)
        )

    def overlaps(self, ranges: Sequence[Interval]) -> bool:
        """True if this region intersects the box described by *ranges*."""
        return all(
            intervals_overlap(interval, query_range)
            for interval, query_range in zip(self.intervals, ranges)
        )

    def size(self) -> int:
        """Number of lowest-level cells contained in the region."""
        total = 1
        for low, high in self.intervals:
            total *= max(0, high - low + 1)
        return total


def cell_interval(index: int, level: int) -> Interval:
    """The index interval of the level-*level* cell containing *index*.

    With inclusive bounds: ``[ (index >> level) << level , ... + 2**level - 1 ]``.
    """
    low = (index >> level) << level
    return (low, low + (1 << level) - 1)


def cell_region(coordinates: Coordinates, level: int) -> Region:
    """The region of ``C_level(X)`` for a node at *coordinates*."""
    return Region(
        tuple(cell_interval(index, level) for index in coordinates)
    )


def cell_id(coordinates: Coordinates, level: int) -> Tuple[int, ...]:
    """A hashable identifier of the level-*level* cell containing X."""
    return tuple(index >> level for index in coordinates)


def neighboring_region(
    coordinates: Coordinates, level: int, dim: int
) -> Region:
    """The region of the neighboring cell ``N(level, dim)(X)``.

    *level* must be at least 1; ``N(l, k)`` lives inside ``C_l(X)`` and is
    disjoint from ``C_(l-1)(X)``.
    """
    if level < 1:
        raise ValueError(f"neighboring cells exist only for level >= 1, got {level}")
    half = 1 << (level - 1)
    intervals = []
    for j, index in enumerate(coordinates):
        if j < dim:
            # Same half as X at this split: X's C_(l-1) interval.
            low = (index >> (level - 1)) << (level - 1)
            interval = (low, low + half - 1)
        elif j == dim:
            # The sibling half: X's C_(l-1) interval with the split bit flipped.
            low = ((index >> (level - 1)) << (level - 1)) ^ half
            interval = (low, low + half - 1)
        else:
            # Free below the C_l prefix: the whole C_l interval.
            low = (index >> level) << level
            interval = (low, low + (1 << level) - 1)
        intervals.append(interval)
    return Region(tuple(intervals))


def overlapping_dimensions(
    coordinates: Coordinates, level: int, ranges: Sequence[Interval]
) -> int:
    """Bitmask of the dimensions k whose ``N(level, k)(X)`` overlaps Q.

    Bit k is set iff ``neighboring_region(coordinates, level, k)
    .overlaps(ranges)`` — the forward decision of Figure 5 for every
    dimension at once, in one pass over d and no :class:`Region`. Per
    dimension j, three overlap bits are collected:

    * ``same``: Q meets X's ``C_(level-1)`` interval (the half X is in),
    * ``flip``: Q meets the sibling half,
    * ``free``: Q meets X's ``C_level`` interval.

    ``N(level, k)`` overlaps Q iff every j < k is in ``same``, k is in
    ``flip`` and every j > k is in ``free``. The first condition holds
    exactly for k up to the lowest zero bit of ``same``, the last for k
    from the highest zero bit of ``free`` upwards, so the answer is
    ``flip & prefix & suffix``.
    """
    if level < 1:
        raise ValueError(f"neighboring cells exist only for level >= 1, got {level}")
    shift = level - 1
    half = 1 << shift
    same = flip = free = 0
    bit = 1
    for index, (low, high) in zip(coordinates, ranges):
        own = (index >> shift) << shift
        sibling = own ^ half
        if own <= high and low < own + half:
            same |= bit
        if sibling <= high and low < sibling + half:
            flip |= bit
        start = (index >> level) << level
        if start <= high and low < start + (half << 1):
            free |= bit
        bit <<= 1
    lowest_miss = ~same & (same + 1)
    prefix = (lowest_miss << 1) - 1
    highest_miss = ((bit - 1) & ~free).bit_length() - 1
    suffix = -1 << max(highest_miss, 0)
    return flip & prefix & suffix


def slot_of(
    own: Coordinates, other: Coordinates, max_level: int
) -> Slot:
    """Classify *other* relative to *own*.

    Returns ``ZERO_SLOT`` when both nodes share the same lowest-level cell,
    otherwise the unique ``(level, dim)`` pair such that *other* lies in
    ``N(level, dim)(own)``. Because the neighboring cells plus ``C_0``
    partition the space, exactly one answer exists.
    """
    level = 0
    for own_index, other_index in zip(own, other):
        differing = own_index ^ other_index
        if differing:
            level = max(level, differing.bit_length())
    if level == 0:
        return ZERO_SLOT
    half_shift = level - 1
    for dim, (own_index, other_index) in enumerate(zip(own, other)):
        if (own_index >> half_shift) != (other_index >> half_shift):
            return (level, dim)
    raise AssertionError("unreachable: level > 0 implies a differing half")


def bucket_key(
    coordinates: Coordinates, level: int, dim: int
) -> Tuple:
    """A hashable key grouping cells by their ``(level, dim)`` membership.

    Two lowest-level cells share a key iff they belong to the same
    candidate region for slot ``(level, dim)``: same ``C_level`` prefix,
    same halves at dimensions below *dim*, same half at *dim*, free below.
    A node Y lies in ``N(level, dim)(X)`` iff Y's bucket key equals X's
    :func:`flipped_key` for the same slot — the identity behind both the
    bulk bootstrap and the convergence telemetry's ground truth.
    """
    half = level - 1
    parts = tuple(
        index >> half if j <= dim else index >> level
        for j, index in enumerate(coordinates)
    )
    return (level, dim, parts)


def flipped_key(
    coordinates: Coordinates, level: int, dim: int
) -> Tuple:
    """X's :func:`bucket_key` with the dimension-*dim* half flipped.

    This is the key of the neighboring cell ``N(level, dim)(X)``: the
    bucket that holds exactly the nodes X may link to in that slot.
    """
    half = level - 1
    parts = tuple(
        (index >> half) ^ 1
        if j == dim
        else (index >> half if j < dim else index >> level)
        for j, index in enumerate(coordinates)
    )
    return (level, dim, parts)


def iter_slots(dimensions: int, max_level: int) -> Iterator[Tuple[int, int]]:
    """Iterate over all ``(level, dim)`` neighboring-cell slots."""
    for level in range(1, max_level + 1):
        for dim in range(dimensions):
            yield (level, dim)


def num_cells(dimensions: int, max_level: int) -> int:
    """Total number of lowest-level cells: ``(2**d)**max_level``."""
    return (1 << dimensions) ** max_level
