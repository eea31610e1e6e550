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

Each C0 cell has one integer key, :func:`cell_code`, that stores exactly
this split order: the coordinate bits interleaved level by level, the
coarsest level first and dimension 0 first within a level. Every split
is then one key bit, so the protocol's cell relations are arithmetic on
keys: :func:`slot_of` is an XOR and a ``bit_length``, and the
``(l, k)`` block a cell belongs to is a right shift (:func:`bucket_code`),
whose lowest bit flipped names the block of ``N(l, k)``.

Every region is a product of per-dimension closed integer intervals
(:class:`Region`). The regions are the geometric oracle the key
arithmetic is tested against, and :func:`overlapping_dimensions` answers
"which ``N(l, k)`` overlap Q" for all k at once from per-dimension
bitmasks, without building one.

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
    dimension j, two overlap bits are collected:

    * ``same``: Q meets X's ``C_(level-1)`` interval (the half X is in),
    * ``flip``: Q meets the sibling half.

    Both halves are blocks of ``2**(level-1)`` indices, so each test
    compares block numbers: the block X is in (or its sibling, the block
    number with bit 0 flipped) against the blocks of Q's two ends. Q meets
    X's ``C_level`` interval — the two halves together — iff it meets one
    of them, so ``free = same | flip``.

    ``N(level, k)`` overlaps Q iff every j < k is in ``same``, k is in
    ``flip`` and every j > k is in ``free``. The first condition holds
    exactly for k up to the lowest zero bit of ``same``, the last for k
    from the highest zero bit of ``free`` upwards, so the answer is
    ``flip & prefix & suffix``.
    """
    if level < 1:
        raise ValueError(f"neighboring cells exist only for level >= 1, got {level}")
    shift = level - 1
    same = flip = 0
    bit = 1
    for index, (low, high) in zip(coordinates, ranges):
        block = index >> shift
        low >>= shift
        high >>= shift
        if low <= block <= high:
            same |= bit
        block ^= 1
        if low <= block <= high:
            flip |= bit
        bit <<= 1
    lowest_miss = ~same & (same + 1)
    prefix = (lowest_miss << 1) - 1
    highest_miss = ((bit - 1) & ~(same | flip)).bit_length() - 1
    suffix = -1 << highest_miss if highest_miss > 0 else -1
    return flip & prefix & suffix


def cell_code(coordinates: Coordinates, max_level: int) -> int:
    """The C0 key of the cell at *coordinates*: its bits level-interleaved.

    The coarsest level's d bits come first and the finest level's last;
    within a level, dimension 0 is the most significant bit. This is the
    order in which Section 4.1 splits the space, so every cell relation
    below is a shift or an XOR of two keys. It spends ``d * max_level``
    bits, which the schema keeps within an int64.
    """
    code = 0
    for bit in range(max_level - 1, -1, -1):
        for index in coordinates:
            code = (code << 1) | ((index >> bit) & 1)
    return code


def slot_of(own: int, other: int, dimensions: int) -> Slot:
    """Classify the cell keyed *other* relative to the cell keyed *own*.

    Returns ``ZERO_SLOT`` when both keys name the same lowest-level cell,
    otherwise the unique ``(level, dim)`` pair such that *other* lies in
    ``N(level, dim)(own)``: the highest differing key bit is the first
    split that separates the two cells. Because the neighboring cells
    plus ``C_0`` partition the space, exactly one answer exists.
    """
    differing = own ^ other
    if not differing:
        return ZERO_SLOT
    position = differing.bit_length() - 1
    return (position // dimensions + 1, dimensions - 1 - position % dimensions)


def bucket_code(code, level: int, dim: int, dimensions: int):
    """The key of the ``(level, dim)`` block holding the cell keyed *code*.

    Cells share a block iff they share ``C_level``, the halves at
    dimensions below *dim* and the half at *dim*: the key prefix down to
    that split. A cell Y lies in ``N(level, dim)(X)`` iff
    ``bucket_code(Y) == bucket_code(X) ^ 1``. *code* may be an int64 array.
    """
    return code >> ((level - 1) * dimensions + dimensions - 1 - dim)


def iter_slots(dimensions: int, max_level: int) -> Iterator[Tuple[int, int]]:
    """Iterate over all ``(level, dim)`` neighboring-cell slots."""
    for level in range(1, max_level + 1):
        for dim in range(dimensions):
            yield (level, dim)


def num_cells(dimensions: int, max_level: int) -> int:
    """Total number of lowest-level cells: ``(2**d)**max_level``."""
    return (1 << dimensions) ** max_level
