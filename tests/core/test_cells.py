"""Unit and property tests for the nested-cell geometry."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import (
    ZERO_SLOT,
    bucket_code,
    cell_code,
    cell_interval,
    cell_region,
    iter_slots,
    neighboring_region,
    num_cells,
    overlapping_dimensions,
    slot_of,
)


class TestCellInterval:
    def test_level_zero_is_the_point(self):
        assert cell_interval(5, 0) == (5, 5)

    def test_level_one_pairs(self):
        assert cell_interval(4, 1) == (4, 5)
        assert cell_interval(5, 1) == (4, 5)

    def test_top_level_spans_everything(self):
        assert cell_interval(5, 3) == (0, 7)

    def test_alignment(self):
        for index in range(16):
            low, high = cell_interval(index, 2)
            assert low % 4 == 0
            assert high == low + 3
            assert low <= index <= high


class TestCellRegion:
    def test_region_contains_own_point(self):
        coords = (3, 6)
        for level in range(4):
            assert cell_region(coords, level).contains(coords)

    def test_num_cells(self):
        assert num_cells(2, 3) == 64
        assert num_cells(5, 3) == 32768


class TestNeighboringRegion:
    def test_paper_geometry_d2(self):
        """Figure 1(b): the three levels of neighboring cells for d=2."""
        coords = (0, 0)  # node in the top-left C0 cell, L=3
        # Level 3 dim 0: the right half of the space.
        assert neighboring_region(coords, 3, 0).intervals == ((4, 7), (0, 7))
        # Level 3 dim 1: the bottom half of the left half.
        assert neighboring_region(coords, 3, 1).intervals == ((0, 3), (4, 7))
        # Level 1 dim 0: the sibling half of C1 along x (y still free).
        assert neighboring_region(coords, 1, 0).intervals == ((1, 1), (0, 1))
        # Level 1 dim 1: the vertically adjacent C0 cell within C1.
        assert neighboring_region(coords, 1, 1).intervals == ((0, 0), (1, 1))

    def test_region_excludes_owner(self):
        coords = (3, 5, 1)
        for level, dim in iter_slots(3, 3):
            region = neighboring_region(coords, level, dim)
            assert not region.contains(coords)

    def test_region_inside_enclosing_cell(self):
        coords = (3, 5)
        for level, dim in iter_slots(2, 3):
            region = neighboring_region(coords, level, dim)
            enclosing = cell_region(coords, level)
            for interval, outer in zip(region.intervals, enclosing.intervals):
                assert outer[0] <= interval[0] <= interval[1] <= outer[1]

    def test_level_zero_rejected(self):
        try:
            neighboring_region((0, 0), 0, 0)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_partition_exhaustive_d2_l3(self):
        """C0(X) plus all N(l,k)(X) tile the full 8x8 grid exactly once."""
        coords = (3, 5)
        counts = {point: 0 for point in itertools.product(range(8), range(8))}
        counts[coords] += 1  # the node's own C0 cell
        for level, dim in iter_slots(2, 3):
            region = neighboring_region(coords, level, dim)
            for point in itertools.product(range(8), range(8)):
                if region.contains(point):
                    counts[point] += 1
        assert all(count == 1 for count in counts.values()), counts


@st.composite
def cell_pairs(draw):
    """Two cells of one geometry: d <= 8, max(l) <= 7 (so d * max(l) <= 62).

    The second cell is the first with its coordinate bits below a random
    level redrawn, so the pair's slot is as often a fine one as a coarse
    one (two independent cells almost always split at the top level).
    """
    dimensions = draw(st.integers(1, 8))
    max_level = draw(st.integers(1, 7))
    top = (1 << max_level) - 1
    own = tuple(draw(st.integers(0, top)) for _ in range(dimensions))
    low_bits = (1 << draw(st.integers(0, max_level))) - 1
    other = tuple(
        index ^ (draw(st.integers(0, top)) & low_bits) for index in own
    )
    return own, other, max_level


def slot(own, other, max_level=3):
    """:func:`slot_of` of two coordinate tuples, through their keys."""
    return slot_of(
        cell_code(own, max_level), cell_code(other, max_level), len(own)
    )


class TestCellCode:
    def test_interleaves_coarsest_level_first(self):
        # 5 = 0b101 and 2 = 0b010: the level-3 bits (1, 0) come first,
        # then the level-2 bits (0, 1), then the level-1 bits (1, 0).
        assert cell_code((5, 2), 3) == 0b10_01_10
        assert cell_code((0, 0, 0), 3) == 0
        assert cell_code((127,) * 8, 7) == (1 << 56) - 1

    def test_every_cell_has_its_own_key(self):
        keys = {
            cell_code(point, 2)
            for point in itertools.product(range(4), range(4), range(4))
        }
        assert keys == set(range(64))


class TestSlotOf:
    def test_same_cell_is_zero_slot(self):
        assert slot((3, 5), (3, 5)) == ZERO_SLOT

    def test_adjacent_cells(self):
        assert slot((0, 0), (1, 0)) == (1, 0)
        assert slot((0, 0), (0, 1)) == (1, 1)
        assert slot((0, 0), (7, 7)) == (3, 0)
        assert slot((0, 0), (0, 7)) == (3, 1)

    def test_dimension_order_tie_break(self):
        # Differs in the top bit of both dimensions: dimension 0 wins
        # (the space is split along dimension 0 first).
        assert slot((0, 0), (4, 4)) == (3, 0)

    @given(cell_pairs())
    @settings(max_examples=500, deadline=None)
    def test_slot_matches_region_membership(self, pair):
        """slot_of(X, Y) returns exactly the (l, k) whose region holds Y."""
        own, other, max_level = pair
        found = slot(own, other, max_level)
        containing = [
            (level, dim)
            for level, dim in iter_slots(len(own), max_level)
            if neighboring_region(own, level, dim).contains(other)
        ]
        if found == ZERO_SLOT:
            assert own == other and containing == []
            assert cell_region(own, 0).contains(other)
        else:
            assert containing == [found]

    @given(cell_pairs())
    @settings(max_examples=300, deadline=None)
    def test_partition_property(self, pair):
        """Every point lies in exactly one slot region (or C0)."""
        own, other, max_level = pair
        membership = sum(
            1
            for level, dim in iter_slots(len(own), max_level)
            if neighboring_region(own, level, dim).contains(other)
        )
        in_zero = cell_region(own, 0).contains(other)
        assert membership + (1 if in_zero else 0) == 1


class TestBucketCode:
    @given(cell_pairs())
    @settings(max_examples=500, deadline=None)
    def test_flipped_bucket_is_the_neighboring_cell(self, pair):
        """Y in N(l, k)(X) iff bucket_code(Y) == bucket_code(X) ^ 1."""
        own, other, max_level = pair
        dimensions = len(own)
        own_code = cell_code(own, max_level)
        other_code = cell_code(other, max_level)
        for level, dim in iter_slots(dimensions, max_level):
            linked = bucket_code(other_code, level, dim, dimensions) == (
                bucket_code(own_code, level, dim, dimensions) ^ 1
            )
            assert linked == neighboring_region(own, level, dim).contains(
                other
            )

    def test_paper_geometry_d2(self):
        """Figure 1(b)'s cells, as key prefixes: Y in N(l, k)(X)."""
        own = cell_code((0, 0), 3)
        for other, level, dim in (
            ((4, 0), 3, 0), ((0, 4), 3, 1), ((1, 0), 1, 0), ((0, 1), 1, 1)
        ):
            assert bucket_code(cell_code(other, 3), level, dim, 2) == (
                bucket_code(own, level, dim, 2) ^ 1
            )


class TestRegionOverlap:
    def test_overlap_basic(self):
        region = neighboring_region((0, 0), 3, 0)  # ((4,7),(0,7))
        assert region.overlaps(((0, 7), (0, 7)))
        assert region.overlaps(((4, 4), (3, 3)))
        assert not region.overlaps(((0, 3), (0, 7)))

    def test_region_size(self):
        assert neighboring_region((0, 0), 3, 0).size() == 32
        assert neighboring_region((0, 0), 1, 0).size() == 2
        assert neighboring_region((0, 0), 1, 1).size() == 1
        assert cell_region((0, 0), 3).size() == 64


@st.composite
def positions_and_boxes(draw):
    """A node's coordinates and a query box, d in [1, 10], max(l) in [1, 6].

    Each query range is the full span, a single cell, or an arbitrary
    sub-interval, so boxes mix every shape the forward decision meets.
    """
    dimensions = draw(st.integers(1, 10))
    max_level = draw(st.integers(1, 6))
    top = (1 << max_level) - 1
    coordinates = tuple(
        draw(st.integers(0, top)) for _ in range(dimensions)
    )
    ranges = []
    for _ in range(dimensions):
        shape = draw(st.sampled_from(["full", "cell", "span"]))
        if shape == "full":
            ranges.append((0, top))
        elif shape == "cell":
            index = draw(st.integers(0, top))
            ranges.append((index, index))
        else:
            a, b = draw(st.integers(0, top)), draw(st.integers(0, top))
            ranges.append((min(a, b), max(a, b)))
    return coordinates, max_level, tuple(ranges)


class TestOverlappingDimensions:
    @given(positions_and_boxes())
    @settings(max_examples=400, deadline=None)
    def test_mask_equals_region_overlap(self, case):
        """Bit k is set iff N(l, k)(X) overlaps Q, at every level."""
        coordinates, max_level, ranges = case
        for level in range(1, max_level + 1):
            expected = sum(
                1 << dim
                for dim in range(len(coordinates))
                if neighboring_region(coordinates, level, dim).overlaps(ranges)
            )
            assert overlapping_dimensions(coordinates, level, ranges) == expected

    def test_level_zero_rejected(self):
        try:
            overlapping_dimensions((0, 0), 0, ((0, 7), (0, 7)))
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")
