"""Unit and property tests for the nested-cell geometry."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cells import (
    ZERO_SLOT,
    cell_id,
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

    def test_cell_id_prefixes(self):
        assert cell_id((5, 2), 0) == (5, 2)
        assert cell_id((5, 2), 1) == (2, 1)
        assert cell_id((5, 2), 3) == (0, 0)

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


coordinate_vectors = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.tuples(
        st.lists(st.integers(0, 7), min_size=d, max_size=d),
        st.lists(st.integers(0, 7), min_size=d, max_size=d),
    )
)


class TestSlotOf:
    def test_same_cell_is_zero_slot(self):
        assert slot_of((3, 5), (3, 5), 3) == ZERO_SLOT

    def test_adjacent_cells(self):
        assert slot_of((0, 0), (1, 0), 3) == (1, 0)
        assert slot_of((0, 0), (0, 1), 3) == (1, 1)
        assert slot_of((0, 0), (7, 7), 3) == (3, 0)
        assert slot_of((0, 0), (0, 7), 3) == (3, 1)

    def test_dimension_order_tie_break(self):
        # Differs in the top bit of both dimensions: dimension 0 wins
        # (the space is split along dimension 0 first).
        assert slot_of((0, 0), (4, 4), 3) == (3, 0)

    @given(coordinate_vectors)
    @settings(max_examples=300)
    def test_slot_matches_region_membership(self, pair):
        """slot_of(X, Y) returns exactly the (l, k) whose region holds Y."""
        own, other = tuple(pair[0]), tuple(pair[1])
        slot = slot_of(own, other, 3)
        containing = [
            (level, dim)
            for level, dim in iter_slots(len(own), 3)
            if neighboring_region(own, level, dim).contains(other)
        ]
        if slot == ZERO_SLOT:
            assert own == other or containing == []
            assert cell_region(own, 0).contains(other)
        else:
            assert containing == [slot]

    @given(coordinate_vectors)
    @settings(max_examples=300)
    def test_partition_property(self, pair):
        """Every point lies in exactly one slot region (or C0)."""
        own, other = tuple(pair[0]), tuple(pair[1])
        membership = sum(
            1
            for level, dim in iter_slots(len(own), 3)
            if neighboring_region(own, level, dim).contains(other)
        )
        in_zero = cell_region(own, 0).contains(other)
        assert membership + (1 if in_zero else 0) == 1


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
