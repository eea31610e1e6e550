"""Property test: the slot buckets handed to ``RoutingTable.seed_slots``.

``seed_slots`` skips every guard the general ``add`` path has — no
classification, no self check, no already-known check — because the
buckets it receives are, by the cell geometry, pairwise disjoint, free
of the owner and free of its C0 cell-mates, and each lies inside its own
slot's neighboring cell. This test holds the one bucket derivation,
:class:`~repro.core.store.BootstrapPlan`, to those preconditions over
random geometries and populations, and to the region-geometry oracle
(``scalar_slot_buckets_by_cell``): same zero members, same buckets, same
order. It records exactly what the plan hands to the table.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import AttributeSchema, numeric
from repro.core.cells import neighboring_region
from repro.core.index import CellIndex
from repro.core.routing import ALTERNATES_PER_SLOT
from repro.core.store import BootstrapPlan, DescriptorStore
from repro.util.rng import derive_rng
from repro.workloads.distributions import uniform_sampler
from tests.core.test_vector import scalar_slot_buckets_by_cell

ALTERNATES = ALTERNATES_PER_SLOT


class RecordingTable:
    """Stands in for a routing table and keeps what bootstrap seeds."""

    def __init__(self):
        self.zero = []
        self.slots = []

    def seed_zero(self, descriptors):
        self.zero.extend(descriptors)

    def seed_slots(self, slot_buckets, rng):
        self.slots.extend(
            (level, dim, list(bucket), picks)
            for level, dim, bucket, picks in slot_buckets
        )


def assert_preconditions(owner, table):
    zero = {descriptor.address for descriptor in table.zero}
    seen = set()
    slots = [(level, dim) for level, dim, _bucket, _picks in table.slots]
    assert len(slots) == len(set(slots))
    for level, dim, bucket, picks in table.slots:
        addresses = [descriptor.address for descriptor in bucket]
        assert 1 <= picks <= min(len(bucket), 1 + ALTERNATES)
        assert len(addresses) == len(set(addresses))
        assert owner.address not in addresses
        assert zero.isdisjoint(addresses)
        assert seen.isdisjoint(addresses), "buckets overlap"
        seen.update(addresses)
        region = neighboring_region(owner.coordinates, level, dim)
        assert all(region.contains(d.coordinates) for d in bucket)


def by_address(slot_buckets):
    return [
        (level, dim, [d.address for d in bucket], picks)
        for level, dim, bucket, picks in slot_buckets
    ]


@settings(max_examples=60, deadline=None)
@given(
    dimensions=st.integers(1, 4),
    max_level=st.integers(1, 3),
    population=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_seed_slots_buckets_are_disjoint_and_exclude_owner_cell(
    dimensions, max_level, population, seed
):
    schema = AttributeSchema.regular(
        [numeric(f"a{i}", 0.0, 10.0) for i in range(dimensions)],
        max_level=max_level,
    )
    store = DescriptorStore.sample(
        schema, uniform_sampler(schema), derive_rng(seed, "population"),
        population,
    )
    descriptors = list(store.descriptors())
    index = CellIndex(schema)
    for descriptor in descriptors:
        index.add(descriptor)
    oracle = scalar_slot_buckets_by_cell(index, schema, 1 + ALTERNATES)

    plan = BootstrapPlan(store, 1 + ALTERNATES)
    for row, owner in enumerate(descriptors):
        planned = RecordingTable()
        plan.seed_row(row, planned, random.Random(seed))
        assert_preconditions(owner, planned)
        # The plan hands over the oracle's cell-mates and buckets, in the
        # oracle's order.
        assert planned.zero == list(index.members(owner.coordinates))
        assert by_address(planned.slots) == by_address(
            oracle[owner.coordinates]
        )
