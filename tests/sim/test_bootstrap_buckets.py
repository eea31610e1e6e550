"""Property test: the slot buckets ``BootstrapPlan.draw`` picks from.

A table attached with ``RoutingTable.seed_slots`` reads its picks
without any guard of the general ``add`` path — no classification, no
self check, no already-known check — because the buckets they come from
are, by the cell geometry, pairwise disjoint, free of the owner and free
of its C0 cell-mates, and each lies inside its own slot's neighboring
cell. This test holds the one bucket derivation,
:class:`~repro.core.store.BootstrapPlan`, to those preconditions over
random geometries and populations, and to the region-geometry oracle
(``scalar_slot_buckets_by_cell``): same zero members, same buckets, same
order. It reads exactly what the plan keeps for each row.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import AttributeSchema, numeric
from repro.core.cells import iter_slots, neighboring_region
from repro.core.index import CellIndex
from repro.core.routing import ALTERNATES_PER_SLOT
from repro.core.store import BootstrapPlan, DescriptorStore
from repro.util.rng import derive_rng
from repro.workloads.distributions import uniform_sampler
from tests.core.test_vector import scalar_slot_buckets_by_cell

ALTERNATES = ALTERNATES_PER_SLOT


class PlannedRow:
    """What the plan keeps for one row: cell-mates and slot buckets."""

    def __init__(self, plan, store, row):
        links = plan.draw([row], seed=0)
        self.zero = links.cell_order[links.zero[0, 0] : links.zero[0, 2]]
        self.slots = []
        schema = store.schema
        cell = plan._cell_of_row[row]
        for (level, dim), bucket in zip(
            iter_slots(schema.dimensions, schema.max_level),
            plan._slot_bucket[cell].tolist(),
        ):
            if bucket >= 0:
                start = plan._bucket_starts[bucket]
                size = int(plan._bucket_sizes[bucket])
                rows = plan._bucket_rows[start : start + size].tolist()
                self.slots.append(
                    (level, dim, store.descriptors_at(rows),
                     min(size, plan.picks_cap))
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
        planned = PlannedRow(plan, store, row)
        assert_preconditions(owner, planned)
        # The plan hands over the oracle's cell-mates and buckets, in the
        # oracle's order.
        assert planned.zero == list(index.members(owner.coordinates))
        assert by_address(planned.slots) == by_address(
            oracle[owner.coordinates]
        )
