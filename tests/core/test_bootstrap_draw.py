"""Property test: ``BootstrapPlan.draw`` replays the scalar draw loop.

The bootstrap draws every node's slot picks in one vectorized pass over
the nodes' Mersenne Twister words, and a routing table attached to those
picks only builds its dicts when something changes it. Both halves are
held here to the scalar oracle — the region-geometry buckets of
``scalar_slot_buckets_by_cell`` drawn by the per-slot ``random`` /
``shuffle`` loop of ``scalar_seed_slots`` — read for read before the
table is promoted, and dict for dict (items and insertion order) after.

Populations are clustered so that buckets of one member, of two to four
(``shuffle``), of exactly five (long rejection runs for four distinct
indices) and of six or more all occur; rows are drawn in subsets, as a
shard worker draws its owned rows; and the first word block is shrunk
so that nodes run out of words and take the top-up path.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import store as store_module
from repro.core.attributes import AttributeSchema, numeric
from repro.core.cells import iter_slots
from repro.core.descriptors import NodeDescriptor
from repro.core.index import CellIndex
from repro.core.routing import PICKS_CAP, RoutingTable
from repro.core.store import BootstrapPlan, DescriptorStore, bootstrap_rng
from tests.core.test_vector import (
    scalar_seed_slots,
    scalar_slot_buckets_by_cell,
)

#: Cell multiplicities every clustered population contains, each beside
#: a one-node sibling cell whose level-1 bucket at the last dimension is
#: exactly that cell.
MULTIPLICITIES = (1, 2, 3, 4, 5, 6, 9)

geometries = st.tuples(st.integers(1, 8), st.integers(1, 7)).filter(
    lambda geometry: geometry[0] * geometry[1] <= 62
)


def make_schema(dimensions, max_level):
    top = 1 << max_level
    return AttributeSchema.regular(
        [numeric(f"a{i}", 0.0, float(top)) for i in range(dimensions)],
        max_level=max_level,
    )


def clustered_population(schema, rng, extra):
    """Cells of every multiplicity, their siblings, and *extra* stray nodes."""
    dimensions, top = schema.dimensions, 1 << schema.max_level
    cells = []
    for multiplicity in MULTIPLICITIES:
        cell = [rng.randrange(top) for _ in range(dimensions)]
        sibling = list(cell)
        sibling[-1] ^= 1
        cells += [cell] * multiplicity + [sibling]
    cells += [
        [rng.randrange(top) for _ in range(dimensions)] for _ in range(extra)
    ]
    rng.shuffle(cells)
    return [
        NodeDescriptor.build(
            address,
            schema,
            {f"a{i}": index + 0.5 for i, index in enumerate(cell)},
        )
        for address, cell in enumerate(cells)
    ]


def failover_chain(table, level, dim):
    """Every inhabitant ``alternative`` offers for a slot, in order."""
    chain, exclude = [], set()
    while (choice := table.alternative(level, dim, exclude)) is not None:
        chain.append(choice)
        exclude.add(choice.address)
    return chain


def table_reads(table):
    """Every read a row-backed table answers without promotion."""
    slots = list(iter_slots(table.dimensions, table.max_level))
    return (
        [table.neighbor(*slot) for slot in slots],
        [failover_chain(table, *slot) for slot in slots],
        list(table.zero_neighbors()),
        table.filled_slots(),
        list(table.empty_slots()),
        table.slot_fill_fraction(),
        table.link_count(),
        table.primary_link_count(),
        table.zero_count(),
    )


def table_dicts(table):
    return [
        list(table._primary.items()),
        list(table._alternates.items()),
        list(table._zero.items()),
        list(table._by_address.items()),
    ]


def assert_draw_matches_oracle(
    schema, descriptors, rows, seed, stream, alternates, capacity
):
    store = DescriptorStore.from_descriptors(schema, descriptors)
    index = CellIndex(schema)
    for descriptor in descriptors:
        index.add(descriptor)
    oracle_buckets = scalar_slot_buckets_by_cell(index, schema, PICKS_CAP)
    links = BootstrapPlan(store, PICKS_CAP).draw(rows, seed, stream)

    def table(owner):
        return RoutingTable(
            owner,
            schema.dimensions,
            schema.max_level,
            alternates_per_slot=alternates,
            zero_capacity=capacity,
        )

    for position, row in enumerate(rows):
        owner = store.descriptor(row)
        oracle = table(owner)
        oracle.seed_zero(index.members(owner.coordinates))
        scalar_seed_slots(
            oracle,
            oracle_buckets[owner.coordinates],
            bootstrap_rng(seed, owner.address, stream),
        )
        attached = table(owner)
        attached.seed_slots(links, position)
        assert table_reads(attached) == table_reads(oracle)
        assert attached._links is not None  # reads never promote
        attached._promote()
        assert table_dicts(attached) == table_dicts(oracle)


@settings(max_examples=60, deadline=None)
@given(
    geometry=geometries,
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(0, 40),
    shards=st.integers(1, 3),
    words=st.sampled_from([1, 2, 5, 16, store_module._WORDS]),
    chunk=st.sampled_from([3, store_module._CHUNK]),
    alternates=st.sampled_from([0, 1, 2, 3, 5]),
    capacity=st.sampled_from([None, 0, 1, 3]),
    stream=st.sampled_from(["bootstrap", "runtime-bootstrap"]),
)
def test_draw_is_bit_identical_to_the_scalar_loop(
    geometry, seed, extra, shards, words, chunk, alternates, capacity, stream
):
    schema = make_schema(*geometry)
    rng = random.Random(seed)
    descriptors = clustered_population(schema, rng, extra)
    shard = rng.randrange(shards)
    rows = [
        row for row in range(len(descriptors)) if row % shards == shard
    ]
    with mock.patch.object(store_module, "_WORDS", words), mock.patch.object(
        store_module, "_CHUNK", chunk
    ):
        assert_draw_matches_oracle(
            schema, descriptors, rows, seed, stream, alternates, capacity
        )


def test_clustered_populations_cover_every_bucket_class():
    """The populations above reach every branch of the draw."""
    schema = make_schema(3, 3)
    descriptors = clustered_population(schema, random.Random(7), 20)
    plan = BootstrapPlan(
        DescriptorStore.from_descriptors(schema, descriptors), PICKS_CAP
    )
    sizes = set(plan._bucket_sizes.tolist())
    assert 1 in sizes and 5 in sizes
    assert sizes & {2, 3, 4}
    assert max(sizes) >= 6


def test_short_word_blocks_take_the_top_up_path():
    """A node whose words run out is drawn again, to the same picks."""
    schema = make_schema(3, 3)
    descriptors = clustered_population(schema, random.Random(11), 30)
    rows = list(range(len(descriptors)))
    calls = []
    draw_block = BootstrapPlan._draw_block

    def counting(self, buckets, words):
        picks, short = draw_block(self, buckets, words)
        calls.append(int(short.sum()))
        return picks, short

    with mock.patch.object(store_module, "_WORDS", 4), mock.patch.object(
        BootstrapPlan, "_draw_block", counting
    ):
        assert_draw_matches_oracle(
            schema, descriptors, rows, 11, "bootstrap", 3, None
        )
    assert calls[0] > 0 and calls[-1] == 0
