"""Property tests: the columnar store is exactly the object path.

:mod:`repro.core.store` re-derives everything the build needs — sampled
values, cell coordinates, packed cell keys, bootstrap buckets, and the
match index — from numpy arrays instead of per-node objects. Its whole
correctness obligation is *bit-identity with the object path*: the same
seeded stream must yield the same values, the same cells, and the same
query answers, including under add/remove churn layered on top of the
frozen columnar base.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import store as store_module
from repro.core import vector
from repro.core.attributes import AttributeSchema, categorical, numeric
from repro.core.cells import cell_code
from repro.core.descriptors import NodeDescriptor
from repro.core.index import CellIndex
from repro.core.query import Query
from repro.core.store import ColumnarCellIndex, DescriptorStore
from repro.util.rng import derive_rng
from repro.workloads.distributions import uniform_sampler
from repro.workloads.queries import aligned_selectivity_query, random_box_query


def make_schema(
    dimensions: int, max_level: int, categorical_dims: int = 0
) -> AttributeSchema:
    return AttributeSchema.regular(
        [numeric(f"a{i}", 0.0, 100.0) for i in range(dimensions)]
        + [
            categorical(f"c{i}", ["red", "green", "blue", "cyan", "gold"])
            for i in range(categorical_dims)
        ],
        max_level=max_level,
    )


def scalar_population(schema, sampler, rng, count):
    """The object populate loop the vectorized pass must replicate."""
    return [
        NodeDescriptor.build(address, schema, sampler(rng))
        for address in range(count)
    ]


@settings(max_examples=40, deadline=None)
@given(
    dimensions=st.integers(1, 5),
    max_level=st.integers(1, 4),
    population=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_store_is_bit_identical_to_object_loop(
    dimensions, max_level, population, seed
):
    schema = make_schema(dimensions, max_level)
    sampler = uniform_sampler(schema)

    batched_rng = derive_rng(seed, "population")
    store = DescriptorStore.sample(schema, sampler, batched_rng, population)

    scalar_rng = derive_rng(seed, "population")
    reference = scalar_population(schema, sampler, scalar_rng, population)

    # Same stream position afterwards: interleaved populate calls stay
    # aligned no matter which path served the earlier batches.
    assert batched_rng.getstate() == scalar_rng.getstate()

    assert len(store) == len(reference)
    for row, expected in enumerate(reference):
        materialized = store.descriptor(row)
        assert materialized.address == expected.address
        assert materialized.values == expected.values  # bit-identical floats
        assert materialized.coordinates == expected.coordinates
        # Interned against the same schema cache as the object path.
        assert materialized.coordinates is expected.coordinates
        assert materialized.code == expected.code


@settings(max_examples=40, deadline=None)
@given(
    dimensions=st.integers(1, 8),
    max_level=st.integers(1, 7),
    population=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_cell_keys_match_descriptor_cells(
    dimensions, max_level, population, seed
):
    schema = make_schema(dimensions, max_level)
    sampler = uniform_sampler(schema)
    store = DescriptorStore.sample(
        schema, sampler, derive_rng(seed, "population"), population
    )
    for row in range(len(store)):
        descriptor = store.descriptor(row)
        code = cell_code(descriptor.coordinates, max_level)
        assert int(store.cell_codes[row]) == descriptor.code == code


def assert_same_index(columnar: ColumnarCellIndex, reference: CellIndex):
    """Observational equality across the whole CellIndex surface."""
    assert len(columnar) == len(reference)
    assert columnar.occupied_cells == reference.occupied_cells
    by_key = lambda d: d.address
    assert sorted(columnar.descriptors(), key=by_key) == sorted(
        reference.descriptors(), key=by_key
    )
    for coordinates, members in reference.cells():
        assert sorted(columnar.members(coordinates), key=by_key) == sorted(
            members, key=by_key
        )


def split_point_query(schema: AttributeSchema, rng: random.Random) -> Query:
    """Bounds lying exactly on cell split points, plus categorical sets."""
    specs = {}
    for dim, definition in enumerate(schema.definitions):
        splits = schema.boundaries[dim]
        choice = rng.random()
        if definition.is_categorical and choice < 0.5:
            specs[definition.name] = rng.sample(
                definition.categories,
                rng.randint(1, len(definition.categories)),
            )
        elif choice < 0.85:
            low, high = sorted(
                (rng.randrange(len(splits)), rng.randrange(len(splits)))
            )
            specs[definition.name] = (
                splits[low] if rng.random() < 0.8 else None,
                splits[high] if rng.random() < 0.8 else None,
            )
    return Query.where(schema, **specs)


def probe_queries(schema: AttributeSchema, rng: random.Random):
    """Boxes from a few cells up to the whole space, of every shape."""
    for selectivity in (0.001, 0.01, 0.125, 0.5, 1.0):
        yield random_box_query(schema, selectivity, rng)
    for selectivity in (1 / 64, 0.125, 0.5):
        yield aligned_selectivity_query(schema, selectivity, rng)
    yield split_point_query(schema, rng)
    yield split_point_query(schema, rng)


def assert_same_matching(columnar, reference, query):
    """Same objects, in ascending address order — not merely equal."""
    found = columnar.matching(query)
    expected = reference.matching(query)
    assert len(found) == len(expected)
    assert all(got is want for got, want in zip(found, expected))
    addresses = [descriptor.address for descriptor in found]
    assert addresses == sorted(set(addresses))


@settings(max_examples=60, deadline=None)
@given(
    dimensions=st.integers(1, 4),
    max_level=st.integers(1, 4),
    categorical_dims=st.integers(0, 2),
    population=st.integers(0, 50),
    start=st.sampled_from(["sampled", "descriptors", "empty"]),
    churn_ops=st.integers(0, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_columnar_index_matches_object_index_under_churn(
    dimensions, max_level, categorical_dims, population, start, churn_ops, seed
):
    """Any base — sampled, built from descriptors, or empty and filled by
    ``add`` as ``Deployment.populate`` does — under churn long enough to
    fold the overlay back into the base several times."""
    schema = make_schema(dimensions, max_level, categorical_dims)
    sampler = uniform_sampler(schema)
    population_rng = derive_rng(seed, "population")
    if start == "sampled":
        # Categorical schemas have no batch hook: the scalar loop fills it.
        store = DescriptorStore.sample(
            schema, sampler, population_rng, population
        )
        initial = list(store.descriptors())
    else:
        initial = scalar_population(schema, sampler, population_rng, population)
        store = DescriptorStore.from_descriptors(
            schema, () if start == "empty" else initial
        )
    columnar = ColumnarCellIndex(store)
    reference = CellIndex(schema)
    for descriptor in initial:
        reference.add(descriptor)
        if start == "empty":
            columnar.add(descriptor)

    rng = random.Random(seed)
    query_rng = random.Random(seed + 1)
    next_address = population
    for step in range(churn_ops):
        operation = rng.random()
        if operation < 0.35:  # join a fresh node
            descriptor = NodeDescriptor.build(
                next_address, schema, sampler(rng)
            )
            next_address += 1
            columnar.add(descriptor)
            reference.add(descriptor)
        elif operation < 0.65:  # kill a (possibly absent) node
            address = rng.randrange(next_address + 3)
            assert columnar.discard(address) == reference.discard(address)
        else:  # refresh an existing node with new values
            address = rng.randrange(next_address + 1)
            if address in reference:
                descriptor = NodeDescriptor.build(
                    address, schema, sampler(rng)
                )
                columnar.add(descriptor)
                reference.add(descriptor)

        address = rng.randrange(next_address + 3)
        assert (address in columnar) == (address in reference)
        assert columnar.get(address) is reference.get(address)
        if step % 8 == 0:  # lookups between mutations trigger the folds
            assert_same_matching(
                columnar, reference, random_box_query(schema, 0.125, query_rng)
            )

    assert_same_index(columnar, reference)
    for query in probe_queries(schema, query_rng):
        assert_same_matching(columnar, reference, query)


def test_lookups_fold_the_overlay_past_the_fold_fraction():
    schema = make_schema(3, 3)
    sampler = uniform_sampler(schema)
    store = DescriptorStore.sample(
        schema, sampler, derive_rng(3, "population"), 40
    )
    columnar = ColumnarCellIndex(store)
    reference = CellIndex(schema)
    for descriptor in store.descriptors():
        reference.add(descriptor)
    rng = random.Random(3)
    query = Query.where(schema)
    limit = int(store_module._FOLD_FRACTION * len(store))
    for address in range(40, 40 + limit):
        descriptor = NodeDescriptor.build(address, schema, sampler(rng))
        columnar.add(descriptor)
        reference.add(descriptor)
    assert_same_matching(columnar, reference, query)
    assert columnar._store is store  # at the fraction: no fold yet

    descriptor = NodeDescriptor.build(40 + limit, schema, sampler(rng))
    columnar.add(descriptor)
    reference.add(descriptor)
    assert columnar.discard(5) and reference.discard(5)
    assert_same_matching(columnar, reference, query)
    assert columnar._store is not store  # past it: one fresh base
    assert len(columnar._store) == len(reference)
    assert len(columnar._overlay) == 0 and columnar._removed_count == 0
    assert_same_index(columnar, reference)


def test_lookup_enumerates_small_boxes_and_scans_large_ones(monkeypatch):
    """Both candidate-cell branches run, and both agree with the oracle."""
    schema = make_schema(3, 3)
    store = DescriptorStore.sample(
        schema, uniform_sampler(schema), derive_rng(11, "population"), 300
    )
    columnar = ColumnarCellIndex(store)
    reference = CellIndex(schema)
    for descriptor in store.descriptors():
        reference.add(descriptor)
    calls = {"box_cell_codes": 0, "contains_mask": 0}
    for name in calls:
        original = getattr(vector, name)

        def spy(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(vector, name, spy)
    rng = random.Random(11)
    occupied = store.grouping().cell_count
    for selectivity in (0.01, 0.05, 0.5, 1.0):
        query = random_box_query(schema, selectivity, rng)
        box = 1
        for low, high in query.index_ranges():
            box *= high - low + 1
        branch = "box_cell_codes" if box <= occupied else "contains_mask"
        before = calls[branch]
        assert_same_matching(columnar, reference, query)
        assert calls[branch] == before + 1
    assert calls["box_cell_codes"] and calls["contains_mask"]


def test_sample_falls_back_without_batch_hook():
    schema = make_schema(2, 3)

    def plain_sampler(rng):  # no sample_batch attribute
        return {d.name: rng.uniform(d.lower, d.upper) for d in schema.definitions}

    rng = random.Random(1)
    store = DescriptorStore.sample(
        schema, plain_sampler, rng, 10, base_address=5
    )
    scalar_rng = random.Random(1)
    reference = [
        NodeDescriptor.build(address, schema, plain_sampler(scalar_rng))
        for address in range(5, 15)
    ]
    assert rng.getstate() == scalar_rng.getstate()
    assert list(store.descriptors()) == reference
    assert store.address_at(0) == 5


def test_concat_matches_single_pass():
    schema = make_schema(3, 3)
    sampler = uniform_sampler(schema)
    rng = derive_rng(7, "population")
    first = DescriptorStore.sample(schema, sampler, rng, 30)
    second = DescriptorStore.sample(
        schema, sampler, rng, 20, base_address=30
    )
    combined = DescriptorStore.concat(first, second)

    reference = scalar_population(
        schema, sampler, derive_rng(7, "population"), 50
    )
    assert [combined.descriptor(row) for row in range(50)] == reference
