"""Property tests: the numpy cell algebra is bit-identical to the scalar one.

Every vectorized function in :mod:`repro.core.vector` is checked against
the scalar algebra of :mod:`repro.core.cells` on randomized geometries
(depth, dimensions, populations), including the N(l,k) partition
invariant that underpins exactly-once delivery. Cell keys and bucket
keys are held to the :class:`~repro.core.cells.Region` geometry: the
bootstrap's bucket derivation from regions exists nowhere but in this
file.
"""

import itertools
import random
from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vector
from repro.core.attributes import AttributeSchema, numeric
from repro.core.cells import (
    bucket_code,
    cell_code,
    cell_interval,
    iter_slots,
    neighboring_region,
)
from repro.core.index import CellIndex
from repro.core.routing import PICKS_CAP
from repro.core.store import bootstrap_rng

# Geometry strategy: dimensions x max_level kept small enough for the
# exhaustive checks but covering the non-trivial range.
geometries = st.tuples(st.integers(1, 4), st.integers(1, 4))
# Every geometry up to d = 8 and max(l) = 7 (d * max(l) <= 62 throughout).
wide_geometries = st.tuples(st.integers(1, 8), st.integers(1, 7))


def random_coords(rng, count, dimensions, max_level):
    top = 1 << max_level
    return np.array(
        [
            [rng.randrange(top) for _ in range(dimensions)]
            for _ in range(count)
        ],
        dtype=np.int64,
    )


@settings(max_examples=50, deadline=None)
@given(geometries, st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_coordinates_matrix_matches_scalar(geometry, seed, count):
    dimensions, max_level = geometry
    rng = random.Random(seed)
    schema = AttributeSchema.regular(
        [numeric(f"a{d}", 0.0, 10.0) for d in range(dimensions)],
        max_level=max_level,
    )
    # Mix uniform values with exact boundary hits and out-of-range values:
    # searchsorted and bisect_right must agree on all of them.
    specials = [boundary for splits in schema.boundaries for boundary in splits]
    specials += [-1.0, 0.0, 10.0, 11.0]
    values = [
        [
            rng.choice(specials) if rng.random() < 0.3 else rng.uniform(-1, 11)
            for _ in range(dimensions)
        ]
        for _ in range(count)
    ]
    matrix = vector.coordinates_matrix(schema, np.array(values))
    for row, value_row in zip(matrix.tolist(), values):
        assert tuple(row) == schema.coordinates(value_row)


@settings(max_examples=50, deadline=None)
@given(geometries, st.integers(0, 2**32 - 1))
def test_region_geometry_and_masks_match_scalar(geometry, seed):
    dimensions, max_level = geometry
    rng = random.Random(seed)
    coords = random_coords(rng, 30, dimensions, max_level)
    # Membership against random boxes.
    top = 1 << max_level
    for _ in range(5):
        ranges = []
        for _ in range(dimensions):
            a, b = rng.randrange(top), rng.randrange(top)
            ranges.append((min(a, b), max(a, b)))
        mask = vector.contains_mask(coords, ranges)
        for i, row in enumerate(coords.tolist()):
            expected = all(
                lo <= index <= hi for index, (lo, hi) in zip(row, ranges)
            )
            assert bool(mask[i]) == expected


@settings(max_examples=50, deadline=None)
@given(geometries, st.integers(0, 2**32 - 1))
def test_partition_invariant_vectorized(geometry, seed):
    """{C0(X)} ∪ {N(l,k)(X)} covers every node exactly once (vectorized)."""
    dimensions, max_level = geometry
    rng = random.Random(seed)
    own = tuple(rng.randrange(1 << max_level) for _ in range(dimensions))
    others = random_coords(rng, 60, dimensions, max_level)
    own_row = np.array(own, dtype=np.int64)
    counts = np.zeros(len(others), dtype=np.int64)
    counts += (others == own_row).all(axis=1)  # C0 membership
    for level, dim in iter_slots(dimensions, max_level):
        region = neighboring_region(own, level, dim)
        counts += vector.contains_mask(others, region.intervals)
    assert (counts == 1).all()


@settings(max_examples=50, deadline=None)
@given(wide_geometries, st.integers(0, 2**32 - 1))
def test_cell_codes_match_scalar(geometry, seed):
    dimensions, max_level = geometry
    coords = random_coords(random.Random(seed), 40, dimensions, max_level)
    assert vector.cell_codes(coords, max_level).tolist() == [
        cell_code(row, max_level) for row in coords.tolist()
    ]


@settings(max_examples=50, deadline=None)
@given(geometries, st.integers(0, 2**32 - 1))
def test_bucket_codes_match_region_membership(geometry, seed):
    """Y in N(l,k)(X) iff Y's bucket code is X's with its last bit flipped."""
    dimensions, max_level = geometry
    rng = random.Random(seed)
    coords = random_coords(rng, 30, dimensions, max_level)
    rows = [tuple(row) for row in coords.tolist()]
    codes = vector.cell_codes(coords, max_level)
    for level, dim in iter_slots(dimensions, max_level):
        buckets = bucket_code(codes, level, dim, dimensions).tolist()
        for j, own in enumerate(rows):
            region = neighboring_region(own, level, dim)
            for i, other in enumerate(rows):
                linked = buckets[i] == buckets[j] ^ 1
                assert linked == region.contains(other)


@settings(max_examples=50, deadline=None)
@given(wide_geometries, st.integers(0, 2**32 - 1))
def test_box_cell_codes_are_the_codes_of_the_box(geometry, seed):
    dimensions, max_level = geometry
    rng = random.Random(seed)
    top = 1 << max_level
    ranges = []
    for _ in range(dimensions):
        low = rng.randrange(top)
        ranges.append((low, min(top - 1, low + rng.randrange(3))))
    expected = sorted(
        cell_code(point, max_level)
        for point in itertools.product(
            *(range(low, high + 1) for low, high in ranges)
        )
    )
    assert vector.box_cell_codes(ranges, max_level).tolist() == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
def test_coordinates_are_interned(seed, count):
    rng = random.Random(seed)
    schema = AttributeSchema.regular(
        [numeric("x", 0, 8), numeric("y", 0, 8)], max_level=3
    )
    first_seen = {}
    for _ in range(count):
        coords = schema.coordinates([rng.uniform(0, 8), rng.uniform(0, 8)])
        # Interning: equal coordinates are the *same* tuple object.
        assert first_seen.setdefault(coords, coords) is coords
        canonical, code = schema.intern_cell(tuple(list(coords)))
        assert canonical is coords
        assert code == cell_code(coords, schema.max_level)


def block(coordinates, level, dim):
    """The region of the ``(level, dim)`` block holding a cell.

    The cell's ``C_(level-1)`` interval at dimensions up to *dim*, its
    ``C_level`` interval beyond: ``N(level, dim)(X)`` is exactly the
    block of every cell it contains.
    """
    return tuple(
        cell_interval(index, level - 1 if j <= dim else level)
        for j, index in enumerate(coordinates)
    )


def scalar_slot_buckets_by_cell(index, schema, picks_cap):
    """Per occupied C0 cell, the ``(level, dim, bucket, picks)`` list.

    Derived from the region geometry of a ``CellIndex``'s ``cells``: the
    oracle for :class:`repro.core.store.BootstrapPlan`'s bucket codes.
    """
    cell_items = list(index.cells())
    buckets = defaultdict(list)
    for coordinates, members in cell_items:
        for level, dim in iter_slots(schema.dimensions, schema.max_level):
            buckets[block(coordinates, level, dim)].extend(members)
    slot_buckets_of = {}
    for coordinates, _members in cell_items:
        slot_buckets = slot_buckets_of[coordinates] = []
        for level, dim in iter_slots(schema.dimensions, schema.max_level):
            region = neighboring_region(coordinates, level, dim)
            bucket = buckets.get(region.intervals)
            if bucket:
                assert all(region.contains(d.coordinates) for d in bucket)
                slot_buckets.append(
                    (level, dim, bucket, min(len(bucket), picks_cap))
                )
    return slot_buckets_of


def scalar_seed_slots(table, slot_buckets, rng):
    """The per-slot draw loop: the oracle of ``BootstrapPlan.draw``.

    Each element of *slot_buckets* is ``(level, dim, bucket, picks)``:
    *picks* members of *bucket* are drawn without replacement from *rng*
    — ``int(rng.random() * count)`` for one pick, a ``shuffle`` of the
    whole bucket when it holds no more than *picks*, distinct
    ``int(rng.random() * count)`` indices otherwise — and installed into
    *table*'s dicts: the first draw as the slot's selected neighbor, the
    rest as alternates up to ``alternates_per_slot``.
    """
    cap = table.alternates_per_slot
    for level, dim, bucket, picks in slot_buckets:
        count = len(bucket)
        if picks == 1:
            chosen = [bucket[int(rng.random() * count)]]
        elif picks >= count:
            chosen = list(bucket)
            rng.shuffle(chosen)
        else:
            indices = {}
            while len(indices) < picks:
                indices[int(rng.random() * count)] = None
            chosen = [bucket[i] for i in indices]
        slot = (level, dim)
        table._primary[slot] = chosen[0]
        table._by_address[chosen[0].address] = chosen[0]
        rest = chosen[1 : 1 + cap]
        if rest:
            table._alternates[slot] = rest
            for descriptor in rest:
                table._by_address[descriptor.address] = descriptor


def scalar_seed(deployment):
    """Seed every host's table from the scalar oracle's buckets."""
    schema = deployment.schema
    index = CellIndex(schema)
    for host in deployment.hosts.values():
        index.add(host.descriptor)
    slot_buckets_of = scalar_slot_buckets_by_cell(index, schema, PICKS_CAP)
    for host in deployment.hosts.values():
        coordinates = host.descriptor.coordinates
        host.node.routing.seed_zero(index.members(coordinates))
        scalar_seed_slots(
            host.node.routing,
            slot_buckets_of[coordinates],
            bootstrap_rng(deployment.seed, host.address),
        )


def routing_tables(deployment):
    """Every host's links and alternates, by address."""
    return {
        address: (
            sorted(
                (str(host.node.routing._locate(a)), a)
                for a in host.node.routing.addresses()
            ),
            [
                (slot, [d.address for d in alternates])
                for slot, alternates in sorted(
                    host.node.routing._alternates.items()
                )
            ],
        )
        for address, host in deployment.hosts.items()
    }


def test_bootstrap_vector_path_matches_scalar():
    """End-to-end bit-identity: plan-seeded and region-seeded tables agree."""
    from repro.experiments.config import PAPER_PEERSIM
    from repro.experiments.harness import build_deployment
    from repro.sim.deployment import Deployment
    from repro.workloads.distributions import uniform_sampler

    config = PAPER_PEERSIM.scaled(400)
    planned, _metrics = build_deployment(config)
    schema = config.schema()
    oracle = Deployment(schema, seed=config.seed)
    oracle.populate(uniform_sampler(schema), config.network_size)
    scalar_seed(oracle)
    assert routing_tables(planned) == routing_tables(oracle)
