"""Property tests: the numpy cell algebra is bit-identical to the scalar one.

Every vectorized function in :mod:`repro.core.vector` is checked against
the scalar algebra of :mod:`repro.core.cells` on randomized geometries
(depth, dimensions, populations), including the N(l,k) partition
invariant that underpins exactly-once delivery. The scalar code lives on
only as this oracle: the bootstrap's tuple-key bucket derivation, for
one, exists nowhere but in this file.
"""

import random
from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vector
from repro.core.attributes import AttributeSchema, numeric
from repro.core.cells import (
    bucket_key,
    flipped_key,
    iter_slots,
    neighboring_region,
)
from repro.core.index import CellIndex
from repro.core.routing import PICKS_CAP
from repro.core.store import bootstrap_rng

# Geometry strategy: dimensions x max_level kept small enough for the
# exhaustive checks but covering the non-trivial range.
geometries = st.tuples(st.integers(1, 4), st.integers(1, 4))


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
@given(geometries, st.integers(0, 2**32 - 1))
def test_pack_codes_equal_iff_bucket_keys_equal(geometry, seed):
    dimensions, max_level = geometry
    rng = random.Random(seed)
    coords = random_coords(rng, 40, dimensions, max_level)
    rows = [tuple(row) for row in coords.tolist()]
    for level, dim in iter_slots(dimensions, max_level):
        codes = vector.pack_codes(coords, level, dim, max_level).tolist()
        flips = vector.pack_codes(
            coords, level, dim, max_level, flip=True
        ).tolist()
        scalar_codes = [bucket_key(row, level, dim) for row in rows]
        scalar_flips = [flipped_key(row, level, dim) for row in rows]
        for i in range(len(rows)):
            for j in range(len(rows)):
                assert (codes[i] == codes[j]) == (
                    scalar_codes[i] == scalar_codes[j]
                )
                # The linking identity: Y in N(l,k)(X) iff Y's bucket key
                # equals X's flipped key.
                assert (codes[i] == flips[j]) == (
                    scalar_codes[i] == scalar_flips[j]
                )
                member = neighboring_region(rows[j], level, dim).contains(
                    rows[i]
                )
                assert (codes[i] == flips[j]) == member


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
        assert schema.intern_coordinates(tuple(list(coords))) is coords


def scalar_slot_buckets_by_cell(index, schema, picks_cap):
    """Per occupied C0 cell, the ``(level, dim, bucket, picks)`` list.

    Derived from the scalar tuple keys of a ``CellIndex``'s ``cells``: the
    oracle for :class:`repro.core.store.BootstrapPlan`'s packed codes.
    """
    cell_items = list(index.cells())
    buckets = defaultdict(list)
    for coordinates, members in cell_items:
        for level, dim in iter_slots(schema.dimensions, schema.max_level):
            buckets[bucket_key(coordinates, level, dim)].extend(members)
    slot_buckets_of = {}
    for coordinates, _members in cell_items:
        slot_buckets = slot_buckets_of[coordinates] = []
        for level, dim in iter_slots(schema.dimensions, schema.max_level):
            bucket = buckets.get(flipped_key(coordinates, level, dim))
            if bucket:
                slot_buckets.append(
                    (level, dim, bucket, min(len(bucket), picks_cap))
                )
    return slot_buckets_of


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
        host.node.routing.seed_slots(
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
    """End-to-end bit-identity: plan-seeded and tuple-key tables agree."""
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
