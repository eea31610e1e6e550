"""Columnar descriptor store: the population as numpy arrays.

At bench scale the per-node object graph dominates both build time and
memory: ``NodeDescriptor`` instances, interned coordinate tuples and the
dict-backed :class:`~repro.core.index.CellIndex` cost kilobytes per node
before a single routing table exists. This module keeps the population
*columnar* instead — four arrays holding everything the build needs:

====================  =========================  ==========================
column                shape / dtype              contents
====================  =========================  ==========================
``addresses``         ``(n,)    int64``          node addresses (ascending)
``values``            ``(n, d)  float64``        encoded attribute values
``coords``            ``(n, d)  int64``          per-dimension cell indices
``cell_codes``        ``(n,)    int64``          C0 cell keys
====================  =========================  ==========================

The store is populated by one **vectorized sampler pass**
(:meth:`DescriptorStore.sample`): a single batched draw from the
deployment's seeded population stream, bit-identical draw for draw to
``count`` scalar ``sampler(rng)`` calls
(:func:`repro.util.rng.batched_random`), followed by batch value->cell
mapping (:func:`repro.core.vector.coordinates_matrix`) and C0 keys
(:func:`repro.core.vector.cell_codes`: the level-interleaved key of
:func:`repro.core.cells.cell_code`, so every slot bucket is a right
shift of a cell's key). A sampler without
the batch hook is drawn by that scalar loop on the same stream and
stored via :meth:`DescriptorStore.from_descriptors`.

``NodeDescriptor`` objects are materialized **lazily as flyweights**
(:meth:`DescriptorStore.descriptor`) only where the object API is
genuinely needed — hosts, routing-table install, wire codec, gossip
payloads — and cached per row, so a descriptor referenced from sixty
routing tables still exists once. Everything else reads the arrays
directly:

* :class:`CellGrouping` — the sorted-array twin of the ``CellIndex``
  bucket structure: one stable argsort of ``cell_codes`` yields per-cell
  member row ranges, with cells ordered exactly as incremental
  ``CellIndex.add`` calls in address order would order them (first-seen
  by lowest member address).
* :class:`ColumnarCellIndex` — the ground-truth index of both sim
  engines: a frozen columnar base plus a removed-row mask and an object
  ``CellIndex`` overlay for add/remove churn, folded back into a fresh
  base once the overlay outgrows a fixed fraction of it. ``matching`` is
  array operations only: box cells, member rows, value mask, then one
  descriptor lookup per result row.
* :class:`BootstrapPlan` — the per-cell zero/slot buckets of the
  converged bootstrap, derived once from the grouping; buckets are row
  arrays wrapped in :class:`_RowBucket` lazy sequences so
  ``RoutingTable.seed_zero``/``seed_slots`` run unchanged and only the
  descriptors actually drawn are materialized. It is the one slot-bucket
  derivation: :func:`seed_tables` seeds every table of ``sim.Deployment``
  and of the asyncio runtime from it, and a sharded deployment builds it
  once and shares it with every shard worker.

Every schema packs its C0 keys into int64 (:class:`AttributeSchema`
refuses any geometry that does not), so nothing here has a fallback: the
store is the population of every sim engine (``sim.Deployment`` keeps it
as its ground-truth index's base, the sharded master as its own) and
``ColumnarCellIndex`` the only ground-truth index of both. The object
``CellIndex`` is its test oracle and its churn overlay.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core import vector
from repro.core.attributes import AttributeSchema
from repro.core.cells import Coordinates, bucket_code, cell_code
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.index import CellIndex
from repro.core.query import Query
from repro.core.routing import PICKS_CAP, RoutingTable
from repro.util.intervals import Interval
from repro.util.rng import derive_rng

#: A lookup folds the churn overlay into a fresh columnar base once the
#: overlay holds more than this fraction of the base's rows. A fold costs
#: O(N) and comes at most once per ``_FOLD_FRACTION * N`` mutations, so
#: churn stays amortised O(1) per mutation.
_FOLD_FRACTION = 0.25


class DescriptorStore:
    """The population as columnar arrays plus a flyweight descriptor cache."""

    __slots__ = (
        "schema",
        "addresses",
        "values",
        "coords",
        "cell_codes",
        "_base_address",
        "_dense",
        "_row_by_address",
        "_materialized",
        "_grouping",
    )

    def __init__(
        self,
        schema: AttributeSchema,
        addresses: "np.ndarray",
        values: "np.ndarray",
        coords: "np.ndarray",
        cell_codes: "np.ndarray",
    ) -> None:
        self.schema = schema
        self.addresses = addresses
        self.values = values
        self.coords = coords
        self.cell_codes = cell_codes
        count = len(addresses)
        self._base_address = int(addresses[0]) if count else 0
        # Populate assigns consecutive addresses, so row lookup is almost
        # always pure arithmetic; the dict below is the general fallback.
        self._dense = bool(
            count == 0
            or (
                int(addresses[-1]) - self._base_address + 1 == count
                and bool(np.all(np.diff(addresses) == 1))
            )
        )
        self._row_by_address: Optional[Dict[int, int]] = None
        self._materialized: Dict[int, NodeDescriptor] = {}
        self._grouping: Optional["CellGrouping"] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def sample(
        cls,
        schema: AttributeSchema,
        sampler,
        rng: random.Random,
        count: int,
        base_address: Address = 0,
    ) -> "DescriptorStore":
        """Columnar twin of the per-descriptor populate loop.

        Draws *count* nodes from *sampler* and returns the store with
        addresses ``base_address .. base_address + count - 1``, leaving
        *rng* exactly where *count* scalar ``sampler(rng)`` calls would
        leave it. A sampler with a ``sample_batch`` hook is drawn in one
        batched pass over the same stream; any other is drawn by that
        scalar loop and stored via :meth:`from_descriptors`.
        """
        batch = getattr(sampler, "sample_batch", None)
        if batch is None:
            return cls.from_descriptors(
                schema,
                [
                    NodeDescriptor.build(address, schema, sampler(rng))
                    for address in range(base_address, base_address + count)
                ],
            )
        values = np.ascontiguousarray(batch(rng, count), dtype=np.float64)
        coords = vector.coordinates_matrix(schema, values)
        cell_codes = vector.cell_codes(coords, schema.max_level)
        addresses = np.arange(
            base_address, base_address + count, dtype=np.int64
        )
        return cls(schema, addresses, values, coords, cell_codes)

    @classmethod
    def from_descriptors(
        cls, schema: AttributeSchema, descriptors: Iterable[NodeDescriptor]
    ) -> "DescriptorStore":
        """A store over existing descriptor objects, rows in address order.

        The flyweight cache is seeded with the given objects, so every
        row reads back as the very descriptor it was built from.
        """
        ordered = sorted(descriptors, key=attrgetter("address"))
        width = schema.dimensions
        values = np.array(
            [descriptor.values for descriptor in ordered], dtype=np.float64
        ).reshape(-1, width)
        coords = np.array(
            [descriptor.coordinates for descriptor in ordered], dtype=np.int64
        ).reshape(-1, width)
        addresses = np.array(
            [descriptor.address for descriptor in ordered], dtype=np.int64
        )
        store = cls(
            schema,
            addresses,
            values,
            coords,
            vector.cell_codes(coords, schema.max_level),
        )
        store._materialized = dict(enumerate(ordered))
        return store

    @classmethod
    def concat(
        cls, first: "DescriptorStore", second: "DescriptorStore"
    ) -> "DescriptorStore":
        """Append *second*'s rows after *first*'s (repeated populate).

        Both flyweight caches carry over, so every row still reads back
        as the descriptor object it did before.
        """
        store = cls(
            first.schema,
            np.concatenate((first.addresses, second.addresses)),
            np.concatenate((first.values, second.values)),
            np.concatenate((first.coords, second.coords)),
            np.concatenate((first.cell_codes, second.cell_codes)),
        )
        offset = len(first)
        store._materialized = dict(first._materialized)
        store._materialized.update(
            (row + offset, descriptor)
            for row, descriptor in second._materialized.items()
        )
        return store

    # -- row access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.addresses)

    def address_at(self, row: int) -> Address:
        """The address stored at *row*."""
        return int(self.addresses[row])

    def row_of(self, address: Address) -> Optional[int]:
        """The row holding *address*, or None."""
        if self._dense:
            row = address - self._base_address
            return row if 0 <= row < len(self.addresses) else None
        if self._row_by_address is None:
            self._row_by_address = {
                addr: row for row, addr in enumerate(self.addresses.tolist())
            }
        return self._row_by_address.get(address)

    def owned_rows(self, num_shards: int, shard_id: int) -> List[int]:
        """Rows whose addresses partition onto shard *shard_id*."""
        if num_shards == 1:
            return list(range(len(self.addresses)))
        mask = (self.addresses % num_shards) == shard_id
        return np.nonzero(mask)[0].tolist()

    # -- flyweight materialization -------------------------------------------

    def descriptor(self, row: int) -> NodeDescriptor:
        """The (cached) ``NodeDescriptor`` view of *row*.

        Identical to what ``NodeDescriptor.build`` makes of the row's
        values: same address, same value tuple, same interned coordinates
        and key.
        """
        cached = self._materialized.get(row)
        if cached is None:
            cached = NodeDescriptor(
                int(self.addresses[row]),
                tuple(self.values[row].tolist()),
                *self.schema.intern_cell(
                    tuple(self.coords[row].tolist()),
                    int(self.cell_codes[row]),
                ),
            )
            self._materialized[row] = cached
        return cached

    def descriptors_at(self, rows: Sequence[int]) -> List[NodeDescriptor]:
        """The (cached) descriptors of *rows*, in the given order."""
        cached = self._materialized
        try:
            return [cached[row] for row in rows]
        except KeyError:
            descriptor = self.descriptor
            return [descriptor(row) for row in rows]

    def descriptors(self) -> Iterator[NodeDescriptor]:
        """Materialize every row, in row (= address) order."""
        for row in range(len(self.addresses)):
            yield self.descriptor(row)

    def materialize_all(self) -> None:
        """Materialize every row in one bulk pass.

        One ``tolist`` per column instead of one per row — ~3x cheaper
        than looping :meth:`descriptor` when the whole population is
        needed anyway (:meth:`BootstrapPlan.materialize`).
        """
        materialized = self._materialized
        if len(materialized) == len(self.addresses):
            return
        intern = self.schema.intern_cell
        addresses = self.addresses.tolist()
        values = self.values.tolist()
        coords = self.coords.tolist()
        codes = self.cell_codes.tolist()
        for row, address in enumerate(addresses):
            if row not in materialized:
                materialized[row] = NodeDescriptor(
                    address,
                    tuple(values[row]),
                    *intern(tuple(coords[row]), codes[row]),
                )

    @property
    def materialized_count(self) -> int:
        """How many rows have been materialized as descriptor objects."""
        return len(self._materialized)

    # -- grouping ------------------------------------------------------------

    def grouping(self) -> "CellGrouping":
        """The (cached) per-C0-cell grouping of the store's rows."""
        if self._grouping is None:
            self._grouping = CellGrouping(self)
        return self._grouping


class CellGrouping:
    """Sorted-array C0 buckets over a store: the vectorized bulk load.

    One stable argsort of the C0 cell keys replaces n incremental
    ``CellIndex.add`` calls. Cells are then re-ranked by their first
    member row, so cell iteration order is exactly the insertion order an
    incremental index fed in address order would produce, and members
    within a cell come out in ascending address order — the orderings the
    bootstrap's bucket construction and draw sequence depend on.
    """

    __slots__ = (
        "order",
        "starts",
        "ends",
        "cell_coords",
        "cell_codes",
        "code_to_cell",
        "_sorted_codes",
        "_sorted_starts",
        "_sorted_ends",
    )

    def __init__(self, store: DescriptorStore) -> None:
        codes = store.cell_codes
        count = len(codes)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        if count:
            boundaries = np.nonzero(np.diff(sorted_codes))[0] + 1
            starts = np.concatenate(
                (np.zeros(1, dtype=np.int64), boundaries)
            )
        else:
            starts = np.zeros(0, dtype=np.int64)
        ends = np.concatenate((starts[1:], np.array([count], dtype=np.int64)))
        if not count:
            ends = starts
        firsts = order[starts] if count else starts
        rank = np.argsort(firsts, kind="stable")
        self.order = order
        # The same spans in ascending-code order, for box lookups.
        self._sorted_codes = sorted_codes[starts]
        self._sorted_starts = starts
        self._sorted_ends = ends
        self.starts = starts[rank]
        self.ends = ends[rank]
        self.cell_coords = store.coords[firsts[rank]] if count else (
            np.zeros((0, store.coords.shape[1]), dtype=np.int64)
        )
        self.cell_codes = self._sorted_codes[rank]
        self.code_to_cell: Dict[int, int] = {
            int(code): cell
            for cell, code in enumerate(self.cell_codes.tolist())
        }

    @property
    def cell_count(self) -> int:
        """Number of occupied C0 cells."""
        return len(self.cell_codes)

    def members(self, cell: int) -> "np.ndarray":
        """Member rows of *cell* in ascending row (= address) order.

        A view into the shared order array — no copy.
        """
        return self.order[self.starts[cell] : self.ends[cell]]

    def rows_in_box(
        self, ranges: Sequence[Interval], max_level: int
    ) -> "np.ndarray":
        """Rows of every cell inside the box *ranges*, ascending.

        The smaller side is enumerated: the box's cell keys are
        binary-searched among the occupied ones, or every occupied cell is
        tested against the box. The hit cells' ``order`` spans are then
        gathered in one ``repeat`` + ``arange`` and sorted.
        """
        box_cells = 1
        for low, high in ranges:
            box_cells *= max(0, high - low + 1)
        if box_cells <= self.cell_count:
            codes = vector.box_cell_codes(ranges, max_level)
            found = np.searchsorted(self._sorted_codes, codes)
            hit = found[
                self._sorted_codes[np.minimum(found, self.cell_count - 1)]
                == codes
            ]
            starts, ends = self._sorted_starts[hit], self._sorted_ends[hit]
        else:
            hit = vector.contains_mask(self.cell_coords, ranges)
            starts, ends = self.starts[hit], self.ends[hit]
        if not len(starts):
            return self.order[:0]
        lengths = ends - starts
        stops = np.cumsum(lengths)
        positions = np.arange(stops[-1]) + np.repeat(
            starts - stops + lengths, lengths
        )
        return np.sort(self.order[positions])


class _RowBucket:
    """Lazy descriptor sequence over a row array.

    Quacks like the ``Sequence[NodeDescriptor]`` buckets the routing
    table's ``seed_zero``/``seed_slots`` consume — ``len``, indexing and
    iteration — but materializes a descriptor only when an element is
    actually touched. A bucket that *is* touched materializes its whole
    descriptor list once (:meth:`descriptors`): within one worker, rows
    sharing a cell re-consume the same buckets many times, and plain
    list access beats per-element array indirection on every revisit.
    """

    __slots__ = ("_store", "_rows", "_descriptors")

    def __init__(self, store: DescriptorStore, rows: "np.ndarray") -> None:
        self._store = store
        self._rows = rows
        self._descriptors: Optional[List[NodeDescriptor]] = None

    def descriptors(self) -> List[NodeDescriptor]:
        """The bucket as a plain (cached) descriptor list."""
        cached = self._descriptors
        if cached is None:
            descriptor = self._store.descriptor
            cached = [descriptor(row) for row in self._rows.tolist()]
            self._descriptors = cached
        return cached

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, position: int) -> NodeDescriptor:
        if self._descriptors is not None:
            return self._descriptors[position]
        return self._store.descriptor(int(self._rows[position]))

    def __iter__(self) -> Iterator[NodeDescriptor]:
        yield from self.descriptors()


class BootstrapPlan:
    """Per-cell bootstrap material, computed once per deployment.

    The converged bootstrap needs, per occupied C0 cell, the cell's own
    member list (the zero links) and the ``(level, dim, bucket, picks)``
    slot buckets of its non-empty neighboring cells. Both are pure
    functions of the population, so every build derives them **once**
    from the columnar grouping — per slot, one right shift of the cells'
    keys (:func:`repro.core.cells.bucket_code`) and one vectorized pass —
    and a sharded build does so in the master instead of per worker. The
    ``Region`` geometry over a ``CellIndex`` is the test oracle. Buckets
    hold row arrays (shared across the cells linking to them) and
    materialize descriptors lazily via :class:`_RowBucket`.
    """

    __slots__ = (
        "_store",
        "_grouping",
        "picks_cap",
        "_zero",
        "_buckets",
        "_slot_entries",
        "_slot_offsets",
        "_slot_cache",
    )

    def __init__(self, store: DescriptorStore, picks_cap: int) -> None:
        self._store = store
        grouping = store.grouping()
        self._grouping = grouping
        self.picks_cap = picks_cap
        schema = store.schema
        max_level = schema.max_level
        dimensions = schema.dimensions
        cell_count = grouping.cell_count
        self._zero: List[_RowBucket] = [
            _RowBucket(store, grouping.members(cell))
            for cell in range(cell_count)
        ]
        # Slot entries are kept columnar too: one (level, dim, bucket id)
        # int32 row per cell slot, grouped per cell, instead of a Python
        # tuple list per cell — the tuple lists would dominate the
        # master's retained memory once cell count approaches N.
        #
        # Everything below is one vectorized pass per (level, dim): the
        # sibling-group buckets come out as contiguous slices of one
        # per-pair row permutation (stable sorts keep members in
        # ascending cell then address order — the scalar oracle's extend()
        # sequence), and the per-cell entry rows are assembled with a
        # single lexsort instead of 15 * cells Python-level appends.
        self._buckets: List[_RowBucket] = []
        entry_cells: List["np.ndarray"] = []
        entry_levels: List[int] = []
        entry_dims: List[int] = []
        entry_buckets: List["np.ndarray"] = []
        sizes = (
            grouping.ends - grouping.starts
            if cell_count
            else np.zeros(0, dtype=np.int64)
        )
        rows_in_cell_order = (
            np.concatenate(
                [grouping.members(cell) for cell in range(cell_count)]
            )
            if cell_count
            else np.zeros(0, dtype=np.int64)
        )
        for level in range(1, max_level + 1):
            for dim in range(dimensions):
                if not cell_count:
                    continue
                codes = bucket_code(
                    grouping.cell_codes, level, dim, dimensions
                )
                flipped = codes ^ 1
                sort_idx = np.argsort(codes, kind="stable")
                sorted_codes = codes[sort_idx]
                # A cell has a slot entry iff some cell carries its
                # flipped code (a non-empty sibling group).
                pos = np.minimum(
                    np.searchsorted(sorted_codes, flipped),
                    cell_count - 1,
                )
                valid = sorted_codes[pos] == flipped
                valid_cells = np.nonzero(valid)[0]
                if not len(valid_cells):
                    continue
                # Number the referenced sibling groups in first-reference
                # order (ascending referencing cell id — the order the
                # incremental build allocated bucket ids in).
                uniq, first_idx, inverse = np.unique(
                    flipped[valid_cells],
                    return_index=True,
                    return_inverse=True,
                )
                rank_of = np.empty(len(uniq), dtype=np.int64)
                rank_of[np.argsort(first_idx, kind="stable")] = np.arange(
                    len(uniq), dtype=np.int64
                )
                local_bucket = rank_of[inverse]
                # Which cells feed some referenced bucket, and which one.
                cell_pos = np.minimum(
                    np.searchsorted(uniq, codes), len(uniq) - 1
                )
                is_source = uniq[cell_pos] == codes
                source_per_cell = rank_of[cell_pos]
                # Expand to rows and sort by bucket: each bucket becomes
                # a contiguous slice of one permutation array.
                row_mask = np.repeat(is_source, sizes)
                row_bucket = np.repeat(source_per_cell, sizes)[row_mask]
                source_rows = rows_in_cell_order[row_mask]
                perm = source_rows[np.argsort(row_bucket, kind="stable")]
                counts = np.bincount(row_bucket, minlength=len(uniq))
                bounds = np.concatenate(
                    (np.zeros(1, dtype=np.int64), np.cumsum(counts))
                )
                base = len(self._buckets)
                self._buckets.extend(
                    _RowBucket(store, perm[bounds[b] : bounds[b + 1]])
                    for b in range(len(uniq))
                )
                entry_cells.append(valid_cells)
                entry_levels.append(level)
                entry_dims.append(dim)
                entry_buckets.append(local_bucket + base)
        if entry_cells:
            cells_cat = np.concatenate(entry_cells)
            pair_index = np.concatenate(
                [
                    np.full(len(cells), i, dtype=np.int64)
                    for i, cells in enumerate(entry_cells)
                ]
            )
            levels_cat = np.array(entry_levels, dtype=np.int64)[pair_index]
            dims_cat = np.array(entry_dims, dtype=np.int64)[pair_index]
            buckets_cat = np.concatenate(entry_buckets)
            # Cell-major, (level, dim)-minor — the per-cell slot order
            # seed_slots consumes. pair_index is already (level, dim)
            # ascending, so the stable lexsort keeps it within each cell.
            entry_order = np.lexsort((pair_index, cells_cat))
            self._slot_entries = np.stack(
                (levels_cat, dims_cat, buckets_cat), axis=1
            )[entry_order].astype(np.int32)
            offsets = np.zeros(cell_count + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(cells_cat, minlength=cell_count),
                out=offsets[1:],
            )
            self._slot_offsets = offsets
        else:
            self._slot_entries = np.zeros((0, 3), dtype=np.int32)
            self._slot_offsets = np.zeros(cell_count + 1, dtype=np.int64)
        self._slot_cache: Dict[
            int, List[Tuple[int, int, List[NodeDescriptor], int]]
        ] = {}

    def cell_of_row(self, row: int) -> int:
        """The grouping cell id holding *row*."""
        return self._grouping.code_to_cell[
            int(self._store.cell_codes[row])
        ]

    def _cell_slot_buckets(
        self, cell: int
    ) -> List[Tuple[int, int, List[NodeDescriptor], int]]:
        """The ``(level, dim, bucket, picks)`` entries of *cell*.

        Materialized from the columnar entry rows on first use and cached
        — within one worker many owned rows share a cell.
        """
        cached = self._slot_cache.get(cell)
        if cached is None:
            start = int(self._slot_offsets[cell])
            end = int(self._slot_offsets[cell + 1])
            buckets = self._buckets
            cap = self.picks_cap
            cached = []
            for level, dim, bucket_id in (
                self._slot_entries[start:end].tolist()
            ):
                bucket = buckets[bucket_id].descriptors()
                cached.append(
                    (level, dim, bucket, min(len(bucket), cap))
                )
            self._slot_cache[cell] = cached
        return cached

    def materialize(self) -> None:
        """Warm every lazy cache: flyweights, buckets, per-cell slots.

        Worth it when every row is about to be seeded
        (:func:`seed_tables`): the bulk passes below are cheaper than
        filling the caches one touched bucket at a time.
        """
        store = self._store
        store.materialize_all()
        count = len(store)
        # One object-dtype gather per bucket beats a Python list
        # comprehension per bucket by ~5x: every bucket is a row-array
        # slice, so numpy fancy indexing does the whole fan-out at C
        # speed.
        flyweights = np.empty(count, dtype=object)
        materialized = store._materialized
        flyweights[:] = [materialized[row] for row in range(count)]
        for bucket in self._zero:
            if bucket._descriptors is None:
                bucket._descriptors = flyweights[bucket._rows].tolist()
        for bucket in self._buckets:
            if bucket._descriptors is None:
                bucket._descriptors = flyweights[bucket._rows].tolist()
        for cell in range(self._grouping.cell_count):
            self._cell_slot_buckets(cell)

    def seed_row(self, row: int, routing, rng: random.Random) -> None:
        """Install row *row*'s converged table into *routing* using *rng*.

        Bit-identical to the object bootstrap: same zero members in the
        same order, same slot buckets in the same order, same draws.
        """
        cell = self.cell_of_row(row)
        routing.seed_zero(self._zero[cell].descriptors())
        routing.seed_slots(self._cell_slot_buckets(cell), rng)


def bootstrap_rng(
    seed: int, address: Address, stream: str = "bootstrap"
) -> random.Random:
    """The per-node bootstrap draw stream for *address*.

    Each node's slot draws come from its own derived stream instead of
    one shared sequential stream. The streams are pure functions of
    ``(seed, stream, address)``, so any worker holding any subset of the
    population seeds bit-identical tables for the nodes it owns — no
    replaying (and no draw-consuming) of other nodes' randomness, which
    is what makes a sharded worker's bootstrap O(owned) instead of O(N).
    """
    return derive_rng(seed, f"{stream}:{address}")


def seed_tables(
    store: DescriptorStore,
    table_for: Callable[[Address], RoutingTable],
    seed: int,
    stream: str = "bootstrap",
) -> None:
    """Seed the converged table of every node in *store* from one plan.

    For every non-empty neighboring cell ``N(l,k)`` a node draws a
    *random* inhabitant as its selected neighbor, plus alternates, and it
    links to every member of its C0 cell. The paper credits this
    independent selection with spreading links evenly across a cell's
    inhabitants. *store* is the whole overlay population (the buckets
    every table samples from span all of it) and *table_for* resolves a
    stored address to the routing table to seed. Each node draws from
    its own :func:`bootstrap_rng` stream, so the tables are bit-identical
    to the ones a sharded worker seeds from the same plan.
    """
    plan = BootstrapPlan(store, PICKS_CAP)
    # Every row is seeded, so every bucket and per-cell slot list gets
    # touched: warming them in bulk is cheaper than one at a time.
    plan.materialize()
    for row, address in enumerate(store.addresses.tolist()):
        plan.seed_row(
            row, table_for(address), bootstrap_rng(seed, address, stream)
        )


class ColumnarCellIndex:
    """Ground-truth index over a store, with churn handled as an overlay.

    ``CellIndex``-shaped: ``add``/``discard``/``get``/``members``/
    ``cells``/``descriptors``/``matching`` all behave as the object index
    would after the same operation sequence (the property tests in
    ``tests/core/test_store.py`` hold the two to each other). A columnar
    base is never mutated; removals flip a row mask, and added or updated
    descriptors live in an object ``CellIndex`` overlay (an address
    present in the overlay is masked out of the base first, so each
    address exists exactly once). Folding rebuilds the base from every
    live descriptor object and empties the overlay: ``matching`` folds
    once the overlay outgrows ``_FOLD_FRACTION`` of the base, the
    cell-wise views whenever anything is pending.
    """

    def __init__(self, store: DescriptorStore) -> None:
        self.schema = store.schema
        self._store = store
        self._removed = np.zeros(len(store), dtype=bool)
        self._removed_count = 0
        self._overlay = CellIndex(store.schema)

    def __len__(self) -> int:
        return len(self._store) - self._removed_count + len(self._overlay)

    def __contains__(self, address: Address) -> bool:
        if address in self._overlay:
            return True
        row = self._store.row_of(address)
        return row is not None and not self._removed[row]

    @property
    def occupied_cells(self) -> int:
        """Number of C0 cells currently holding at least one descriptor."""
        return self.store().grouping().cell_count

    # -- mutation ------------------------------------------------------------

    def add(self, descriptor: NodeDescriptor) -> None:
        """Insert or refresh *descriptor* (it moves into the overlay)."""
        row = self._store.row_of(descriptor.address)
        if row is not None and not self._removed[row]:
            self._removed[row] = True
            self._removed_count += 1
        self._overlay.add(descriptor)

    def discard(self, address: Address) -> bool:
        """Remove *address* if present; True when something was removed."""
        found = self._overlay.discard(address)
        row = self._store.row_of(address)
        if row is not None and not self._removed[row]:
            self._removed[row] = True
            self._removed_count += 1
            found = True
        return found

    def extend(self, rows: DescriptorStore) -> None:
        """Append freshly sampled *rows* to the base (no fold, no overlay).

        Their addresses must be new to the index and above every address
        already in the base, which keeps the base in address order.
        """
        if len(self._store):
            self._store = DescriptorStore.concat(self._store, rows)
        else:
            self._store = rows
        self._removed = np.concatenate(
            (self._removed, np.zeros(len(rows), dtype=bool))
        )

    def _fold(self) -> None:
        """Rebuild the base from every live descriptor; empty the overlay."""
        live = np.nonzero(~self._removed)[0].tolist()
        descriptors = self._store.descriptors_at(live)
        descriptors.extend(self._overlay.descriptors())
        self._store = DescriptorStore.from_descriptors(self.schema, descriptors)
        self._removed = np.zeros(len(self._store), dtype=bool)
        self._removed_count = 0
        self._overlay = CellIndex(self.schema)

    def store(self) -> DescriptorStore:
        """The base, folded first so it holds exactly the live descriptors."""
        if self._removed_count or len(self._overlay):
            self._fold()
        return self._store

    # -- lookup --------------------------------------------------------------

    def get(self, address: Address) -> Optional[NodeDescriptor]:
        """The stored descriptor for *address*, or None."""
        cached = self._overlay.get(address)
        if cached is not None:
            return cached
        row = self._store.row_of(address)
        if row is None or self._removed[row]:
            return None
        return self._store.descriptor(row)

    def members(self, coordinates: Coordinates) -> Tuple[NodeDescriptor, ...]:
        """All descriptors in the C0 cell identified by *coordinates*."""
        grouping = self.store().grouping()
        cell = grouping.code_to_cell.get(
            cell_code(coordinates, self.schema.max_level)
        )
        if cell is None:
            return ()
        return tuple(
            self._store.descriptors_at(grouping.members(cell).tolist())
        )

    def cells(self) -> Iterator[Tuple[Coordinates, List[NodeDescriptor]]]:
        """Iterate ``(cell coordinates, member descriptors)`` pairs."""
        grouping = self.store().grouping()
        intern = self.schema.intern_cell
        descriptors_at = self._store.descriptors_at
        for cell, coordinates in enumerate(grouping.cell_coords.tolist()):
            yield intern(tuple(coordinates))[0], descriptors_at(
                grouping.members(cell).tolist()
            )

    def descriptors(self) -> Iterator[NodeDescriptor]:
        """Iterate over every indexed descriptor (cell order)."""
        for _coordinates, members in self.cells():
            yield from members

    # -- queries -------------------------------------------------------------

    def matching(self, query: Query) -> List[NodeDescriptor]:
        """Exact match set of *query*, sorted by address.

        The base contribution is array operations only — the box's cells
        (:meth:`CellGrouping.rows_in_box`), the removed mask, then a batch
        value mask replicating ``Query.matches`` — and rows come out in
        address order, so nothing is sorted unless the overlay matches.
        """
        if len(self._overlay) > _FOLD_FRACTION * len(self._store):
            self._fold()
        store = self._store
        rows = store.grouping().rows_in_box(
            query.index_ranges(), self.schema.max_level
        )
        if self._removed_count:
            rows = rows[~self._removed[rows]]
        rows = rows[vector.matches_mask(query, store.values[rows])]
        result = store.descriptors_at(rows.tolist())
        overlay = self._overlay.matching(query)
        if overlay:
            result.extend(overlay)
            result.sort(key=attrgetter("address"))
        return result
