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
genuinely needed — hosts, routing-table reads, wire codec, gossip
payloads — and cached per row in one object array, so a descriptor
referenced from sixty routing tables still exists once and a batch of
rows gathers its descriptors with one fancy index. Everything else reads
the arrays directly:

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
  gather of the result rows' descriptors.
* :class:`BootstrapPlan` — the per-cell zero/slot buckets of the
  converged bootstrap, derived once from the grouping as slices of one
  row array. It is the one slot-bucket derivation, and
  :meth:`BootstrapPlan.draw` turns it into every node's picks in one
  vectorized pass over the nodes' Mersenne Twister words, bit-identical
  to the per-slot ``random``/``shuffle`` loop the tests keep as the
  oracle. The words come from one
  :func:`~repro.util.rng.mersenne_words` pass that seeds every node's
  stream at once, so no ``random.Random`` is made per node
  (:func:`bootstrap_rng` is the scalar stream the tests compare
  against). The result, :class:`BootstrapLinks`, is shared by every table:
  ``RoutingTable.seed_slots`` attaches a row of it, and the table builds
  its dicts only when something changes it. :func:`seed_tables` seeds
  every table of ``sim.Deployment`` and of the asyncio runtime this way,
  and a sharded deployment builds the plan once and lets each shard
  worker draw its owned rows.

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
from repro.core.cells import Coordinates, bucket_code, cell_code, iter_slots
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.index import CellIndex
from repro.core.query import Query
from repro.core.routing import PICKS_CAP, RoutingTable
from repro.util.intervals import Interval
from repro.util.rng import derive_rng, derive_seeds, mersenne_words

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
        "_materialized_count",
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
        #: The flyweight cache: row -> descriptor object, None until the
        #: row is materialized. Shared as is by :class:`BootstrapLinks`.
        self._materialized = np.empty(count, dtype=object)
        self._materialized_count = 0
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
        store._materialized[:] = ordered
        store._materialized_count = len(ordered)
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
        store._materialized = np.concatenate(
            (first._materialized, second._materialized)
        )
        store._materialized_count = (
            first._materialized_count + second._materialized_count
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
        cached = self._materialized[row]
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
            self._materialized_count += 1
        return cached

    def descriptors_at(
        self, rows: "Sequence[int] | np.ndarray"
    ) -> List[NodeDescriptor]:
        """The (cached) descriptors of *rows*, in the given order.

        Once every row is materialized this is one fancy index of the
        flyweight cache; *rows* may be an integer array or a sequence.
        """
        if self._materialized_count == len(self._materialized):
            return self._materialized[rows].tolist()
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
        needed anyway (``sim.Deployment.populate``).
        """
        if self._materialized_count == len(self.addresses):
            return
        cached = self._materialized.tolist()
        intern = self.schema.intern_cell
        values = self.values.tolist()
        coords = self.coords.tolist()
        codes = self.cell_codes.tolist()
        for row, address in enumerate(self.addresses.tolist()):
            if cached[row] is None:
                cached[row] = NodeDescriptor(
                    address,
                    tuple(values[row]),
                    *intern(tuple(coords[row]), codes[row]),
                )
        self._materialized[:] = cached
        self._materialized_count = len(cached)

    @property
    def materialized_count(self) -> int:
        """How many rows have been materialized as descriptor objects."""
        return self._materialized_count

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


#: Mersenne Twister words each node's stream yields up front; a node
#: whose draws need more is drawn again from the start of its stream
#: with a block twice as large.
_WORDS = 128
#: Rows per vectorised draw pass, so its transient buffers stay a few MB.
_CHUNK = 8192
#: Words a ``shuffle`` step scans per row at once: each is accepted with
#: probability at least 1/2, so a second batch is rarely needed.
_SCAN = 8


class BootstrapPlan:
    """Per-cell bootstrap material, computed once per deployment.

    The converged bootstrap needs, per occupied C0 cell, the cell's own
    member list (the zero links) and the slot buckets of its non-empty
    neighboring cells. Both are pure functions of the population, so
    every build derives them **once** from the columnar grouping — per
    slot, one right shift of the cells' keys
    (:func:`repro.core.cells.bucket_code`) and one vectorized pass — and
    a sharded build does so in the master instead of per worker. The
    ``Region`` geometry over a ``CellIndex`` is the test oracle.

    Buckets are slices of one row array, shared by every cell linking to
    them; ``_slot_bucket[cell, slot]`` names the bucket of each
    ``(level, dim)`` slot in :func:`~repro.core.cells.iter_slots` order,
    or -1 for an empty neighboring cell. :meth:`draw` turns the plan
    into every node's picks.
    """

    __slots__ = (
        "_store",
        "_grouping",
        "picks_cap",
        "_cell_of_row",
        "_slot_bucket",
        "_bucket_starts",
        "_bucket_sizes",
        "_bucket_rows",
    )

    def __init__(self, store: DescriptorStore, picks_cap: int) -> None:
        self._store = store
        grouping = store.grouping()
        self._grouping = grouping
        self.picks_cap = picks_cap
        schema = store.schema
        dimensions = schema.dimensions
        cell_count = grouping.cell_count
        sizes = grouping.ends - grouping.starts
        rows_in_cell_order = grouping.order[
            np.repeat(grouping.starts - np.cumsum(sizes) + sizes, sizes)
            + np.arange(len(store))
        ]
        self._cell_of_row = np.empty(len(store), dtype=np.int64)
        self._cell_of_row[rows_in_cell_order] = np.repeat(
            np.arange(cell_count), sizes
        )
        self._slot_bucket = np.full(
            (cell_count, dimensions * schema.max_level), -1, dtype=np.int32
        )
        # One vectorized pass per (level, dim) over the cells in key
        # order, where a right shift of the sorted keys leaves every
        # block a run: no sort, no search per slot. Blocks b and b ^ 1
        # are adjacent numbers, so a block's sibling, if occupied, is the
        # next or the previous run. A block is a bucket iff its sibling
        # is occupied; buckets are numbered in first-reference order
        # (ascending id of the first cell of the sibling block — the
        # order the incremental build allocated bucket ids in), and a
        # bucket lists its cells in ascending cell id, each cell's rows
        # in ascending address order (the scalar oracle's extend()
        # sequence).
        by_code = np.argsort(grouping.cell_codes, kind="stable")
        sorted_codes = grouping.cell_codes[by_code]
        sorted_sizes = sizes[by_code]
        cell_offsets = np.cumsum(sizes) - sizes
        bucket_rows = [np.zeros(0, dtype=np.int64)]
        bucket_sizes = [np.zeros(0, dtype=np.int64)]
        base = 0
        for pair, (level, dim) in enumerate(
            iter_slots(dimensions, schema.max_level)
        ):
            if not cell_count:
                break
            blocks = bucket_code(sorted_codes, level, dim, dimensions)
            new_run = np.empty(cell_count, dtype=bool)
            new_run[0] = True
            np.not_equal(blocks[1:], blocks[:-1], out=new_run[1:])
            run_starts = np.flatnonzero(new_run)
            block_codes = blocks[run_starts]
            # Pairs (i, i + 1) of runs with an even block and its sibling.
            lower = np.flatnonzero(
                ((block_codes[:-1] & 1) == 0)
                & (block_codes[1:] == block_codes[:-1] + 1)
            )
            if not len(lower):
                continue
            sibling = np.full(len(block_codes), -1, dtype=np.int64)
            sibling[lower] = lower + 1
            sibling[lower + 1] = lower
            referenced = np.flatnonzero(sibling >= 0)
            first_cell = np.minimum.reduceat(by_code, run_starts)
            rank = np.empty(len(block_codes), dtype=np.int64)
            rank[referenced[np.argsort(first_cell[sibling[referenced]])]] = (
                np.arange(len(referenced), dtype=np.int64)
            )
            block_of = np.empty(cell_count, dtype=np.int64)
            block_of[by_code] = np.cumsum(new_run) - 1
            # Every cell in a bucket block also references its sibling.
            cells = np.flatnonzero(sibling[block_of] >= 0)
            self._slot_bucket[cells, pair] = (
                rank[sibling[block_of[cells]]] + base
            )
            cell_bucket = rank[block_of[cells]]
            cells = cells[np.argsort(cell_bucket, kind="stable")]
            counts = sizes[cells]
            shifts = cell_offsets[cells] - np.cumsum(counts) + counts
            bucket_rows.append(rows_in_cell_order[
                np.repeat(shifts, counts) + np.arange(counts.sum())
            ])
            block_sizes = np.add.reduceat(sorted_sizes, run_starts)
            slot_sizes = np.empty(len(referenced), dtype=np.int64)
            slot_sizes[rank[referenced]] = block_sizes[referenced]
            bucket_sizes.append(slot_sizes)
            base += len(referenced)
        self._bucket_rows = np.concatenate(bucket_rows).astype(np.int32)
        self._bucket_sizes = np.concatenate(bucket_sizes)
        self._bucket_starts = np.cumsum(self._bucket_sizes) - self._bucket_sizes

    def draw(
        self, rows: Sequence[int], seed: int, stream: str = "bootstrap"
    ) -> "BootstrapLinks":
        """Every pick of the nodes at store *rows*, in one vectorized pass.

        For every non-empty neighboring cell ``N(l,k)`` a node draws a
        *random* inhabitant as its selected neighbor, plus alternates: up
        to ``picks_cap`` distinct members of the slot's bucket, from the
        node's own :func:`bootstrap_rng` stream. The draws replay
        ``random.Random`` exactly, word for word of its Mersenne Twister
        output, as the scalar per-slot loop kept as the test oracle makes
        them: a bucket needing one pick takes ``int(random() * count)``;
        a bucket of at most ``picks_cap`` members is ``shuffle``d whole
        (``_randbelow``: ``word >> (32 - k)`` with rejection); a larger
        one takes ``int(random() * count)`` until ``picks_cap`` distinct
        indices came up. ``random()`` is ``genrand_res53`` over two
        words. Every stream's first ``_WORDS`` words come from one
        :func:`~repro.util.rng.mersenne_words` pass; the draw then runs
        slot by slot across a chunk of rows at once, and the nodes whose
        words ran out are drawn again, together, with twice the words.
        """
        rows = np.asarray(rows, dtype=np.int64)
        store = self._store
        cells = self._cell_of_row[rows]
        slots = self._slot_bucket.shape[1]
        picks = np.full((len(rows), slots, self.picks_cap), -1, np.int32)
        addresses = store.addresses[rows].tolist()
        seeds = derive_seeds(
            seed, [f"{stream}:{address}" for address in addresses]
        )
        todo = np.arange(len(rows))
        block = _WORDS
        while len(todo):
            short = []
            for start in range(0, len(todo), _CHUNK):
                chunk = todo[start : start + _CHUNK]
                drawn, out = self._draw_block(
                    self._slot_bucket[cells[chunk]],
                    mersenne_words(seeds[chunk], block),
                )
                picks[chunk] = drawn
                short.append(chunk[out])
            todo = np.concatenate(short)
            block *= 2
        grouping = self._grouping
        position = np.empty(len(store), dtype=np.int64)
        position[grouping.order] = np.arange(len(store))
        zero = np.stack(
            (grouping.starts[cells], position[rows], grouping.ends[cells]),
            axis=1,
        )
        return BootstrapLinks(store, picks, zero, grouping.order)

    def _draw_block(
        self, buckets: "np.ndarray", words: "np.ndarray"
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Picks of rows with slot *buckets* from their stream *words*.

        *words* is word-major, one column per row, and is read by flat
        index. Returns the picks and the mask of rows whose words ran out
        (their picks are incomplete).
        """
        width, count = words.shape
        flat = words.reshape(-1)
        cap = self.picks_cap
        cursor = np.zeros(count, dtype=np.int64)
        short = np.zeros(count, dtype=bool)

        def randbelow(active: "np.ndarray", shift: int, bound: int):
            """``_randbelow(bound + 1)`` per active row, a batch of words
            at a time.

            Each row takes the first of its next ``_SCAN`` words whose
            top bits (``word >> shift``) are at most *bound*. Returns the
            rows that drew and their draws, and the rows that read
            ``_SCAN`` words without one (they draw on); rows that ran out
            of words leave as short.
            """
            position = cursor[active]
            left = width - position
            steps = np.arange(_SCAN)[:, None]
            at = np.minimum(position + steps, width - 1) * count + active
            draw = (flat[at] >> shift).astype(np.int64)
            fits = (draw <= bound) & (steps < left)
            first = fits.argmax(axis=0)
            hit = fits[first, np.arange(len(active))]
            out = ~hit & (left <= _SCAN)
            short[active[out]] = True
            cursor[active] = np.where(
                hit,
                position + first + 1,
                np.where(out, width, position + _SCAN),
            )
            drew = np.nonzero(hit)[0]
            return active[drew], draw[first[drew], drew], active[~hit & ~out]

        def uniform(active: "np.ndarray", scale: "np.ndarray", draws: int):
            """*draws* ``int(random() * size)`` per active row.

            ``random()`` is genrand_res53 of the row's next two words;
            *scale* is ``size / 2**53`` (scaling by a power of two is
            exact, so the product rounds as ``random() * size`` does).
            Returns the rows that had the words and their draws, one
            array row per draw; the others leave as short.
            """
            position = cursor[active]
            out = position + 2 * draws > width
            if out.any():
                short[active[out]] = True
                cursor[active[out]] = width
                active, position = active[~out], position[~out]
            cursor[active] = position + 2 * draws
            offsets = np.arange(0, 2 * draws * count, count)[:, None]
            word = flat[offsets + (position * count + active)]
            value = (word[0::2] >> 5) * 67108864.0
            value += word[1::2] >> 6
            value *= scale[active]
            return active, value.astype(np.int64)

        # Slot-major from here on: [slot, row] and [slot, pick, row].
        buckets = buckets.T
        slots = len(buckets)
        if not len(self._bucket_sizes):
            return np.full((count, slots, cap), -1, np.int32), short
        all_sizes = np.where(buckets >= 0, self._bucket_sizes[buckets], 0)
        all_scales = all_sizes * (1.0 / 9007199254740992.0)
        wanted = np.minimum(all_sizes, cap)
        singles = wanted == 1
        wholes = (wanted >= 2) & (wanted == all_sizes)
        larges = (wanted >= 2) & (wanted < all_sizes)
        # A whole bucket starts as 0..size-1 and is shuffled in place.
        order = np.arange(cap)[:, None]
        chosen = np.where(
            wholes[:, None] & (order < all_sizes[:, None]), order, -1
        )
        filled = np.zeros(count, dtype=np.int64)
        for slot in range(slots):
            sizes, scale = all_sizes[slot], all_scales[slot]
            picked = chosen[slot]
            single, index = uniform(np.nonzero(singles[slot])[0], scale, 1)
            picked[0, single] = index[0]
            # shuffle(): swap position i with _randbelow(i + 1), i falling.
            whole = wholes[slot]
            for i in range(cap - 1, 0, -1):
                shift = 32 - (i + 1).bit_length()
                pending = np.nonzero(whole & (sizes > i))[0]
                while len(pending):
                    rows, other, pending = randbelow(pending, shift, i)
                    picked[i, rows], picked[other, rows] = (
                        picked[other, rows],
                        picked[i, rows],
                    )
            # Distinct indices by rejection, in first-drawn order: one
            # batched round of cap draws, then the rows that drew a
            # repeat keep their distinct ones and draw on.
            pending, index = uniform(np.nonzero(larges[slot])[0], scale, cap)
            repeat = np.zeros(index.shape, dtype=bool)
            for j in range(1, cap):
                for k in range(j):
                    repeat[j] |= index[j] == index[k]
            picked[:, pending] = index
            again = repeat.any(axis=0)
            pending = pending[again]
            if len(pending):
                repeat = repeat[:, again]
                distinct = cap - repeat.sum(axis=0)
                index = np.take_along_axis(
                    index[:, again],
                    np.argsort(repeat, axis=0, kind="stable"),
                    axis=0,
                )
                picked[:, pending] = np.where(order < distinct, index, -1)
                filled[pending] = distinct
            while len(pending):
                pending, (index,) = uniform(pending, scale, 1)
                fresh = ~(picked[:, pending] == index).any(axis=0)
                rows = pending[fresh]
                picked[filled[rows], rows] = index[fresh]
                filled[rows] += 1
                pending = pending[filled[pending] < cap]
        taken = chosen >= 0
        starts = self._bucket_starts[buckets]
        picks = np.where(
            taken,
            self._bucket_rows[np.where(taken, starts[:, None] + chosen, 0)],
            -1,
        )
        return picks.transpose(2, 0, 1), short


class BootstrapLinks:
    """Every pick :meth:`BootstrapPlan.draw` made, shared by the tables.

    ``picks[i, slot, j]`` is the store row of the *j*-th pick of slot
    *slot* (:func:`~repro.core.cells.iter_slots` order) for the *i*-th
    drawn node, -1 past the bucket's picks or for an empty neighboring
    cell. ``zero[i]`` is ``(start, own, end)``: the node's C0 cell is
    ``cell_order[start:end]``, in address order, with the node itself at
    ``own``. A :class:`RoutingTable` attached with
    :meth:`~RoutingTable.seed_slots` reads its links from here through
    memoryviews, whose items index as plain ints several times faster
    than numpy scalars on the forwarding path, and resolves a pick's
    store row through :attr:`flyweights`, the store's flyweight cache
    itself (an object array indexed by row, not a copy).
    """

    __slots__ = (
        "store",
        "flyweights",
        "picks",
        "view",
        "width",
        "zero",
        "cell_order",
    )

    def __init__(
        self,
        store: DescriptorStore,
        picks: "np.ndarray",
        zero: "np.ndarray",
        members: "np.ndarray",
    ) -> None:
        self.store = store
        store.materialize_all()
        self.flyweights = store._materialized
        self.picks = picks
        self.view = memoryview(picks)
        self.width = picks.shape[2]
        self.zero = memoryview(zero)
        self.cell_order = store.descriptors_at(members)

    def mates(self, index: int) -> List[NodeDescriptor]:
        """The *index*-th node's C0 cell-mates, itself left out."""
        zero = self.zero
        start = zero[index, 0]
        mates = self.cell_order[start : zero[index, 2]]
        del mates[zero[index, 1] - start]
        return mates


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
    :meth:`BootstrapPlan.draw` seeds these same streams in bulk and
    never builds one; this scalar form is what the tests replay it
    against.
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
    links = BootstrapPlan(store, PICKS_CAP).draw(
        np.arange(len(store)), seed, stream
    )
    for index, address in enumerate(store.addresses.tolist()):
        table_for(address).seed_slots(links, index)


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
        live = np.nonzero(~self._removed)[0]
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
        return tuple(self._store.descriptors_at(grouping.members(cell)))

    def cells(self) -> Iterator[Tuple[Coordinates, List[NodeDescriptor]]]:
        """Iterate ``(cell coordinates, member descriptors)`` pairs."""
        grouping = self.store().grouping()
        intern = self.schema.intern_cell
        descriptors_at = self._store.descriptors_at
        for cell, coordinates in enumerate(grouping.cell_coords.tolist()):
            yield intern(tuple(coordinates))[0], descriptors_at(
                grouping.members(cell)
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
        result = store.descriptors_at(rows)
        overlay = self._overlay.matching(query)
        if overlay:
            result.extend(overlay)
            result.sort(key=attrgetter("address"))
        return result
