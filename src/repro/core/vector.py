"""numpy-vectorized twin of the scalar cell algebra.

The scalar implementations in :mod:`repro.core.cells` and
:mod:`repro.core.attributes` are the canonical semantics — small, audited
against the paper, and exercised by the unit tests. At bench scale
(10^5–10^6 nodes) their per-element Python cost dominates deployment
construction, so this module provides batch equivalents over coordinate
*matrices* (one row per node or per cell, one column per dimension):

* :func:`coordinates_matrix` — batch value→cell-index mapping
  (``np.searchsorted(side="right")`` is exactly ``bisect.bisect_right``);
* :func:`contains_mask` / :func:`overlaps_mask` — batch region membership
  and query-overlap tests;
* :func:`cell_intervals` / :func:`neighboring_intervals` — batch region
  geometry (``C_l`` and ``N(l,k)`` boxes for many nodes at once);
* :func:`slot_matrix` — batch :func:`repro.core.cells.slot_of`;
* :func:`pack_codes` — per-slot bucket/flipped keys packed into int64
  scalars, the identity behind the vectorized bootstrap bucket assignment;
* :func:`pack_cell_codes` / :func:`pack_cell_code` — full-coordinate C0
  cell keys packed into int64, the sort/group key of the columnar store
  (:mod:`repro.core.store`);
* :func:`box_cell_codes` — the packed keys of every cell in a query box,
  the enumeration side of the columnar ground-truth lookup;
* :func:`matches_mask` — batch :meth:`repro.core.query.Query.matches`
  over a value matrix (the columnar ground-truth filter).

Every function is kept bit-identical to its scalar twin by the property
tests in ``tests/core/test_vector.py`` (randomized depths, dimensions and
populations, including the N(l,k) partition invariant). Callers must gate
on :data:`HAVE_NUMPY`; the scalar path remains the fallback everywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the image bakes numpy in
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.attributes import AttributeSchema

from repro.util.intervals import Interval


def _require_numpy() -> None:
    if not HAVE_NUMPY:
        raise RuntimeError(
            "repro.core.vector requires numpy; gate calls on HAVE_NUMPY"
        )


# -- coordinates ---------------------------------------------------------------


def coordinates_matrix(
    schema: "AttributeSchema", values: "np.ndarray"
) -> "np.ndarray":
    """Map an ``(n, d)`` numeric value matrix to ``(n, d)`` cell indices.

    Row ``i`` equals ``schema.coordinates(values[i])``:
    ``np.searchsorted(boundaries, v, side="right")`` returns the same
    insertion point as ``bisect.bisect_right(boundaries, v)`` for every
    float, including exact boundary hits and out-of-range values.
    """
    _require_numpy()
    assert schema.boundaries is not None
    values = np.asarray(values, dtype=np.float64)
    coords = np.empty(values.shape, dtype=np.int64)
    for dim in range(schema.dimensions):
        coords[:, dim] = np.searchsorted(
            np.asarray(schema.boundaries[dim], dtype=np.float64),
            values[:, dim],
            side="right",
        )
    return coords


# -- region membership ---------------------------------------------------------


def contains_mask(
    coords: "np.ndarray", intervals: Sequence[Interval]
) -> "np.ndarray":
    """Boolean mask: which coordinate rows lie inside the region box.

    Equivalent to ``[Region(intervals).contains(row) for row in coords]``.
    """
    _require_numpy()
    low = np.array([interval[0] for interval in intervals], dtype=np.int64)
    high = np.array([interval[1] for interval in intervals], dtype=np.int64)
    return np.logical_and(coords >= low, coords <= high).all(axis=1)


def overlaps_mask(
    low: "np.ndarray",
    high: "np.ndarray",
    ranges: Sequence[Interval],
) -> "np.ndarray":
    """Boolean mask: which ``[low, high]`` region rows intersect *ranges*.

    *low*/*high* are ``(n, d)`` inclusive per-dimension bounds (one region
    per row). Equivalent to ``Region(...).overlaps(ranges)`` per row.
    """
    _require_numpy()
    query_low = np.array([r[0] for r in ranges], dtype=np.int64)
    query_high = np.array([r[1] for r in ranges], dtype=np.int64)
    return np.logical_and(low <= query_high, high >= query_low).all(axis=1)


# -- region geometry -----------------------------------------------------------


def cell_intervals(
    coords: "np.ndarray", level: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Batch :func:`repro.core.cells.cell_region`: ``C_level`` boxes.

    Returns ``(low, high)`` matrices with one region per coordinate row.
    """
    _require_numpy()
    low = (coords >> level) << level
    return low, low + (1 << level) - 1


def neighboring_intervals(
    coords: "np.ndarray", level: int, dim: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Batch :func:`repro.core.cells.neighboring_region`: ``N(l,k)`` boxes."""
    _require_numpy()
    if level < 1:
        raise ValueError(
            f"neighboring cells exist only for level >= 1, got {level}"
        )
    half = 1 << (level - 1)
    half_low = (coords >> (level - 1)) << (level - 1)
    cell_low = (coords >> level) << level
    low = np.empty(coords.shape, dtype=np.int64)
    high = np.empty(coords.shape, dtype=np.int64)
    # Dimensions below the split share X's half; the split dimension takes
    # the sibling half; dimensions above are free within the C_l prefix.
    low[:, :dim] = half_low[:, :dim]
    high[:, :dim] = half_low[:, :dim] + half - 1
    low[:, dim] = half_low[:, dim] ^ half
    high[:, dim] = low[:, dim] + half - 1
    low[:, dim + 1 :] = cell_low[:, dim + 1 :]
    high[:, dim + 1 :] = cell_low[:, dim + 1 :] + (1 << level) - 1
    return low, high


# -- classification ------------------------------------------------------------


def slot_matrix(
    own: Sequence[int], others: "np.ndarray", max_level: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Batch :func:`repro.core.cells.slot_of` against one reference node.

    Returns ``(levels, dims)`` arrays: row ``i`` of *others* classifies
    into slot ``(levels[i], dims[i])`` relative to *own*, with
    ``levels[i] == 0`` meaning ``ZERO_SLOT`` (same lowest-level cell, the
    ``dims`` entry is meaningless there).
    """
    _require_numpy()
    own_row = np.asarray(own, dtype=np.int64)
    differing = own_row ^ others
    # bit_length, vectorized: highest set bit among the max_level index bits.
    bit_lengths = np.zeros(differing.shape, dtype=np.int64)
    for bit in range(1, max_level + 1):
        bit_lengths[differing >= (1 << (bit - 1))] = bit
    levels = bit_lengths.max(axis=1)
    shift = np.maximum(levels - 1, 0)[:, None]
    halves_differ = (own_row >> shift) != (others >> shift)
    # First differing dimension at the half resolution = the slot dim.
    dims = np.argmax(halves_differ, axis=1)
    return levels, dims


# -- bucket codes --------------------------------------------------------------


def packable(dimensions: int, max_level: int) -> bool:
    """True when per-slot bucket keys fit one int64 (``d * L <= 62``)."""
    return dimensions * max_level <= 62


def pack_codes(
    coords: "np.ndarray",
    level: int,
    dim: int,
    max_level: int,
    flip: bool = False,
) -> "np.ndarray":
    """Per-row bucket keys for slot ``(level, dim)``, packed into int64.

    Two rows receive equal codes iff their scalar
    :func:`repro.core.cells.bucket_key` tuples are equal for the same
    slot (codes from different slots are never compared, so the
    ``(level, dim)`` prefix of the scalar key is omitted). With
    ``flip=True`` this is :func:`repro.core.cells.flipped_key` instead —
    the code of the bucket a node *links to*, rather than the bucket it
    *belongs to*. Requires :func:`packable` geometry; each per-dimension
    part occupies ``max_level`` bits, which is injective because every
    part is a right-shift of an index below ``2**max_level``.
    """
    _require_numpy()
    if not packable(coords.shape[1], max_level):
        raise ValueError(
            f"cannot pack {coords.shape[1]} x {max_level}-bit parts into int64"
        )
    half = level - 1
    codes = np.zeros(len(coords), dtype=np.int64)
    for j in range(coords.shape[1]):
        if j < dim:
            part = coords[:, j] >> half
        elif j == dim:
            part = coords[:, j] >> half
            if flip:
                part = part ^ 1
        else:
            part = coords[:, j] >> level
        codes = (codes << max_level) | part
    return codes


def pack_cell_codes(coords: "np.ndarray", max_level: int) -> "np.ndarray":
    """Per-row C0 cell keys: the full coordinate vector packed into int64.

    Two rows receive equal codes iff their coordinate tuples are equal —
    the packed form of the :class:`~repro.core.index.CellIndex` cell id,
    usable as a sort/group key. Requires :func:`packable` geometry; each
    dimension occupies ``max_level`` bits (injective because every cell
    index lies below ``2**max_level``). Scalar twin:
    :func:`pack_cell_code`.
    """
    _require_numpy()
    if not packable(coords.shape[1], max_level):
        raise ValueError(
            f"cannot pack {coords.shape[1]} x {max_level}-bit parts into int64"
        )
    codes = np.zeros(len(coords), dtype=np.int64)
    for dim in range(coords.shape[1]):
        codes = (codes << max_level) | coords[:, dim]
    return codes


def pack_cell_code(coordinates: Sequence[int], max_level: int) -> int:
    """Scalar :func:`pack_cell_codes`: one coordinate tuple to its int key."""
    code = 0
    for part in coordinates:
        code = (code << max_level) | int(part)
    return code


def box_cell_codes(
    ranges: Sequence[Interval], max_level: int
) -> "np.ndarray":
    """Packed C0 keys of every cell in the box *ranges*, ascending.

    Equals :func:`pack_cell_code` over ``itertools.product`` of the
    inclusive per-dimension ranges, built as one outer sum per dimension.
    Packing is lexicographic, so product order is ascending key order.
    """
    _require_numpy()
    codes = np.zeros(1, dtype=np.int64)
    for low, high in ranges:
        part = np.arange(low, high + 1, dtype=np.int64)
        codes = ((codes << max_level)[:, None] | part).ravel()
    return codes


def matches_mask(query, values: "np.ndarray") -> "np.ndarray":
    """Batch :meth:`repro.core.query.Query.matches` over a value matrix.

    Row ``i`` of the returned boolean mask equals
    ``query.matches(values[i])``: inclusive ``ValueRange`` bounds with
    ``None`` open ends, and exact integral-ordinal membership for
    ``CategoricalSet`` (``int(v) in ordinals and float(int(v)) == v``,
    where ``int()`` truncates toward zero exactly like ``np.trunc``).
    Dynamic constraints are ignored, as in the scalar method.
    """
    _require_numpy()
    from repro.core.query import CategoricalSet

    mask = np.ones(len(values), dtype=bool)
    for name, constraint in query.constraints:
        column = values[:, query.schema.dimension_of(name)]
        if isinstance(constraint, CategoricalSet):
            truncated = np.trunc(column)
            mask &= truncated == column
            mask &= np.isin(truncated, list(constraint.ordinals))
        else:
            if constraint.low is not None:
                mask &= column >= constraint.low
            if constraint.high is not None:
                mask &= column <= constraint.high
    return mask


def matrix_of(
    coordinate_tuples: Sequence[Tuple[int, ...]],
) -> Optional["np.ndarray"]:
    """Stack coordinate tuples into an ``(n, d)`` int64 matrix.

    Returns None when numpy is unavailable (callers fall back to the
    scalar path) or the input is empty.
    """
    if not HAVE_NUMPY or not coordinate_tuples:
        return None
    return np.array(coordinate_tuples, dtype=np.int64)
