"""The cell algebra over numpy arrays: the batch half of the columnar path.

The scalar implementations in :mod:`repro.core.cells` and
:mod:`repro.core.attributes` are the canonical semantics — small, audited
against the paper, and the oracle the tests hold this module to. At bench
scale (10^5–10^6 nodes) their per-element Python cost dominates
deployment construction and ground truth, so this module provides the
batch forms those paths run on, over coordinate *matrices* (one row per
node or per cell, one column per dimension):

* :func:`coordinates_matrix` — batch value→cell-index mapping
  (``np.searchsorted(side="right")`` is exactly ``bisect.bisect_right``);
* :func:`contains_mask` — batch region membership;
* :func:`pack_codes` — per-slot bucket/flipped keys packed into int64
  scalars, the identity behind the vectorized bootstrap bucket assignment;
* :func:`pack_cell_codes` / :func:`pack_cell_code` — full-coordinate C0
  cell keys packed into int64, the sort/group key of the columnar store
  (:mod:`repro.core.store`);
* :func:`box_cell_codes` — the packed keys of every cell in a query box,
  the enumeration side of the columnar ground-truth lookup;
* :func:`matches_mask` — batch :meth:`repro.core.query.Query.matches`
  over a value matrix (the columnar ground-truth filter).

Every packed key spends ``max_level`` bits per dimension, so it fits one
int64 only when :func:`packable` holds; :class:`AttributeSchema` refuses
any other geometry, which is why no function here checks it again. Every
function is kept bit-identical to the scalar algebra by the property
tests in ``tests/core/test_vector.py`` (randomized depths, dimensions and
populations, including the N(l,k) partition invariant).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.attributes import AttributeSchema

from repro.util.intervals import Interval


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
    low = np.array([interval[0] for interval in intervals], dtype=np.int64)
    high = np.array([interval[1] for interval in intervals], dtype=np.int64)
    return np.logical_and(coords >= low, coords <= high).all(axis=1)


# -- bucket codes --------------------------------------------------------------


def packable(dimensions: int, max_level: int) -> bool:
    """True when packed cell keys fit one int64 (``d * L <= 62``)."""
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
    *belongs to*. Each per-dimension part occupies ``max_level`` bits,
    which is injective because every part is a right-shift of an index
    below ``2**max_level``.
    """
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
    usable as a sort/group key. Each dimension occupies ``max_level``
    bits (injective because every cell index lies below
    ``2**max_level``). Scalar twin: :func:`pack_cell_code`.
    """
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
