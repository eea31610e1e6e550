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
* :func:`cell_codes` — the level-interleaved C0 key
  (:func:`repro.core.cells.cell_code`) of every row, the sort/group key
  of the columnar store (:mod:`repro.core.store`); a slot's bucket keys
  are right shifts of it (:func:`repro.core.cells.bucket_code`);
* :func:`box_cell_codes` — the keys of every cell in a query box, the
  enumeration side of the columnar ground-truth lookup;
* :func:`matches_mask` — batch :meth:`repro.core.query.Query.matches`
  over a value matrix (the columnar ground-truth filter).

Every key spends ``max_level`` bits per dimension, so it fits one int64
only when :func:`packable` holds; :class:`AttributeSchema` refuses
any other geometry, which is why no function here checks it again. Every
function is kept bit-identical to the scalar algebra by the property
tests in ``tests/core/test_vector.py`` (randomized depths, dimensions and
populations, including the N(l,k) partition invariant).
"""

from __future__ import annotations

from functools import lru_cache
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
    """True when C0 cell keys fit one int64 (``d * L <= 62``)."""
    return dimensions * max_level <= 62


@lru_cache(maxsize=16)
def _spread_table(dimensions: int, max_level: int) -> "np.ndarray":
    """Every cell index with its bit ``b`` moved to bit ``b * dimensions``.

    Entry ``i`` shifted left by ``dimensions - 1 - dim`` is dimension
    *dim*'s share of :func:`repro.core.cells.cell_code` for index ``i``.
    ``2**max_level`` entries, no more than one of the schema's boundary
    vectors; read-only, because every caller shares it.
    """
    indices = np.arange(1 << max_level, dtype=np.int64)
    spread = np.zeros(len(indices), dtype=np.int64)
    for bit in range(max_level):
        spread |= ((indices >> bit) & 1) << (bit * dimensions)
    spread.flags.writeable = False
    return spread


def cell_codes(coords: "np.ndarray", max_level: int) -> "np.ndarray":
    """Per-row C0 keys: :func:`repro.core.cells.cell_code` of every row."""
    dimensions = coords.shape[1]
    spread = _spread_table(dimensions, max_level)
    codes = np.zeros(len(coords), dtype=np.int64)
    for dim in range(dimensions):
        codes |= spread[coords[:, dim]] << (dimensions - 1 - dim)
    return codes


def box_cell_codes(
    ranges: Sequence[Interval], max_level: int
) -> "np.ndarray":
    """The C0 keys of every cell in the box *ranges*, ascending.

    Equals :func:`repro.core.cells.cell_code` over ``itertools.product``
    of the inclusive per-dimension ranges: each dimension's slice of the
    bit-spread table, combined as one outer OR per dimension. Sorted,
    because ``np.searchsorted`` runs faster on ascending needles.
    """
    dimensions = len(ranges)
    spread = _spread_table(dimensions, max_level)
    codes = np.zeros(1, dtype=np.int64)
    for dim, (low, high) in enumerate(ranges):
        part = spread[low : high + 1] << (dimensions - 1 - dim)
        codes = (codes[:, None] | part).ravel()
    codes.sort()
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
