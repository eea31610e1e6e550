"""Attribute definitions and schemas.

The paper models every node as a point in a d-dimensional attribute space
``A = A0 x A1 x ... x A(d-1)`` where each ``Ai`` is the set of possible
values of attribute ``ai`` (Section 3). Attribute values "can be uniquely
mapped to natural numbers"; this module performs that mapping.

Two attribute kinds are supported:

* **numeric** — continuous or integral values (memory MB, bandwidth Kb/s...).
  The cell geometry cuts the value axis with a boundary vector; boundaries
  may be *regular* (evenly spaced) or *irregular* (e.g. quantiles of an
  observed population), matching the paper's remark that "the attribute
  ranges of each cell do not have to be regular" so skewed value
  distributions can be accommodated.
* **categorical** — a finite ordered list of category labels (CPU ISA,
  operating-system build...). Categories are mapped to consecutive ordinals
  and then treated numerically for routing.

The paper also notes there is no upper bound on attribute values ("all nodes
with more than 8 GB of RAM will be placed in the lowest row of the grid"):
values outside ``[lower, upper)`` clamp into the first or last cell index.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.cells import cell_code
from repro.core.vector import packable
from repro.util.errors import ConfigurationError

AttributeValue = Union[int, float, str]


@dataclass(frozen=True)
class AttributeDefinition:
    """Description of a single node attribute (one dimension of the space).

    Parameters
    ----------
    name:
        Unique attribute name, e.g. ``"mem_mb"``.
    lower, upper:
        The value range used to place cell boundaries. Values outside the
        range are allowed and clamp to the extreme cells.
    categories:
        For categorical attributes, the ordered list of labels. When given,
        ``lower``/``upper`` are derived automatically.
    """

    name: str
    lower: float = 0.0
    upper: float = 1.0
    categories: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.categories is not None:
            if len(self.categories) < 1:
                raise ConfigurationError(
                    f"attribute {self.name!r}: categories must be non-empty"
                )
            if len(set(self.categories)) != len(self.categories):
                raise ConfigurationError(
                    f"attribute {self.name!r}: duplicate categories"
                )
            object.__setattr__(self, "lower", 0.0)
            object.__setattr__(self, "upper", float(len(self.categories)))
        elif not self.lower < self.upper:
            raise ConfigurationError(
                f"attribute {self.name!r}: lower ({self.lower}) must be "
                f"strictly below upper ({self.upper})"
            )

    @property
    def is_categorical(self) -> bool:
        """True if this attribute takes values from a finite label set."""
        return self.categories is not None

    def encode(self, value: AttributeValue) -> float:
        """Map a raw attribute value to its numeric representation."""
        if self.is_categorical:
            assert self.categories is not None
            if isinstance(value, str):
                try:
                    return float(self.categories.index(value))
                except ValueError:
                    raise ConfigurationError(
                        f"attribute {self.name!r}: unknown category {value!r}"
                    ) from None
            return float(value)
        if isinstance(value, str):
            raise ConfigurationError(
                f"attribute {self.name!r} is numeric but got string {value!r}"
            )
        return float(value)

    def decode(self, numeric: float) -> AttributeValue:
        """Inverse of :meth:`encode` (categorical ordinals map to labels)."""
        if self.is_categorical:
            assert self.categories is not None
            index = int(numeric)
            if 0 <= index < len(self.categories):
                return self.categories[index]
            raise ConfigurationError(
                f"attribute {self.name!r}: ordinal {numeric} out of range"
            )
        return numeric


def categorical(name: str, categories: Sequence[str]) -> AttributeDefinition:
    """Convenience constructor for a categorical attribute."""
    return AttributeDefinition(name=name, categories=tuple(categories))


def numeric(name: str, lower: float, upper: float) -> AttributeDefinition:
    """Convenience constructor for a numeric attribute."""
    return AttributeDefinition(name=name, lower=lower, upper=upper)


@dataclass
class AttributeSchema:
    """An ordered collection of attributes plus the cell boundary vectors.

    The schema is the single authority for translating between raw attribute
    values and per-dimension *cell indices*: integers in ``[0, 2**max_level)``
    whose bits (MSB first) encode the node's position in the nested-cell
    hierarchy (see :mod:`repro.core.cells`).

    Attributes
    ----------
    definitions:
        The attribute definitions, one per dimension, in dimension order.
    max_level:
        The nesting depth ``max(l)`` of the cell hierarchy. Each dimension is
        cut into ``2**max_level`` intervals. ``dimensions * max_level`` may
        not exceed 62: a C0 cell key spends ``max_level`` bits per
        dimension and is packed into one int64 (the paper's widest sweep,
        d=20 at max(l)=3, takes 60).
    boundaries:
        Per dimension, the sorted vector of ``2**max_level - 1`` interior
        split points. Defaults to evenly spaced ("regular") boundaries.
    """

    definitions: Sequence[AttributeDefinition]
    max_level: int = 3
    boundaries: Optional[List[List[float]]] = None
    _index_by_name: Dict[str, int] = field(init=False, repr=False, compare=False)
    #: Canonical copies of coordinate tuples handed out by
    #: :meth:`intern_cell`, each beside its C0 key
    #: (:func:`repro.core.cells.cell_code`). Every node in the same C0
    #: cell shares one tuple object instead of owning a private copy, which
    #: at scale saves ~100 bytes per node, and the key is computed once
    #: per distinct cell (the cache can never exceed the number of
    #: *distinct* occupied cells).
    _intern: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.definitions:
            raise ConfigurationError("schema needs at least one attribute")
        if self.max_level < 1:
            raise ConfigurationError("max_level must be >= 1")
        if not packable(len(self.definitions), self.max_level):
            raise ConfigurationError(
                f"{len(self.definitions)} dimensions x max_level "
                f"{self.max_level} = {len(self.definitions) * self.max_level} "
                "bits, but C0 cell keys are packed into int64: "
                "dimensions * max_level must be <= 62"
            )
        names = [definition.name for definition in self.definitions]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate attribute names in {names}")
        self._index_by_name = {name: dim for dim, name in enumerate(names)}
        self._intern = {}
        if self.boundaries is None:
            self.boundaries = [
                self._regular_boundaries(definition)
                for definition in self.definitions
            ]
        else:
            self._validate_boundaries(self.boundaries)

    # -- construction helpers ------------------------------------------------

    def _regular_boundaries(self, definition: AttributeDefinition) -> List[float]:
        cells = self.cells_per_dimension
        width = (definition.upper - definition.lower) / cells
        return [definition.lower + width * i for i in range(1, cells)]

    def _validate_boundaries(self, boundaries: List[List[float]]) -> None:
        expected = self.cells_per_dimension - 1
        if len(boundaries) != len(self.definitions):
            raise ConfigurationError(
                f"need one boundary vector per dimension "
                f"({len(self.definitions)}), got {len(boundaries)}"
            )
        for dim, splits in enumerate(boundaries):
            if len(splits) != expected:
                raise ConfigurationError(
                    f"dimension {dim}: expected {expected} split points, "
                    f"got {len(splits)}"
                )
            if any(b < a for a, b in zip(splits, splits[1:])):
                raise ConfigurationError(
                    f"dimension {dim}: split points must be non-decreasing"
                )

    @classmethod
    def regular(
        cls,
        definitions: Sequence[AttributeDefinition],
        max_level: int = 3,
    ) -> "AttributeSchema":
        """Build a schema with evenly spaced cell boundaries."""
        return cls(definitions=list(definitions), max_level=max_level)

    @classmethod
    def from_quantiles(
        cls,
        definitions: Sequence[AttributeDefinition],
        samples: Sequence[Mapping[str, AttributeValue]],
        max_level: int = 3,
    ) -> "AttributeSchema":
        """Build a schema whose boundaries equalize population per cell.

        This realizes the paper's irregular cells ("one cell may range over
        memory between 0 and 128 MB, and another one between 4 GB and 8 GB")
        by placing split points at population quantiles of *samples*.
        """
        if not samples:
            raise ConfigurationError("from_quantiles requires samples")
        schema = cls(definitions=list(definitions), max_level=max_level)
        cells = schema.cells_per_dimension
        boundaries: List[List[float]] = []
        for definition in definitions:
            values = sorted(
                definition.encode(sample[definition.name]) for sample in samples
            )
            splits = []
            for i in range(1, cells):
                rank = min(len(values) - 1, (i * len(values)) // cells)
                splits.append(values[rank])
            boundaries.append(splits)
        schema.boundaries = boundaries
        schema._validate_boundaries(boundaries)
        return schema

    # -- basic queries --------------------------------------------------------

    @property
    def dimensions(self) -> int:
        """The number of attributes d (dimensions of the space)."""
        return len(self.definitions)

    @property
    def cells_per_dimension(self) -> int:
        """Number of lowest-level intervals per dimension: ``2**max_level``."""
        return 1 << self.max_level

    @property
    def names(self) -> Tuple[str, ...]:
        """Attribute names in dimension order."""
        return tuple(definition.name for definition in self.definitions)

    def dimension_of(self, name: str) -> int:
        """Return the dimension index of attribute *name*."""
        try:
            return self._index_by_name[name]
        except KeyError:
            raise ConfigurationError(f"unknown attribute {name!r}") from None

    def definition(self, name: str) -> AttributeDefinition:
        """Return the :class:`AttributeDefinition` for *name*."""
        return self.definitions[self.dimension_of(name)]

    # -- encoding -------------------------------------------------------------

    def encode_values(
        self, values: Mapping[str, AttributeValue]
    ) -> Tuple[float, ...]:
        """Encode a full ``{name: value}`` mapping into a numeric vector."""
        missing = set(self.names) - set(values)
        if missing:
            raise ConfigurationError(f"missing attribute values: {sorted(missing)}")
        return tuple(
            definition.encode(values[definition.name])
            for definition in self.definitions
        )

    def cell_index(self, dim: int, numeric_value: float) -> int:
        """Map a numeric value on dimension *dim* to its cell index."""
        assert self.boundaries is not None
        return bisect.bisect_right(self.boundaries[dim], numeric_value)

    def coordinates(self, numeric_values: Sequence[float]) -> Tuple[int, ...]:
        """Map a numeric value vector to the per-dimension cell indices.

        The returned tuple is interned: all callers mapping into the same
        C0 cell receive the same tuple object (see ``_intern``).
        """
        return self.cell_of(numeric_values)[0]

    def cell_of(
        self, numeric_values: Sequence[float]
    ) -> Tuple[Tuple[int, ...], int]:
        """:meth:`coordinates` of a value vector, with the cell's C0 key."""
        if len(numeric_values) != self.dimensions:
            raise ConfigurationError(
                f"expected {self.dimensions} values, got {len(numeric_values)}"
            )
        return self.intern_cell(
            tuple(
                self.cell_index(dim, value)
                for dim, value in enumerate(numeric_values)
            )
        )

    def intern_cell(
        self, coords: Tuple[int, ...], code: Optional[int] = None
    ) -> Tuple[Tuple[int, ...], int]:
        """The canonical shared tuple equal to *coords*, and its C0 key.

        A caller that already holds the key (the columnar store's
        ``cell_codes``) passes it as *code*, vouching for the tuple.
        Otherwise the key is computed on the first sight of the cell,
        after a check that raises ``ValueError`` for a tuple off the
        schema's grid (wrong length, or an index outside
        ``[0, 2**max_level)``): it names no cell, and its key would alias
        one that does.
        """
        entry = self._intern.get(coords)
        if entry is None:
            if code is None:
                if (
                    len(coords) != self.dimensions
                    or min(coords) < 0
                    or max(coords) >= self.cells_per_dimension
                ):
                    raise ValueError(
                        f"coordinates {coords} lie off the cell grid"
                    )
                code = cell_code(coords, self.max_level)
            entry = self._intern[coords] = (coords, code)
        return entry

    def index_range(
        self,
        dim: int,
        low: Optional[float],
        high: Optional[float],
    ) -> Tuple[int, int]:
        """Project a numeric value range onto an inclusive cell-index range.

        ``None`` bounds are open ends; the result always covers every cell
        that could contain a matching value.
        """
        low_index = 0 if low is None else self.cell_index(dim, low)
        high_index = (
            self.cells_per_dimension - 1
            if high is None
            else self.cell_index(dim, high)
        )
        return (low_index, high_index)

    def snap_range(
        self,
        dim: int,
        low: Optional[float],
        high: Optional[float],
    ) -> Tuple[Optional[float], Optional[float]]:
        """Widen a value range so it aligns with cell boundaries.

        Implements the paper's footnote: "we can also force queries to
        respect boundaries in order to reduce the likelihood that a query
        spans multiple subcells. For example, an application in need of
        1.2-2.9 GB of memory may be forced to request 1-3 GB."
        """
        assert self.boundaries is not None
        splits = self.boundaries[dim]
        snapped_low: Optional[float] = low
        snapped_high: Optional[float] = high
        if low is not None:
            position = bisect.bisect_right(splits, low)
            snapped_low = splits[position - 1] if position > 0 else None
        if high is not None:
            position = bisect.bisect_right(splits, high)
            snapped_high = splits[position] if position < len(splits) else None
        return snapped_low, snapped_high
