"""Multi-attribute range queries.

Section 3: "A query is defined as a binary relation over A ... Note that q
identifies a subspace Q(q) = Q0 x Q1 x ... x Q(d-1)". A query is a
conjunction of ``(attribute, value-range)`` constraints; attributes that do
not matter for a job are simply left unspecified.

Matching is evaluated on *raw attribute values*. For routing, the value
ranges are projected onto per-dimension cell-index ranges (see
:meth:`Query.index_ranges`) which demarcate the region of the cell grid the
query must visit. A node whose cell overlaps the query region but whose raw
values fall outside the ranges does not match; visiting such nodes is what
the paper measures as *routing overhead*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.attributes import AttributeSchema, AttributeValue
from repro.util.errors import ConfigurationError
from repro.util.intervals import Interval


@dataclass(frozen=True)
class ValueRange:
    """An inclusive numeric range constraint; ``None`` bounds are open."""

    low: Optional[float] = None
    high: Optional[float] = None

    def __post_init__(self) -> None:
        if (
            self.low is not None
            and self.high is not None
            and self.low > self.high
        ):
            raise ConfigurationError(
                f"empty range: low {self.low} > high {self.high}"
            )

    def contains(self, value: float) -> bool:
        """True if *value* satisfies this constraint."""
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    @property
    def is_unbounded(self) -> bool:
        """True if the constraint accepts every value."""
        return self.low is None and self.high is None


@dataclass(frozen=True)
class CategoricalSet:
    """A constraint accepting a finite set of category ordinals.

    Mirrors the paper's example ``OS in {Linux 2.6.19-..., Linux 2.6.20-...}``.
    Routing uses the ordinal span ``[min, max]``; matching is exact set
    membership, so gaps inside the span simply contribute routing overhead.
    """

    ordinals: FrozenSet[int]

    def __post_init__(self) -> None:
        if not self.ordinals:
            raise ConfigurationError("empty categorical set")

    def contains(self, value: float) -> bool:
        """True if *value* (an ordinal) is one of the accepted categories."""
        return int(value) in self.ordinals and float(int(value)) == value

    @property
    def low(self) -> float:
        """Lowest accepted ordinal (used for routing)."""
        return float(min(self.ordinals))

    @property
    def high(self) -> float:
        """Highest accepted ordinal (used for routing)."""
        return float(max(self.ordinals))

    @property
    def is_unbounded(self) -> bool:
        """Categorical sets are never unbounded."""
        return False


Constraint = Union[ValueRange, CategoricalSet]

#: One resolved constraint of :meth:`Query.matches`.
_Check = Tuple[int, float, float, Optional[CategoricalSet]]

RangeSpec = Union[
    Constraint,
    Tuple[Optional[float], Optional[float]],
    Sequence[str],
]


@dataclass(frozen=True)
class Query:
    """A conjunction of per-attribute constraints over a schema.

    Use :meth:`Query.where` for ergonomic construction::

        query = Query.where(
            schema,
            mem_mb=(4096, None),
            bandwidth_kbps=(512, None),
            os=["linux-2.6.19", "linux-2.6.20"],
        )
    """

    schema: AttributeSchema = field(compare=False)
    constraints: Tuple[Tuple[str, Constraint], ...]
    #: Constraints on *dynamic* attributes (footnote 1 of the paper):
    #: rapidly-changing values such as current free disk space are not
    #: dimensions of the routing space; queries route on the static
    #: attributes and each visited node checks the dynamic constraints
    #: against its own live state. This is impossible in delegation-based
    #: systems, where the registry's copy is always stale.
    dynamic_constraints: Tuple[Tuple[str, ValueRange], ...] = ()
    #: What :meth:`matches` evaluates, resolved on first use: one
    #: ``(dim, low, high, members)`` row per constraint, open bounds as
    #: infinities, ``members`` a categorical set (None for a range). Not a
    #: field, so equality, hashing and ``replace`` ignore it.
    _checks = None

    @classmethod
    def where(cls, schema: AttributeSchema, **specs: RangeSpec) -> "Query":
        """Build a query from keyword constraints.

        Each keyword is an attribute name; the value may be a
        ``(low, high)`` tuple (``None`` = open end), a :class:`ValueRange`,
        a :class:`CategoricalSet`, or a sequence of category labels for a
        categorical attribute.
        """
        constraints = []
        for name, spec in specs.items():
            definition = schema.definition(name)
            constraint: Constraint
            if isinstance(spec, (ValueRange, CategoricalSet)):
                constraint = spec
            elif isinstance(spec, tuple) and len(spec) == 2:
                low, high = spec
                constraint = ValueRange(
                    None if low is None else definition.encode(low),
                    None if high is None else definition.encode(high),
                )
            elif isinstance(spec, (list, set, frozenset)):
                if not definition.is_categorical:
                    raise ConfigurationError(
                        f"attribute {name!r} is numeric; pass a (low, high) tuple"
                    )
                constraint = CategoricalSet(
                    frozenset(int(definition.encode(label)) for label in spec)
                )
            else:
                raise ConfigurationError(
                    f"attribute {name!r}: unsupported constraint {spec!r}"
                )
            constraints.append((name, constraint))
        constraints.sort(key=lambda item: schema.dimension_of(item[0]))
        return cls(schema=schema, constraints=tuple(constraints))

    @classmethod
    def from_index_ranges(
        cls, schema: AttributeSchema, ranges: Sequence[Interval]
    ) -> "Query":
        """Build a query that matches exactly a box of lowest-level cells.

        Used by workload generators that construct queries directly in
        index space (e.g. the best-case/worst-case scenarios of Section 6.2).
        The per-dimension constraint spans the raw-value extent of the index
        range, so routing and matching coincide.
        """
        assert schema.boundaries is not None
        constraints = []
        cells = schema.cells_per_dimension
        for dim, (low_index, high_index) in enumerate(ranges):
            if low_index <= 0 and high_index >= cells - 1:
                continue
            splits = schema.boundaries[dim]
            low = None if low_index <= 0 else splits[low_index - 1]
            high = (
                None
                if high_index >= cells - 1
                else _just_below(splits[high_index])
            )
            constraints.append(
                (schema.definitions[dim].name, ValueRange(low, high))
            )
        return cls(schema=schema, constraints=tuple(constraints))

    def with_dynamic(self, **specs: Tuple[Optional[float], Optional[float]]) -> "Query":
        """Return a copy with added dynamic-attribute constraints.

        Dynamic attribute names are free-form (not part of the schema);
        each spec is an inclusive ``(low, high)`` tuple with ``None`` open
        ends, e.g. ``query.with_dynamic(free_disk_gb=(100, None))``.
        """
        extra = []
        for name, spec in specs.items():
            if not (isinstance(spec, tuple) and len(spec) == 2):
                raise ConfigurationError(
                    f"dynamic attribute {name!r}: pass a (low, high) tuple"
                )
            extra.append((name, ValueRange(spec[0], spec[1])))
        return Query(
            schema=self.schema,
            constraints=self.constraints,
            dynamic_constraints=self.dynamic_constraints + tuple(extra),
        )

    # -- evaluation ------------------------------------------------------------

    def matches(self, numeric_values: Sequence[float]) -> bool:
        """True if a node with the given numeric value vector satisfies q."""
        checks = self._checks
        if checks is None:
            checks = self._resolve_checks()
        for dim, low, high, members in checks:
            value = numeric_values[dim]
            if value < low or value > high:
                return False
            if members is not None and not members.contains(value):
                return False
        return True

    def _resolve_checks(self) -> Tuple[_Check, ...]:
        checks = []
        for name, constraint in self.constraints:
            if isinstance(constraint, CategoricalSet):
                low, high, members = -math.inf, math.inf, constraint
            else:
                low = -math.inf if constraint.low is None else constraint.low
                high = math.inf if constraint.high is None else constraint.high
                members = None
            checks.append((self.schema.dimension_of(name), low, high, members))
        resolved = tuple(checks)
        object.__setattr__(self, "_checks", resolved)
        return resolved

    def matches_mapping(self, values: Mapping[str, AttributeValue]) -> bool:
        """Like :meth:`matches` but takes a raw ``{name: value}`` mapping."""
        return self.matches(self.schema.encode_values(values))

    def matches_dynamic(self, dynamic_values: Mapping[str, float]) -> bool:
        """Check the dynamic constraints against a node's live state.

        A constrained dynamic attribute the node does not report counts as
        a non-match (conservative: the node cannot prove it qualifies).
        """
        for name, constraint in self.dynamic_constraints:
            value = dynamic_values.get(name)
            if value is None or not constraint.contains(value):
                return False
        return True

    def index_ranges(self) -> Tuple[Interval, ...]:
        """Project the query onto inclusive per-dimension cell-index ranges.

        Unconstrained dimensions span the full index range. The result is
        the routing region Q used by ``overlaps`` tests during forwarding.
        """
        full = (0, self.schema.cells_per_dimension - 1)
        ranges: Dict[int, Interval] = {}
        for name, constraint in self.constraints:
            dim = self.schema.dimension_of(name)
            low = None if constraint.low is None else constraint.low
            high = None if constraint.high is None else constraint.high
            ranges[dim] = self.schema.index_range(dim, low, high)
        return tuple(
            ranges.get(dim, full) for dim in range(self.schema.dimensions)
        )

    def snapped(self) -> "Query":
        """Return a widened copy whose ranges align with cell boundaries.

        Implements the paper's footnote 2 (boundary snapping): the snapped
        query never spans a partial cell, reducing worst-case overhead at
        the cost of potentially matching slightly more nodes.
        """
        constraints = []
        for name, constraint in self.constraints:
            if isinstance(constraint, CategoricalSet):
                constraints.append((name, constraint))
                continue
            dim = self.schema.dimension_of(name)
            low, high = self.schema.snap_range(dim, constraint.low, constraint.high)
            constraints.append((name, ValueRange(low, high)))
        return Query(
            schema=self.schema,
            constraints=tuple(constraints),
            dynamic_constraints=self.dynamic_constraints,
        )

    def describe(self) -> str:
        """Human-readable one-line rendering of the query."""
        if not self.constraints:
            return "<match all>"
        parts = []
        for name, constraint in self.constraints:
            if isinstance(constraint, CategoricalSet):
                definition = self.schema.definition(name)
                labels = sorted(
                    str(definition.decode(ordinal))
                    for ordinal in constraint.ordinals
                )
                parts.append(f"{name} in {{{', '.join(labels)}}}")
            else:
                low = "-inf" if constraint.low is None else f"{constraint.low:g}"
                high = "+inf" if constraint.high is None else f"{constraint.high:g}"
                parts.append(f"{name} in [{low}, {high}]")
        return " AND ".join(parts)


def _just_below(value: float) -> float:
    """The largest float strictly below *value* (for exclusive upper bounds)."""
    return math.nextafter(value, -math.inf)
