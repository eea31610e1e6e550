"""Node descriptors.

A descriptor is the unit of information exchanged by the gossip layers and
stored in routing tables: a node's address together with its attribute
values ("for each neighbor the following information is stored: n.address
... links are associated with the attribute values of the node they
represent", Sections 4.3 and 5).

Descriptors are immutable values; a node whose attributes change publishes a
*new* descriptor (the overlay then reclassifies it, no registry update is
needed — the core argument of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.core.attributes import AttributeSchema, AttributeValue

#: Node addresses are opaque integers (an IP/port stand-in).
Address = int


@dataclass(frozen=True, slots=True)
class NodeDescriptor:
    """Immutable snapshot of a node's identity and attribute values.

    Declared with ``slots=True``: descriptors are the single most numerous
    object kind in a large deployment (one per node, shared by every
    routing table that links to the node), and dropping the per-instance
    ``__dict__`` saves roughly 100 bytes each — a node-count-sized win.
    """

    address: Address
    values: Tuple[float, ...]
    coordinates: Tuple[int, ...]
    #: The C0 key of ``coordinates`` (:func:`repro.core.cells.cell_code`),
    #: taken from the schema's intern table: every cell relation the
    #: routing layers need is arithmetic on two of these.
    code: int

    @classmethod
    def build(
        cls,
        address: Address,
        schema: AttributeSchema,
        values: Mapping[str, AttributeValue],
    ) -> "NodeDescriptor":
        """Create a descriptor from raw attribute values using *schema*."""
        return cls.from_numeric(address, schema, schema.encode_values(values))

    @classmethod
    def from_numeric(
        cls,
        address: Address,
        schema: AttributeSchema,
        numeric_values: Tuple[float, ...],
    ) -> "NodeDescriptor":
        """Create a descriptor from an already-encoded value vector."""
        coordinates, code = schema.cell_of(numeric_values)
        return cls(address, tuple(numeric_values), coordinates, code)

    def decoded(self, schema: AttributeSchema) -> Mapping[str, AttributeValue]:
        """Return the raw ``{name: value}`` view of this descriptor."""
        return {
            definition.name: definition.decode(value)
            for definition, value in zip(schema.definitions, self.values)
        }
