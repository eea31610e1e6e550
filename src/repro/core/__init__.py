"""Core protocol: attribute space, cells, queries, and the node protocol."""

from repro.core.analysis import (
    GeometrySummary,
    expected_cell_occupancy,
    nominal_neighbor_slots,
    summarize_geometry,
)
from repro.core.attributes import (
    AttributeDefinition,
    AttributeSchema,
    categorical,
    numeric,
)
from repro.core.cells import (
    Region,
    ZERO_SLOT,
    cell_code,
    cell_interval,
    cell_region,
    iter_slots,
    neighboring_region,
    num_cells,
    slot_of,
)
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.index import CellIndex
from repro.core.messages import QueryId, QueryMessage, ReplyMessage
from repro.core.node import NodeConfig, ResourceNode
from repro.core.observer import ProtocolObserver
from repro.core.query import CategoricalSet, Query, ValueRange
from repro.core.routing import RoutingTable
from repro.core.transport import DirectTransport, Transport

__all__ = [
    "GeometrySummary",
    "expected_cell_occupancy",
    "nominal_neighbor_slots",
    "summarize_geometry",
    "AttributeDefinition",
    "AttributeSchema",
    "categorical",
    "numeric",
    "Region",
    "ZERO_SLOT",
    "cell_code",
    "cell_interval",
    "cell_region",
    "iter_slots",
    "neighboring_region",
    "num_cells",
    "slot_of",
    "Address",
    "NodeDescriptor",
    "CellIndex",
    "QueryId",
    "QueryMessage",
    "ReplyMessage",
    "NodeConfig",
    "ResourceNode",
    "ProtocolObserver",
    "CategoricalSet",
    "Query",
    "ValueRange",
    "RoutingTable",
    "DirectTransport",
    "Transport",
]
