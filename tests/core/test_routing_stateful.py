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

A second machine holds a table attached to ``BootstrapPlan.draw``'s
links to a twin seeded by the scalar oracle, under the same sequences.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.attributes import AttributeSchema, numeric
from repro.core.cells import ZERO_SLOT, iter_slots, neighboring_region
from repro.core.descriptors import NodeDescriptor
from repro.core.index import CellIndex
from repro.core.routing import PICKS_CAP, RoutingTable
from repro.core.store import BootstrapPlan, DescriptorStore, bootstrap_rng
from tests.core.test_bootstrap_draw import failover_chain
from tests.core.test_vector import (
    scalar_seed_slots,
    scalar_slot_buckets_by_cell,
)

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


class RowBackedTableMachine(RuleBasedStateMachine):
    """A table attached to bootstrap links against its oracle twin.

    The oracle is seeded the scalar way (``seed_zero`` plus the per-slot
    draw loop); the other reads the links ``BootstrapPlan.draw`` made
    until its first mutation promotes it. Both then take the same add /
    remove / rebuild sequence and must agree on every read, on every
    ``add`` result and on ``descriptors()`` order throughout.
    """

    @initialize(
        cells=st.lists(coordinates, min_size=1, max_size=40),
        alternates=st.sampled_from([0, 1, 2, 3, 5]),
        capacity=st.sampled_from([None, 0, 1, 2]),
        seed=st.integers(0, 2**16),
    )
    def seed_tables(self, cells, alternates, capacity, seed):
        population = [
            descriptor(address, coords) for address, coords in enumerate(cells)
        ]
        self.owner = population[0]
        store = DescriptorStore.from_descriptors(SCHEMA, population)
        index = CellIndex(SCHEMA)
        for peer in population:
            index.add(peer)
        buckets = scalar_slot_buckets_by_cell(index, SCHEMA, PICKS_CAP)
        links = BootstrapPlan(store, PICKS_CAP).draw(
            range(len(store)), seed
        )

        def table():
            return RoutingTable(
                self.owner, SCHEMA.dimensions, SCHEMA.max_level,
                alternates_per_slot=alternates, zero_capacity=capacity,
            )

        self.oracle = table()
        self.oracle.seed_zero(index.members(self.owner.coordinates))
        scalar_seed_slots(
            self.oracle,
            buckets[self.owner.coordinates],
            bootstrap_rng(seed, self.owner.address),
        )
        self.attached = table()
        self.attached.seed_slots(links, 0)

    @rule(address=st.integers(1, 50), coords=coordinates)
    def add(self, address, coords):
        peer = descriptor(address, coords)
        assert self.attached.add(peer) == self.oracle.add(peer)

    @rule(address=st.integers(1, 50))
    def remove(self, address):
        self.attached.remove(address)
        self.oracle.remove(address)

    @rule(coords=coordinates)
    def rebuild(self, coords):
        owner = descriptor(0, coords)
        assert self.attached.rebuild(owner) == self.oracle.rebuild(owner)

    @rule(
        level=st.integers(1, SCHEMA.max_level),
        dim=st.integers(0, SCHEMA.dimensions - 1),
        exclude=st.sets(st.integers(1, 50)),
    )
    def alternative(self, level, dim, exclude):
        assert self.attached.alternative(
            level, dim, exclude
        ) == self.oracle.alternative(level, dim, exclude)

    @rule(address=st.integers(0, 50))
    def address_reads(self, address):
        # These reads promote a row-backed table; they must not change it.
        assert self.attached.get(address) == self.oracle.get(address)
        assert self.attached.addresses() == self.oracle.addresses()
        assert list(self.attached.descriptors()) == list(
            self.oracle.descriptors()
        )

    @invariant()
    def reads_agree(self):
        slots = list(iter_slots(SCHEMA.dimensions, SCHEMA.max_level))
        for read in (
            lambda table: [table.neighbor(*slot) for slot in slots],
            lambda table: [failover_chain(table, *slot) for slot in slots],
            lambda table: list(table.zero_neighbors()),
            lambda table: table.filled_slots(),
            lambda table: list(table.empty_slots()),
            lambda table: table.slot_fill_fraction(),
            lambda table: table.link_count(),
            lambda table: table.primary_link_count(),
            lambda table: table.zero_count(),
        ):
            assert read(self.attached) == read(self.oracle)


TestRowBackedTableStateful = RowBackedTableMachine.TestCase
TestRowBackedTableStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
