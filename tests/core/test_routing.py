"""Unit tests for the routing table."""

import pytest

from repro.core.attributes import AttributeSchema, numeric
from repro.core.cells import ZERO_SLOT
from repro.core.descriptors import NodeDescriptor
from repro.core.routing import PICKS_CAP, RoutingTable
from repro.core.store import BootstrapPlan, DescriptorStore


@pytest.fixture
def schema():
    return AttributeSchema.regular(
        [numeric("x", 0, 8), numeric("y", 0, 8)], max_level=3
    )


def descriptor(schema, address, x, y):
    return NodeDescriptor.build(address, schema, {"x": x, "y": y})


def attach_bootstrap_links(schema, table, peers):
    """Seed *table* from a plan over its owner plus *peers*."""
    store = DescriptorStore.from_descriptors(schema, [table.owner, *peers])
    links = BootstrapPlan(store, PICKS_CAP).draw(range(len(store)), seed=5)
    table.seed_slots(links, store.row_of(table.owner.address))


@pytest.fixture
def table(schema):
    owner = descriptor(schema, 0, 0.5, 0.5)  # coordinates (0, 0)
    return RoutingTable(owner, schema.dimensions, schema.max_level)


class TestFreshTable:
    def test_reads_as_empty_then_promotes_on_add(self, schema, table):
        """An unattached table holds no dict of its own until written."""
        assert table.neighbor(1, 0) is None
        assert table.alternative(1, 0, set()) is None
        assert list(table.zero_neighbors()) == []
        assert table.filled_slots() == set()
        assert table.link_count() == 0
        assert table.zero_count() == 0
        peer = descriptor(schema, 1, 1.5, 0.5)  # slot (1, 0)
        mate = descriptor(schema, 2, 0.9, 0.9)  # the owner's C0 cell
        assert table.add(peer)
        assert table.add(mate)
        assert table.neighbor(1, 0) == peer
        assert table.alternative(1, 0, {1}) is None
        assert list(table.zero_neighbors()) == [mate]
        assert table.filled_slots() == {(1, 0)}
        assert table.link_count() == 2
        assert table.zero_count() == 1
        # The writes went to this table's own dicts, not a shared one.
        other = RoutingTable(table.owner, schema.dimensions, schema.max_level)
        assert other.link_count() == 0
        assert other.neighbor(1, 0) is None

    def test_remove_and_rebuild_on_a_fresh_table(self, schema, table):
        table.remove(7)  # unknown address: nothing to do
        assert table.rebuild(descriptor(schema, 0, 1.5, 0.5)) == []
        assert table.link_count() == 0
        assert table.add(descriptor(schema, 1, 0.5, 0.5))
        assert table.filled_slots() == {(1, 0)}


class TestClassification:
    def test_zero_slot(self, schema, table):
        peer = descriptor(schema, 1, 0.9, 0.9)  # same C0 cell (0, 0)
        assert table.classify(peer) == ZERO_SLOT

    def test_level_slots(self, schema, table):
        assert table.classify(descriptor(schema, 1, 1.5, 0.5)) == (1, 0)
        assert table.classify(descriptor(schema, 2, 0.5, 1.5)) == (1, 1)
        assert table.classify(descriptor(schema, 3, 7.5, 7.5)) == (3, 0)


class TestAdd:
    def test_add_primary(self, schema, table):
        peer = descriptor(schema, 1, 7.5, 7.5)
        assert table.add(peer)
        assert table.neighbor(3, 0) == peer

    def test_self_ignored(self, schema, table):
        assert not table.add(table.owner)

    def test_second_becomes_alternate(self, schema, table):
        first = descriptor(schema, 1, 7.5, 7.5)
        second = descriptor(schema, 2, 6.5, 6.5)
        table.add(first)
        assert table.add(second)
        assert table.neighbor(3, 0) == first
        assert table.alternative(3, 0, exclude={1}) == second

    def test_alternates_bounded(self, schema, table):
        for address in range(1, 10):
            table.add(descriptor(schema, address, 4.5 + 0.1 * address, 0.5))
        # 1 primary + alternates_per_slot (3) retained.
        addresses = {
            entry.address
            for entry in table.descriptors()
        }
        assert len(addresses) == 4

    def test_refused_alternate_leaves_no_empty_list(self, schema):
        """A table that keeps no alternates refuses a second descriptor
        for a filled slot without leaving an empty alternates list."""
        owner = descriptor(schema, 0, 0.5, 0.5)
        bare = RoutingTable(owner, 2, 3, alternates_per_slot=0)
        bare.add(descriptor(schema, 1, 1.5, 0.5))  # primary of (1, 0)
        assert bare.add(descriptor(schema, 2, 1.6, 0.6)) is False
        assert bare._alternates == {}
        assert bare.link_count() == 1

    def test_refresh_same_address_new_values(self, schema, table):
        stale = descriptor(schema, 1, 7.5, 7.5)
        fresh = descriptor(schema, 1, 7.5, 6.5)
        table.add(stale)
        assert table.add(fresh)
        assert table.neighbor(3, 0) == fresh

    def test_idempotent_add(self, schema, table):
        peer = descriptor(schema, 1, 7.5, 7.5)
        table.add(peer)
        assert not table.add(peer)

    def test_moved_node_leaves_no_stale_copy(self, schema, table):
        """A re-learned address whose attributes changed slots is purged
        from the old slot (regression: hypothesis stateful test)."""
        table.add(descriptor(schema, 1, 0.9, 0.9))   # C0 mate
        assert table.zero_count() == 1
        table.add(descriptor(schema, 1, 0.9, 1.5))   # moved to N(1,1)
        assert table.zero_count() == 0
        assert table.neighbor(1, 1).address == 1
        assert table.link_count() == 1
        assert table.primary_link_count() == 1
        # And back again.
        table.add(descriptor(schema, 1, 0.9, 0.9))
        assert table.neighbor(1, 1) is None
        assert table.zero_count() == 1

    def test_zero_members_accumulate(self, schema, table):
        for address in range(1, 5):
            table.add(descriptor(schema, address, 0.1 * address, 0.5))
        assert table.zero_count() == 4
        assert {entry.address for entry in table.zero_neighbors()} == {1, 2, 3, 4}

    def test_zero_capacity_cap(self, schema):
        owner = descriptor(schema, 0, 0.5, 0.5)
        capped = RoutingTable(owner, 2, 3, zero_capacity=2)
        for address in range(1, 5):
            capped.add(descriptor(schema, address, 0.1 * address, 0.5))
        assert capped.zero_count() == 2

    def test_moved_address_that_no_longer_fits_reports_a_change(self, schema):
        """Purging a re-slotted address changes the table even when the
        new copy is refused (zero cap full, or no alternates kept)."""
        owner = descriptor(schema, 0, 0.5, 0.5)
        capped = RoutingTable(owner, 2, 3, zero_capacity=1)
        capped.add(descriptor(schema, 1, 0.9, 0.9))  # fills the C0 cap
        capped.add(descriptor(schema, 2, 1.5, 0.5))  # slot (1, 0)
        assert capped.add(descriptor(schema, 2, 0.2, 0.2)) is True
        assert capped.get(2) is None and capped.neighbor(1, 0) is None

        bare = RoutingTable(owner, 2, 3, alternates_per_slot=0)
        bare.add(descriptor(schema, 1, 1.5, 0.5))  # primary of (1, 0)
        bare.add(descriptor(schema, 2, 0.9, 0.9))  # C0 member
        assert bare.add(descriptor(schema, 2, 1.6, 0.6)) is True
        assert bare.get(2) is None and bare.zero_count() == 0


class TestAlternateLru:
    """Deterministic least-recently-refreshed retention of alternates.

    Fail-over order must be a pure function of the gossip history (no set
    iteration, no hashing): identical advertisement sequences yield
    identical retry targets, which keeps chaos runs seed-stable.
    """

    def fill(self, schema, table):
        # Address 1 becomes the (3, 0) primary; 2, 3, 4 its alternates.
        for address in range(1, 5):
            table.add(descriptor(schema, address, 4.5 + 0.01 * address, 0.5))

    def test_oldest_alternate_evicted_when_slot_is_full(self, schema, table):
        self.fill(schema, table)
        table.add(descriptor(schema, 5, 4.5, 0.5))
        assert table.get(2) is None  # least recently refreshed
        assert {d.address for d in table.descriptors()} == {1, 3, 4, 5}

    def test_refresh_moves_alternate_to_the_back(self, schema, table):
        self.fill(schema, table)
        # Re-advertising 2 (fresh attribute snapshot, same cell) renews it...
        table.add(descriptor(schema, 2, 4.6, 0.5))
        table.add(descriptor(schema, 6, 4.5, 0.5))
        # ...so the eviction falls on 3, now the oldest entry.
        assert table.get(2) is not None
        assert table.get(3) is None

    def test_failover_order_is_advertisement_order(self, schema, table):
        self.fill(schema, table)
        assert table.alternative(3, 0, exclude={1}).address == 2
        assert table.alternative(3, 0, exclude={1, 2}).address == 3
        assert table.alternative(3, 0, exclude={1, 2, 3}).address == 4
        assert table.alternative(3, 0, exclude={1, 2, 3, 4}) is None

    def test_identical_histories_expose_identical_failover(self, schema):
        """Seed-stability regression: two tables fed the same sequence of
        adds, refreshes and removals agree on every fail-over choice."""
        def replay():
            owner = descriptor(schema, 0, 0.5, 0.5)
            table = RoutingTable(owner, schema.dimensions, schema.max_level)
            for address in (1, 2, 3, 4, 5):  # overflows the slot once
                table.add(descriptor(schema, address, 4.5, 0.5))
            table.add(descriptor(schema, 3, 4.7, 0.5))  # refresh
            table.remove(1)  # promote an alternate
            return table

        first, second = replay(), replay()
        exclude = set()
        chain = []
        while True:
            choice = first.alternative(3, 0, exclude)
            other = second.alternative(3, 0, exclude)
            assert (choice and choice.address) == (other and other.address)
            if choice is None:
                break
            chain.append(choice.address)
            exclude.add(choice.address)
        assert len(chain) == len(set(chain)) >= 3


class TestRemove:
    def test_remove_promotes_alternate(self, schema, table):
        first = descriptor(schema, 1, 7.5, 7.5)
        second = descriptor(schema, 2, 6.5, 6.5)
        table.add(first)
        table.add(second)
        table.remove(1)
        assert table.neighbor(3, 0) == second
        assert table.alternative(3, 0, exclude={2}) is None

    def test_remove_zero_member(self, schema, table):
        table.add(descriptor(schema, 1, 0.9, 0.9))
        table.remove(1)
        assert table.zero_count() == 0

    def test_remove_unknown_is_noop(self, table):
        table.remove(999)


class TestRebuild:
    def test_reclassifies_after_attribute_change(self, schema, table):
        near = descriptor(schema, 1, 7.5, 7.5)
        table.add(near)
        # Owner moves next to the peer: it should become a C0 member.
        new_owner = descriptor(schema, 0, 7.4, 7.4)
        table.rebuild(new_owner)
        assert table.classify(near) == ZERO_SLOT
        assert {entry.address for entry in table.zero_neighbors()} == {1}
        assert table.neighbor(3, 0) is None


class TestQueries:
    def test_filled_and_empty_slots(self, schema, table):
        assert table.filled_slots() == set()
        table.add(descriptor(schema, 1, 7.5, 7.5))
        assert table.filled_slots() == {(3, 0)}
        assert (3, 0) not in set(table.empty_slots())

    def test_link_count_deduplicates(self, schema, table):
        table.add(descriptor(schema, 1, 7.5, 7.5))
        table.add(descriptor(schema, 2, 0.9, 0.9))
        assert table.link_count() == 2
        assert table.addresses() == {1, 2}

    def test_region_matches_cells_module(self, schema, table):
        """Every filled slot's primary lies in that slot's N(l,k)(owner)."""
        from repro.core.cells import neighboring_region

        for address, (x, y) in enumerate(
            [(7.5, 7.5), (1.5, 0.5), (0.5, 1.5), (0.5, 2.5)], start=1
        ):
            table.add(descriptor(schema, address, x, y))
        assert table.filled_slots() == {(3, 0), (1, 0), (1, 1), (2, 1)}
        for level, dim in table.filled_slots():
            region = neighboring_region(table.owner.coordinates, level, dim)
            assert region.contains(table.neighbor(level, dim).coordinates)


class TestBulkSeeding:
    """The bootstrap fast paths must agree with the incremental add()."""

    def test_seed_zero_matches_add(self, schema, table):
        peers = [
            descriptor(schema, address, 0.1 * address, 0.9)
            for address in range(1, 6)
        ]  # all inside the owner's C0 cell (0, 0)
        table.seed_zero([table.owner, *peers])  # self must be skipped
        reference = RoutingTable(
            table.owner, schema.dimensions, schema.max_level
        )
        for peer in peers:
            reference.add(peer)
        assert list(table.zero_neighbors()) == list(reference.zero_neighbors())
        assert table.link_count() == reference.link_count()

    def test_seed_zero_respects_capacity(self, schema):
        owner = descriptor(schema, 0, 0.5, 0.5)
        table = RoutingTable(
            owner, schema.dimensions, schema.max_level, zero_capacity=2
        )
        table.seed_zero(
            [descriptor(schema, a, 0.5, 0.5) for a in range(1, 9)]
        )
        assert table.zero_count() == 2

    def test_seed_slots_installs_primary_and_alternates(self, schema, table):
        bucket = [
            descriptor(schema, address, 1.5, 0.5) for address in range(1, 9)
        ]  # all in N(1, 0) of the owner at (0, 0)
        attach_bootstrap_links(schema, table, bucket)
        assert table.neighbor(1, 0) is not None
        installed = {
            d.address for d in table.descriptors()
        }
        assert len(installed) == 4
        assert installed <= {d.address for d in bucket}
        # Every installed descriptor classifies into the seeded slot.
        for d in table.descriptors():
            assert table.classify(d) == (1, 0)

    def test_seed_slots_registers_every_install(self, schema, table):
        # seed_slots attaches the plan's picks without the per-address
        # guards of the general add() path (the cell geometry makes the
        # buckets disjoint and free of the owner's cell). Every installed
        # descriptor must still be resolvable by address once the table
        # is promoted to its dicts.
        bucket = [
            descriptor(schema, address, 1.5, 0.5) for address in range(1, 9)
        ]
        attach_bootstrap_links(schema, table, bucket)
        installed = list(table.descriptors())
        assert len(installed) == 4
        for d in installed:
            assert table.get(d.address) is d

    def test_get_returns_stored_descriptor(self, schema, table):
        peer = descriptor(schema, 7, 7.5, 7.5)
        table.add(peer)
        assert table.get(7) == peer
        assert table.get(8) is None
        table.remove(7)
        assert table.get(7) is None
