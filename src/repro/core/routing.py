"""Per-node routing state: neighboring-cell links and the C0 member list.

Section 4.1: each node keeps (i) ``neighborsZero`` — links to every other
node in its own lowest-level cell ``C0(X)`` — and (ii) for every level
``l >= 1`` and dimension ``k``, one link ``n(l,k)(X)`` to some node in the
neighboring cell ``N(l,k)(X)``, when that cell is non-empty.

Beyond the single selected neighbor per slot, the table retains a small set
of *alternates* per slot (other known inhabitants of the same cell). These
serve two purposes: fail-over when a forwarded query times out (Section 4.3,
the timeout T(q)), and candidate material for the gossip selection function.

A converged bootstrap does not fill the table's dicts. It attaches one
row of the shared pick arrays :meth:`repro.core.store.BootstrapPlan.draw`
makes for every node (:meth:`RoutingTable.seed_slots`); the forwarding
reads answer from that row, and the first mutation promotes the table in
place to the dicts the scalar seed would have filled. Most tables of a
converged overlay are never mutated, so they never hold a dict: until
then their four dicts are the one shared read-only
:data:`~repro.util.perf.EMPTY` mapping.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.cells import Slot, ZERO_SLOT, iter_slots, slot_of
from repro.core.descriptors import Address, NodeDescriptor
from repro.util.perf import EMPTY

if TYPE_CHECKING:
    from repro.core.store import BootstrapLinks

#: Fallback descriptors kept per neighboring-cell slot, beside its
#: selected neighbor. Every engine seeds tables with this many.
ALTERNATES_PER_SLOT = 3
#: Bootstrap draws per slot: the selected neighbor plus its alternates.
PICKS_CAP = 1 + ALTERNATES_PER_SLOT


class RoutingTable:
    """Cell-classified link state of one node.

    Parameters
    ----------
    owner:
        Descriptor of the node owning this table.
    dimensions, max_level:
        Geometry of the attribute space.
    alternates_per_slot:
        How many fallback descriptors to retain per neighboring-cell slot.
    zero_capacity:
        Optional cap on the C0 member list; ``None`` (the default) keeps
        every known C0 member, as the paper requires for the final fan-out.
    """

    __slots__ = (
        "owner",
        "dimensions",
        "max_level",
        "alternates_per_slot",
        "zero_capacity",
        "_primary",
        "_alternates",
        "_zero",
        "_by_address",
        "_links",
        "_row",
    )

    def __init__(
        self,
        owner: NodeDescriptor,
        dimensions: int,
        max_level: int,
        alternates_per_slot: int = ALTERNATES_PER_SLOT,
        zero_capacity: Optional[int] = None,
    ) -> None:
        self.owner = owner
        self.dimensions = dimensions
        self.max_level = max_level
        self.alternates_per_slot = alternates_per_slot
        self.zero_capacity = zero_capacity
        # All four are the shared EMPTY mapping until _promote gives the
        # table its own dicts, on the first mutation or address read.
        self._primary: Dict[Tuple[int, int], NodeDescriptor] = EMPTY
        # Per-slot fail-over candidates in least-recently-refreshed order
        # (index 0 = oldest). Lists, not dicts: a slot holds at most
        # ``alternates_per_slot`` entries, so the linear scans stay trivial
        # while each populated slot sheds a ~184-byte dict.
        self._alternates: Dict[Tuple[int, int], List[NodeDescriptor]] = EMPTY
        self._zero: Dict[Address, NodeDescriptor] = EMPTY
        # Address-keyed shadow of the whole table. Keeps membership tests
        # and descriptor lookup O(1) — hot paths during bootstrap and in
        # the gossip layer. Stores the descriptor only; the slot is
        # recomputed by :meth:`classify` on the rare paths that need it
        # (a per-link ``(slot, descriptor)`` tuple costs ~56 bytes, and
        # with ~60+ links per node that tuple dominated table memory).
        self._by_address: Dict[Address, NodeDescriptor] = EMPTY
        # Bootstrap links read in place until a mutation (seed_slots).
        self._links: Optional["BootstrapLinks"] = None
        self._row = 0

    # -- classification --------------------------------------------------------

    def classify(self, descriptor: NodeDescriptor) -> Slot:
        """Which slot (``ZERO_SLOT`` or ``(level, dim)``) *descriptor* fills."""
        return slot_of(self.owner.code, descriptor.code, self.dimensions)

    # -- mutation ---------------------------------------------------------------

    def add(self, descriptor: NodeDescriptor) -> bool:
        """Insert or refresh a link; returns True if the table changed.

        Self-descriptors are ignored. A descriptor replaces the primary for
        its slot only when the slot is empty; otherwise it is kept as an
        alternate. Alternates are kept in least-recently-refreshed order:
        when a slot is full the *oldest* alternate is evicted and a refresh
        moves the entry to the back, so fail-over targets are deterministic
        for a given gossip history (seed-stable retries) and biased toward
        recently advertised — hence probably alive — inhabitants.
        """
        address = descriptor.address
        if address == self.owner.address:
            return False
        self._promote()
        slot = self.classify(descriptor)
        changed = False
        current = self._by_address.get(address)
        if current is not None:
            if self.classify(current) == slot:
                if current == descriptor:
                    return False
                # Refresh in place (same slot, new attribute snapshot).
                self._by_address[address] = descriptor
                if slot == ZERO_SLOT:
                    self._zero[address] = descriptor
                else:
                    primary = self._primary.get(slot)
                    if primary is not None and primary.address == address:
                        self._primary[slot] = descriptor
                    else:
                        # Refresh = re-advertisement: move to the LRU back.
                        alternates = self._alternates[slot]
                        for position, alternate in enumerate(alternates):
                            if alternate.address == address:
                                del alternates[position]
                                break
                        alternates.append(descriptor)
                return True
            # A known address whose new attributes place it in a *different*
            # slot (the node's resources changed) must not linger in the old
            # one — purge the stale copy before inserting. That already
            # changed the table, whether or not the new copy fits.
            self.remove(address)
            changed = True
        if slot == ZERO_SLOT:
            if (
                self.zero_capacity is not None
                and len(self._zero) >= self.zero_capacity
            ):
                return changed
            self._zero[address] = descriptor
            self._by_address[address] = descriptor
            return True
        primary = self._primary.get(slot)
        if primary is None:
            self._primary[slot] = descriptor
            self._by_address[address] = descriptor
            return True
        if self.alternates_per_slot <= 0:
            return changed
        alternates = self._alternates.setdefault(slot, [])
        if len(alternates) >= self.alternates_per_slot:
            # Deterministic LRU eviction: drop the least recently
            # refreshed alternate (list order = refresh order).
            evicted = alternates.pop(0)
            self._by_address.pop(evicted.address, None)
        alternates.append(descriptor)
        self._by_address[address] = descriptor
        return True

    def seed_zero(self, descriptors: Iterable[NodeDescriptor]) -> None:
        """Bulk-install C0 members (the scalar seed's zero step).

        The caller guarantees every descriptor shares the owner's
        lowest-level cell, which lets this path skip classification.
        Self and already-known addresses are skipped; ``zero_capacity``
        is respected.
        """
        self._promote()
        zero = self._zero
        by_address = self._by_address
        owner_address = self.owner.address
        capacity = self.zero_capacity
        for descriptor in descriptors:
            address = descriptor.address
            if address == owner_address or address in by_address:
                continue
            if capacity is not None and len(zero) >= capacity:
                return
            zero[address] = descriptor
            by_address[address] = descriptor

    def seed_slots(self, links: "BootstrapLinks", row: int) -> None:
        """Attach the converged bootstrap links of node *row* of *links*.

        *links* is what :meth:`repro.core.store.BootstrapPlan.draw`
        returns: every node's C0 cell-mates and slot picks as shared
        arrays. The table keeps no dict of its own until something
        changes it. :meth:`neighbor`, :meth:`alternative`,
        :meth:`zero_neighbors` and the count and fill reads come straight
        from the arrays (respecting ``alternates_per_slot`` and
        ``zero_capacity``); every mutator, and the address-keyed reads,
        first promote the table in place to the dicts the scalar seed
        would have filled — the cell-mates in address order, then per
        slot the selected neighbor and its alternates — item for item and
        in the same insertion order. Whatever the table held before is
        replaced.
        """
        self._clear()
        self._links = links
        self._row = row

    def _attached_zero(self) -> List[NodeDescriptor]:
        """The attached C0 cell-mates (owner out, capped)."""
        members = self._links.mates(self._row)
        capacity = self.zero_capacity
        return members if capacity is None else members[: max(capacity, 0)]

    def _slot_picks(self) -> Iterator[Tuple[Slot, List[int]]]:
        """Each attached slot's picks as the table keeps them, in order."""
        links = self._links
        keep = 1 + max(self.alternates_per_slot, 0)
        for slot, picks in zip(
            iter_slots(self.dimensions, self.max_level),
            links.picks[self._row].tolist(),
        ):
            if picks[0] >= 0:
                yield slot, [pick for pick in picks[:keep] if pick >= 0]

    def _clear(self) -> None:
        """Forget every link: back to the shared empty mappings."""
        self._primary = self._alternates = EMPTY
        self._zero = self._by_address = EMPTY

    def _promote(self) -> None:
        """Give the table its own dicts, pouring attached links in.

        A table whose ``_by_address`` is not :data:`EMPTY` already owns
        its dicts and has no links attached.
        """
        if self._by_address is not EMPTY:
            return
        primary, alternates, zero, by_address = {}, {}, {}, {}
        self._primary, self._alternates = primary, alternates
        self._zero, self._by_address = zero, by_address
        links = self._links
        if links is None:
            return
        flyweights = links.flyweights
        for descriptor in self._attached_zero():
            zero[descriptor.address] = descriptor
            by_address[descriptor.address] = descriptor
        for slot, picks in self._slot_picks():
            chosen = [flyweights[pick] for pick in picks]
            primary[slot] = chosen[0]
            if len(chosen) > 1:
                alternates[slot] = chosen[1:]
            for descriptor in chosen:
                by_address[descriptor.address] = descriptor
        self._links = None

    def _locate(self, address: Address) -> Optional[Slot]:
        """The slot currently holding *address*, or None if unknown."""
        self._promote()
        entry = self._by_address.get(address)
        return self.classify(entry) if entry is not None else None

    def get(self, address: Address) -> Optional[NodeDescriptor]:
        """The stored descriptor for *address*, or None if unknown."""
        self._promote()
        return self._by_address.get(address)

    def remove(self, address: Address) -> None:
        """Drop every link to *address*, promoting an alternate if needed."""
        self._promote()
        entry = self._by_address.pop(address, None)
        if entry is None:
            return
        slot = self.classify(entry)
        if slot == ZERO_SLOT:
            self._zero.pop(address, None)
            return
        primary = self._primary.get(slot)
        if primary is not None and primary.address == address:
            del self._primary[slot]
            alternates = self._alternates.get(slot)
            if alternates:
                # Promote the most recently refreshed alternate.
                self._primary[slot] = alternates.pop()
        else:
            alternates = self._alternates.get(slot)
            if alternates:
                for position, alternate in enumerate(alternates):
                    if alternate.address == address:
                        del alternates[position]
                        break

    def rebuild(self, owner: NodeDescriptor) -> List[NodeDescriptor]:
        """Re-seat the table around a new *owner* descriptor.

        Called when the node's own attributes change: every previously known
        descriptor is reclassified against the new coordinates. Returns the
        descriptors that were reinserted (useful for reseeding gossip).
        """
        known = list(self.descriptors())
        self.owner = owner
        self._clear()
        for descriptor in known:
            self.add(descriptor)
        return known

    # -- lookup -----------------------------------------------------------------

    def neighbor(self, level: int, dim: int) -> Optional[NodeDescriptor]:
        """The selected neighbor ``n(level, dim)``, or None (empty cell)."""
        links = self._links
        if links is None:
            return self._primary.get((level, dim))
        pick = links.view[self._row, (level - 1) * self.dimensions + dim, 0]
        return links.flyweights[pick] if pick >= 0 else None

    def alternative(
        self, level: int, dim: int, exclude: Set[Address]
    ) -> Optional[NodeDescriptor]:
        """Another known inhabitant of ``N(level, dim)`` not in *exclude*."""
        links = self._links
        if links is not None:
            view, row = links.view, self._row
            slot = (level - 1) * self.dimensions + dim
            position, pick = 0, view[row, slot, 0]
            while pick >= 0:
                descriptor = links.flyweights[pick]
                if descriptor.address not in exclude:
                    return descriptor
                position += 1
                if position == links.width or (
                    position > self.alternates_per_slot
                ):
                    return None
                pick = view[row, slot, position]
            return None
        primary = self._primary.get((level, dim))
        if primary is not None and primary.address not in exclude:
            return primary
        for descriptor in self._alternates.get((level, dim), ()):
            if descriptor.address not in exclude:
                return descriptor
        return None

    def zero_neighbors(self) -> Iterator[NodeDescriptor]:
        """Iterate over the known members of the owner's C0 cell."""
        if self._links is not None:
            return iter(self._attached_zero())
        return iter(tuple(self._zero.values()))

    def descriptors(self) -> Iterator[NodeDescriptor]:
        """Iterate over every descriptor in the table (all link kinds)."""
        self._promote()
        seen: Set[Address] = set()
        for descriptor in list(self._primary.values()):
            if descriptor.address not in seen:
                seen.add(descriptor.address)
                yield descriptor
        for alternates in list(self._alternates.values()):
            for descriptor in list(alternates):
                if descriptor.address not in seen:
                    seen.add(descriptor.address)
                    yield descriptor
        for descriptor in list(self._zero.values()):
            if descriptor.address not in seen:
                seen.add(descriptor.address)
                yield descriptor

    def filled_slots(self) -> Set[Tuple[int, int]]:
        """The neighboring-cell slots that currently have a primary link."""
        if self._links is not None:
            return {slot for slot, _picks in self._slot_picks()}
        return set(self._primary)

    def total_slots(self) -> int:
        """Number of neighboring-cell slots (``dimensions * max_level``)."""
        return self.dimensions * self.max_level

    def slot_fill_fraction(self) -> float:
        """Fraction of neighboring-cell slots with a primary link.

        Convergence telemetry: approaches the ground-truth satisfiable
        fraction as gossip fills the table, and dips when churn breaks
        links faster than they are repaired.
        """
        total = self.total_slots()
        return len(self.filled_slots()) / total if total else 0.0

    def empty_slots(self) -> Iterator[Tuple[int, int]]:
        """Neighboring-cell slots with no known inhabitant."""
        filled = self.filled_slots()
        for slot in iter_slots(self.dimensions, self.max_level):
            if slot not in filled:
                yield slot

    def link_count(self) -> int:
        """Total number of distinct links, including fallback alternates."""
        if self._links is not None:
            return self.zero_count() + sum(
                len(picks) for _slot, picks in self._slot_picks()
            )
        return len(self._by_address)

    def primary_link_count(self) -> int:
        """Selected links only: one per non-empty slot plus the C0 members.

        This is the link count the paper measures in Fig. 10 — the
        alternates are an implementation extra (fail-over cache), not part
        of the protocol's nominal link state.
        """
        return len(self.filled_slots()) + self.zero_count()

    def zero_count(self) -> int:
        """Number of C0 links."""
        if self._links is not None:
            return len(self._attached_zero())
        return len(self._zero)

    def addresses(self) -> Set[Address]:
        """All addresses present in the table."""
        self._promote()
        return set(self._by_address)

    def bulk_load(self, descriptors: Iterable[NodeDescriptor]) -> None:
        """Insert many descriptors (bootstrap helper)."""
        for descriptor in descriptors:
            self.add(descriptor)
