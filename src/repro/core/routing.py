"""Per-node routing state: neighboring-cell links and the C0 member list.

Section 4.1: each node keeps (i) ``neighborsZero`` — links to every other
node in its own lowest-level cell ``C0(X)`` — and (ii) for every level
``l >= 1`` and dimension ``k``, one link ``n(l,k)(X)`` to some node in the
neighboring cell ``N(l,k)(X)``, when that cell is non-empty.

Beyond the single selected neighbor per slot, the table retains a small set
of *alternates* per slot (other known inhabitants of the same cell). These
serve two purposes: fail-over when a forwarded query times out (Section 4.3,
the timeout T(q)), and candidate material for the gossip selection function.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.cells import Slot, ZERO_SLOT, iter_slots, slot_of
from repro.core.descriptors import Address, NodeDescriptor

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
        self._primary: Dict[Tuple[int, int], NodeDescriptor] = {}
        # Per-slot fail-over candidates in least-recently-refreshed order
        # (index 0 = oldest). Lists, not dicts: a slot holds at most
        # ``alternates_per_slot`` entries, so the linear scans stay trivial
        # while each populated slot sheds a ~184-byte dict.
        self._alternates: Dict[Tuple[int, int], List[NodeDescriptor]] = {}
        self._zero: Dict[Address, NodeDescriptor] = {}
        # Address-keyed shadow of the whole table. Keeps membership tests
        # and descriptor lookup O(1) — hot paths during bootstrap and in
        # the gossip layer. Stores the descriptor only; the slot is
        # recomputed by :meth:`classify` on the rare paths that need it
        # (a per-link ``(slot, descriptor)`` tuple costs ~56 bytes, and
        # with ~60+ links per node that tuple dominated table memory).
        self._by_address: Dict[Address, NodeDescriptor] = {}

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
        slot = self.classify(descriptor)
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
            # one — purge the stale copy before inserting.
            self.remove(address)
        if slot == ZERO_SLOT:
            if (
                self.zero_capacity is not None
                and len(self._zero) >= self.zero_capacity
            ):
                return False
            self._zero[address] = descriptor
            self._by_address[address] = descriptor
            return True
        primary = self._primary.get(slot)
        if primary is None:
            self._primary[slot] = descriptor
            self._by_address[address] = descriptor
            return True
        alternates = self._alternates.setdefault(slot, [])
        if len(alternates) >= self.alternates_per_slot:
            if self.alternates_per_slot <= 0:
                return False
            # Deterministic LRU eviction: drop the least recently
            # refreshed alternate (list order = refresh order).
            evicted = alternates.pop(0)
            self._by_address.pop(evicted.address, None)
        alternates.append(descriptor)
        self._by_address[address] = descriptor
        return True

    def seed_zero(self, descriptors: Iterable[NodeDescriptor]) -> None:
        """Bulk-install C0 members during bootstrap.

        The caller guarantees every descriptor shares the owner's
        lowest-level cell (the bootstrap invariant, verified by the
        deployment tests); that lets this path skip classification, which
        dominates bootstrap cost at scale. Self and already-known
        addresses are skipped; ``zero_capacity`` is respected.
        """
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

    def seed_slots(
        self,
        slot_buckets: Iterable[
            Tuple[int, int, Sequence[NodeDescriptor], int]
        ],
        rng: "random.Random",
    ) -> None:
        """Sample and install neighbors for many slots in one call.

        Each element of *slot_buckets* is ``(level, dim, bucket, picks)``:
        *picks* members of *bucket* are drawn without replacement using
        *rng*; the first draw becomes the slot's selected neighbor and
        the rest are retained as alternates up to ``alternates_per_slot``
        (callers cap ``picks`` at ``1 + alternates_per_slot``). Fusing
        the sampling with the install avoids both ``random.sample``'s
        per-call machinery and one Python frame per slot — together the
        dominant cost of bootstrapping a 100,000-node overlay.

        This is a *bootstrap-only* fast path with two hard preconditions,
        both structural properties of the hypercube cell geometry:

        - every bucket member lies in its slot's cell (so classification
          is skipped), and
        - the buckets are pairwise disjoint and contain neither the
          owner nor any C0 member already installed by
          :meth:`seed_zero` — each differs from the owner's cell
          coordinates at its own (level, dim) bit, so no address can
          arrive twice and the per-descriptor known/self guards the
          general :meth:`add` path needs are dropped here. Both
          bucket derivations are held to this by a property test over
          random geometries and populations
          (``tests/sim/test_bootstrap_buckets.py``).

        Indices come from ``int(rng.random() * count)`` — one C-level
        draw each — rather than ``_randbelow``'s Python retry loop. The
        truncation bias is < count/2**53, irrelevant at any population
        this simulator holds, and the bootstrap's determinism contract
        is a *shared stream*, not a particular one: every engine seeds
        through this method, so sharded and single-process runs stay
        bit-identical to each other.
        """
        by_address = self._by_address
        primary = self._primary
        alternates_map = self._alternates
        cap = self.alternates_per_slot
        random = rng.random
        shuffle = rng.shuffle
        for level, dim, bucket, picks in slot_buckets:
            count = len(bucket)
            if picks == 1:
                descriptor = bucket[int(random() * count)]
                primary[(level, dim)] = descriptor
                by_address[descriptor.address] = descriptor
                continue
            if picks >= count:
                chosen = list(bucket)
                shuffle(chosen)
            else:
                indices: Dict[int, None] = {}
                while len(indices) < picks:
                    indices[int(random() * count)] = None
                chosen = [bucket[i] for i in indices]
            slot = (level, dim)
            descriptor = chosen[0]
            primary[slot] = descriptor
            by_address[descriptor.address] = descriptor
            rest = chosen[1 : 1 + cap]
            if rest:
                alternates_map[slot] = rest
                for descriptor in rest:
                    by_address[descriptor.address] = descriptor

    def _locate(self, address: Address) -> Optional[Slot]:
        """The slot currently holding *address*, or None if unknown."""
        entry = self._by_address.get(address)
        return self.classify(entry) if entry is not None else None

    def get(self, address: Address) -> Optional[NodeDescriptor]:
        """The stored descriptor for *address*, or None if unknown."""
        return self._by_address.get(address)

    def remove(self, address: Address) -> None:
        """Drop every link to *address*, promoting an alternate if needed."""
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
        self._primary.clear()
        self._alternates.clear()
        self._zero.clear()
        self._by_address.clear()
        for descriptor in known:
            self.add(descriptor)
        return known

    # -- lookup -----------------------------------------------------------------

    def neighbor(self, level: int, dim: int) -> Optional[NodeDescriptor]:
        """The selected neighbor ``n(level, dim)``, or None (empty cell)."""
        return self._primary.get((level, dim))

    def alternative(
        self, level: int, dim: int, exclude: Set[Address]
    ) -> Optional[NodeDescriptor]:
        """Another known inhabitant of ``N(level, dim)`` not in *exclude*."""
        primary = self._primary.get((level, dim))
        if primary is not None and primary.address not in exclude:
            return primary
        for descriptor in self._alternates.get((level, dim), ()):
            if descriptor.address not in exclude:
                return descriptor
        return None

    def zero_neighbors(self) -> Iterator[NodeDescriptor]:
        """Iterate over the known members of the owner's C0 cell."""
        return iter(tuple(self._zero.values()))

    def descriptors(self) -> Iterator[NodeDescriptor]:
        """Iterate over every descriptor in the table (all link kinds)."""
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
        return len(self._primary) / total if total else 0.0

    def empty_slots(self) -> Iterator[Tuple[int, int]]:
        """Neighboring-cell slots with no known inhabitant."""
        for slot in iter_slots(self.dimensions, self.max_level):
            if slot not in self._primary:
                yield slot

    def link_count(self) -> int:
        """Total number of distinct links, including fallback alternates."""
        return len(self._by_address)

    def primary_link_count(self) -> int:
        """Selected links only: one per non-empty slot plus the C0 members.

        This is the link count the paper measures in Fig. 10 — the
        alternates are an implementation extra (fail-over cache), not part
        of the protocol's nominal link state.
        """
        return len(self._primary) + len(self._zero)

    def zero_count(self) -> int:
        """Number of C0 links."""
        return len(self._zero)

    def addresses(self) -> Set[Address]:
        """All addresses present in the table."""
        return set(self._by_address)

    def bulk_load(self, descriptors: Iterable[NodeDescriptor]) -> None:
        """Insert many descriptors (bootstrap helper)."""
        for descriptor in descriptors:
            self.add(descriptor)
