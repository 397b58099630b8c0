"""Int-packed ready heaps for the vector core.

The object schedulers keep a lazy min-heap of ``(priority_key, epoch,
Warp)`` tuples.  Heap order is entirely determined by the key (keys end in
the unique ``(cta.seq, warp.idx)`` pair, so ties never reach the epoch or
the Warp), which means the whole entry can be collapsed into one machine
integer whose numeric order equals the tuple's lexicographic order::

    entry = key << SLOT_BITS | slot

with ``key`` the policy priority packed most-significant-field-first:

=============  =========================================================
policy         key layout (most significant first)
=============  =========================================================
``lrr``        ``(last_issue + 1) << AGE_BITS | age``
``gto``        ``age``                      (static per warp)
``baws``       ``block_seq << (LI_BITS + AGE_BITS)
               | (last_issue + 1) << AGE_BITS | age``
``two-level``  ``outside << (LI_BITS + AGE_BITS)
               | (last_issue + 1) << AGE_BITS | age``
``swl``        ``outside << AGE_BITS | age``
=============  =========================================================

where ``age = cta.seq << IDX_BITS | warp.idx`` is the packed form of the
object core's ``age_key`` tuple and ``last_issue + 1`` keeps the initial
``-1`` non-negative.  The *top* field of each layout may exceed its
nominal width without breaking order (Python ints are unbounded and
nothing above it exists to collide with); every *inner* field is
width-guarded at dispatch (:data:`MAX_CTA_SEQ`, :data:`MAX_WARP_IDX`) or
at construction (``max_cycles`` vs :data:`MAX_LAST_ISSUE`).

``outside`` is 1 when the slot is not in its scheduler's member set at
push time (two-level's active set, swl's admitted warps) and 0 when it
is: the packed form of the object keys' leading ``warp not in members``
bool.  Like the object key it is a snapshot — a later membership change
does not re-key an entry already in the heap.

Staleness without epochs
------------------------
Under every kind every READY warp has at most one live heap entry (a
warp leaves READY only by issuing, and issuing pops its entry or consumes
the entry-less greedy pointer), so an entry is valid exactly when its
warp is READY *and* its key equals the warp's most recently pushed key
(the ``entry_key`` column).  That replaces the object core's
``epoch`` attribute with one list compare.
"""

from __future__ import annotations

#: Bits for the warp index inside ``age`` (warps_per_cta <= 128 —
#: far above any real occupancy limit).
IDX_BITS = 7
#: Bits for the packed ``age`` field: ``cta.seq << IDX_BITS | warp.idx``.
AGE_BITS = 31
#: Bits reserved for ``last_issue + 1`` when it sits *below* another field
#: (baws puts ``block_seq`` above it, two-level the ``outside`` bit).
#: 2**36 cycles is far beyond any configured ``max_cycles``; guarded at
#: VectorGPU construction.
LI_BITS = 36
#: Bits for the slot id appended below the key.
SLOT_BITS = 21

SLOT_MASK = (1 << SLOT_BITS) - 1

#: Capacity limits implied by the field widths above.
MAX_WARP_IDX = 1 << IDX_BITS
MAX_CTA_SEQ = 1 << (AGE_BITS - IDX_BITS)
MAX_SLOTS = 1 << SLOT_BITS
MAX_LAST_ISSUE = (1 << LI_BITS) - 2

#: Scheduler-kind codes (``VectorSM._kind``).
KIND_LRR = 0
KIND_GTO = 1
KIND_BAWS = 2
KIND_TWO_LEVEL = 3
KIND_SWL = 4

KIND_BY_NAME = {"lrr": KIND_LRR, "gto": KIND_GTO, "baws": KIND_BAWS,
                "two-level": KIND_TWO_LEVEL, "swl": KIND_SWL}

#: Greedy pointer semantics per kind (mirrors ``WarpScheduler.greedy``).
GREEDY_KINDS = frozenset({KIND_GTO, KIND_BAWS, KIND_SWL})

#: Mirrors ``WarpScheduler.SCAN_LIMIT`` — candidates examined per pick
#: when the LD/ST queue is full.
SCAN_LIMIT = 6


class VecScheduler:
    """One issue slot's scheduler state: an int heap + greedy slot, plus
    the member set of the two membership kinds."""

    __slots__ = ("heap", "greedy_slot", "members", "limit")

    def __init__(self, limit: int = 0) -> None:
        self.heap: list[int] = []
        #: Slot id of the greedy warp, or -1 (mirrors ``_greedy_warp``).
        self.greedy_slot = -1
        #: two-level's active set / swl's admitted warps, as slot ids in
        #: insertion order (mirrors ``_active`` / ``_members``).
        self.members: dict[int, None] = {}
        #: Member-set capacity: ``ACTIVE_SET_SIZE`` or ``warp_limit``.
        self.limit = limit

    @property
    def pending_entries(self) -> int:
        """Heap size, stale entries included (tests/diagnostics)."""
        return len(self.heap)
