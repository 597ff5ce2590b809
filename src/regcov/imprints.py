"""Downward-closed element sets over rating semirings, stored as antichains.

An imprint is a downward-closed subset of a finite rating set, so its
maximal elements determine it.  `ImprintSet` keeps only those maxima: `r in
imprint` means "r lies below some maximal element", and inserting an element
drops the maxima it dominates.  Keyed imprints (subsets of K x R for a
finite set K, downward closed in the R component only) are the same
structure, one fiber per discrete key: a target DFA state, a content mask,
or a monoid element paired with a content mask.

A rating-set element is an int bitmask ordered by inclusion, so `x <= m` is
`x | m == m`.  The element cap counts maxima.
"""

from __future__ import annotations

from collections import deque

from .errors import DEFAULT_CAPS, SaturationCapError
from .semiring import Semiring


class ImprintSet:
    """Downward-closed subset of a rating set, or of key x rating-set pairs
    when `keyed`, held as its antichain of maximal elements.

    Items are rating-set elements, or (key, rating-set element) pairs when
    keyed; a key is any hashable value, and items of distinct keys are
    incomparable.  A set produced by the saturation engines contains the
    trivial imprint, and is a multiplicative submonoid unless keyed by a
    DFA state.

    The set only grows, so an item offered before is refused at once,
    before the scan: it is in the set since its first offer.
    """

    def __init__(self, semiring: Semiring, keyed: bool = False,
                 cap: int = DEFAULT_CAPS.max_elements, label: str = "imprint"):
        self.semiring = semiring
        self.keyed = keyed
        self.cap = cap
        self.label = label
        self._fibers: dict = {}   # key (None when not keyed) -> {element: item}
        # kept: without it the (7, 1) fo2 member sweep draw runs 2.8x slower
        self._offered: set = set()  # every item ever offered to `insert`
        self._count = 0
        self.queue: deque = deque()
        self.sweeps = 0

    def __contains__(self, item) -> bool:
        key, x = item if self.keyed else (None, item)
        return any(x | m == m for m in self._fibers.get(key, ()))

    def __len__(self) -> int:
        """Number of maximal elements."""
        return self._count

    def insert(self, item) -> bool:
        """Add item unless it is dominated; True if it became maximal."""
        if item in self._offered:
            return False
        self._offered.add(item)
        key, x = item if self.keyed else (None, item)
        fiber = self._fibers.setdefault(key, {})
        below = []
        for m in fiber:
            if x | m == m:
                return False
            if x | m == x:
                below.append(m)
        for m in below:
            del fiber[m]
        fiber[x] = item
        self._count += 1 - len(below)
        if self._count > self.cap:
            raise SaturationCapError(self.cap, self.label, f"{self._count} maximal elements")
        self.queue.append((key, x, item))
        return True

    def is_maximal(self, item) -> bool:
        """True if item is one of the maximal items now."""
        key, x = item if self.keyed else (None, item)
        return x in self._fibers.get(key, ())

    def pop_pending(self):
        """Next inserted item still maximal, or None when none is pending.

        An item dropped since its insertion needs no processing: the item
        that dominates it was queued when it was inserted.
        """
        queue = self.queue
        while queue:
            key, x, item = queue.popleft()
            if x in self._fibers[key]:
                return item
        return None

    def maximal_elements(self) -> list:
        """The antichain of maximal items."""
        return [item for fiber in self._fibers.values() for item in fiber.values()]

    def _antichain(self) -> dict:
        return {key: set(fiber) for key, fiber in self._fibers.items() if fiber}

    def __eq__(self, other):
        """Equal downsets; the antichain of a downset is unique."""
        return (isinstance(other, ImprintSet) and self.keyed == other.keyed
                and self._antichain() == other._antichain())
