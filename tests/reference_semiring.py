"""Reference semiring kernels: the test oracle for the packed product.

regcov used to hold a product element as a tuple of its parts' elements and
to multiply each bit-vector kind by scanning every bit position.  Those
kinds are kept here as they were.  `TupleProductSemiring` is the tuple
product, whose `mask` lays the parts side by side, first part highest: the
layout that `regcov.semiring.ProductSemiring` packs its elements in.
"""

from __future__ import annotations

from regcov.semiring import (AlphabetSemiring, PowersetMonoidSemiring,
                             RelationSemiring, Semiring)


class ScanRelationSemiring(RelationSemiring):
    """Relation composition over all |Q|² positions."""

    def _mul(self, x, y):
        q = self.q
        rm = self._rowmask
        out = 0
        for i in range(q):
            xrow = (x >> (i * q)) & rm
            if not xrow:
                continue
            orow = 0
            for j in range(q):
                if xrow >> j & 1:
                    orow |= (y >> (j * q)) & rm
            out |= orow << (i * q)
        return out


class ScanPowersetMonoidSemiring(PowersetMonoidSemiring):
    """Lifted product found by scanning every monoid element."""

    def _mul(self, x, y):
        mul = self.monoid.mul
        out = 0
        xs = [i for i in range(self.nbits) if x >> i & 1]
        ys = [j for j in range(self.nbits) if y >> j & 1]
        for i in xs:
            row = mul[i]
            for j in ys:
                out |= 1 << row[j]
        return out


class ScanAlphabetSemiring(AlphabetSemiring):
    """Pairwise unions found by scanning every sub-alphabet."""

    def _mul(self, x, y):
        out = 0
        xs = [b for b in range(self.nsub) if x >> b & 1]
        ys = [c for c in range(self.nsub) if y >> c & 1]
        for b in xs:
            for c in ys:
                out |= 1 << (b | c)
        return out


def scan_twin(part: Semiring) -> Semiring:
    """The scanning kind with the same elements as a bit-vector part."""
    if isinstance(part, RelationSemiring):
        return ScanRelationSemiring(part.q)
    if isinstance(part, PowersetMonoidSemiring):
        return ScanPowersetMonoidSemiring(part.monoid)
    if isinstance(part, AlphabetSemiring):
        return ScanAlphabetSemiring(part.alphabet)
    raise TypeError(f"no scanning twin for {type(part).__name__}")


class TupleProductSemiring(Semiring):
    """Componentwise product of semirings; elements are tuples."""

    def __init__(self, parts):
        super().__init__()
        self.parts = tuple(parts)
        self.nbits = sum(p.nbits for p in self.parts)

    @property
    def zero(self):
        return tuple(p.zero for p in self.parts)

    @property
    def one(self):
        return tuple(p.one for p in self.parts)

    def add(self, x, y):
        return tuple(p.add(a, b) for p, a, b in zip(self.parts, x, y))

    def _mul(self, x, y):
        return tuple(p.mul(a, b) for p, a, b in zip(self.parts, x, y))

    def leq(self, x, y):
        return all(p.leq(a, b) for p, a, b in zip(self.parts, x, y))

    def mask(self, x):
        """The parts' masks side by side."""
        out = 0
        for p, a in zip(self.parts, x):
            out = out << p.nbits | p.mask(a)
        return out
