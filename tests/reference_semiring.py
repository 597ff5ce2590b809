"""Reference semirings: the test oracles for the packed product, a semiring
that is not a bit-vector kind, and the axiom check.

regcov used to hold a product element as a tuple of its parts' elements and
to multiply each bit-vector kind by scanning every bit position.  Those
kinds are kept here as they were.  `TupleProductSemiring` is the tuple
product, whose `mask` lays the parts side by side, first part highest: the
layout that `regcov.semiring.ProductSemiring` packs its elements in.

`TableSemiring` is an explicit finite semiring given by its tables.  Its
order is not inclusion, so regcov's products and imprints refuse it.
"""

from __future__ import annotations

import random

from regcov import Alphabet, InputError
from regcov.rating import AlphabetSemiring
from regcov.semiring import PowersetMonoidSemiring, RelationSemiring, Semiring


class ScanRelationSemiring(RelationSemiring):
    """Relation composition over all |Q|² positions."""

    def mul(self, x, y):
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

    def mul(self, x, y):
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

    def __init__(self, alphabet: Alphabet):
        super().__init__(alphabet)
        self.nsub = 1 << len(alphabet)

    def mul(self, x, y):
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
    if isinstance(part, AlphabetSemiring):       # a monoid powerset too
        letters = part.nbits.bit_length() - 1    # nbits = 2^|A|
        return ScanAlphabetSemiring(Alphabet("abcdefghijklmnop"[:letters]))
    if isinstance(part, PowersetMonoidSemiring):
        return ScanPowersetMonoidSemiring(part.monoid)
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

    def mul(self, x, y):
        return tuple(p.mul(a, b) for p, a, b in zip(self.parts, x, y))

    def leq(self, x, y):
        return all(a | b == b for a, b in zip(x, y))

    def mask(self, x):
        """The parts' elements side by side."""
        out = 0
        for p, a in zip(self.parts, x):
            out = out << p.nbits | a
        return out


class TableSemiring(Semiring):
    """Explicit finite semiring given by full addition/multiplication tables."""

    def __init__(self, size: int, add_table, mul_table, zero: int, one: int):
        super().__init__()
        self.size = size
        self._add = tuple(tuple(row) for row in add_table)
        self._mul_table = tuple(tuple(row) for row in mul_table)
        self._zero = zero
        self._one = one
        self.nbits = size

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def add(self, x, y):
        return self._add[x][y]

    def leq(self, x, y):
        return self._add[x][y] == y

    def mul(self, x, y):
        return self._mul_table[x][y]

    def elements(self):
        return range(self.size)

    def mask(self, x):
        """Bitmask of the principal downset of x: an order embedding into
        bitmasks ordered by inclusion."""
        return sum(1 << r for r in range(self.size) if self.leq(r, x))

    @classmethod
    def from_json(cls, doc: dict) -> "TableSemiring":
        try:
            return cls(int(doc["size"]), doc["add"], doc["mul"], int(doc["zero"]), int(doc["one"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad semiring JSON: {exc}") from exc


def validate_semiring(sr: Semiring, elements, exhaustive_limit: int = 512, rng=None, samples: int = 10_000) -> list:
    """Check the semiring axioms over the given elements.

    Exhaustive when len(elements) <= exhaustive_limit, else on sampled
    triples.  Violations are returned as strings.
    """
    elems = list(elements)
    out = []
    zero, one = sr.zero, sr.one

    def check_triple(x, y, z):
        if sr.add(sr.add(x, y), z) != sr.add(x, sr.add(y, z)):
            out.append(f"add not associative at {(x, y, z)}")
        if sr.mul(sr.mul(x, y), z) != sr.mul(x, sr.mul(y, z)):
            out.append(f"mul not associative at {(x, y, z)}")
        if sr.mul(x, sr.add(y, z)) != sr.add(sr.mul(x, y), sr.mul(x, z)):
            out.append(f"left distributivity fails at {(x, y, z)}")
        if sr.mul(sr.add(x, y), z) != sr.add(sr.mul(x, z), sr.mul(y, z)):
            out.append(f"right distributivity fails at {(x, y, z)}")

    for x in elems:
        if sr.add(x, x) != x:
            out.append(f"addition not idempotent at {x}")
        if sr.add(x, zero) != x or sr.add(zero, x) != x:
            out.append(f"zero not neutral at {x}")
        if sr.mul(x, one) != x or sr.mul(one, x) != x:
            out.append(f"one not neutral at {x}")
        if sr.mul(x, zero) != zero or sr.mul(zero, x) != zero:
            out.append(f"zero not absorbing at {x}")
        for y in elems:
            if sr.add(x, y) != sr.add(y, x):
                out.append(f"addition not commutative at {(x, y)}")

    if len(elems) <= exhaustive_limit:
        for x in elems:
            for y in elems:
                for z in elems:
                    check_triple(x, y, z)
                    if out:
                        return out
    else:
        rng = rng or random.Random(0)
        for _ in range(samples):
            check_triple(rng.choice(elems), rng.choice(elems), rng.choice(elems))
            if out:
                return out
    return out
