"""Finite idempotent semirings and rating sets.

Elements are value-encoded (ints for bit-vector kinds, tuples for products);
operations are computed structurally on demand and memoized per instance.
The canonical order is r <= s iff r + s = s.  `mask` embeds every kind into
integer bitmasks ordered by inclusion: bit-vector kinds are their own masks,
products concatenate the masks of their parts, and table elements are
encoded by their principal downsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import AlphabetCapError, Caps, DEFAULT_CAPS, InputError
from .fa import Alphabet, MonoidMorphism


class RatingSet:
    """Finite commutative idempotent monoid (addition only).

    The defaults are those of the bit-vector kinds: elements are bitmasks of
    `nbits` bits, added by union and ordered by inclusion.
    """

    nbits: int

    @property
    def zero(self):
        return 0

    def add(self, x, y):
        return x | y

    def leq(self, x, y) -> bool:
        return x | y == y

    def mask(self, x) -> int:
        """Order embedding into bitmasks: x <= y iff mask(x) | mask(y) == mask(y).

        Bit-vector kinds, whose order is containment, are their own masks.
        """
        return x

    def sum(self, elems: Iterable):
        out = self.zero
        for e in elems:
            out = self.add(out, e)
        return out

    def describe(self) -> str:
        raise NotImplementedError

    def log2_size(self) -> float:
        return float(self.nbits)


class Semiring(RatingSet):
    """Rating set with a multiplicative monoid distributing over addition."""

    def __init__(self):
        self._mul_memo: dict = {}
        self._omega_memo: dict = {}

    @property
    def one(self):
        raise NotImplementedError

    def mul(self, x, y):
        key = (x, y)
        memo = self._mul_memo
        if key not in memo:
            memo[key] = self._mul(x, y)
        return memo[key]

    def _mul(self, x, y):
        raise NotImplementedError

    def idempotent_power(self, s):
        """The unique idempotent among the powers of s."""
        if s in self._omega_memo:
            return self._omega_memo[s]
        seen = {}
        powers = []
        cur = s
        while cur not in seen:
            seen[cur] = len(powers)
            powers.append(cur)
            cur = self.mul(cur, s)
        cycle = powers[seen[cur]:]
        for e in cycle:
            if self.mul(e, e) == e:
                self._omega_memo[s] = e
                return e
        raise AssertionError("no idempotent in power cycle")  # pragma: no cover


# -- concrete kinds -----------------------------------------------------------

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
        self._masks: dict = {}

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

    def _mul(self, x, y):
        return self._mul_table[x][y]

    def elements(self):
        return range(self.size)

    def mask(self, x):
        """Bitmask of the principal downset of x."""
        if x not in self._masks:
            self._masks[x] = sum(1 << r for r in range(self.size) if self.leq(r, x))
        return self._masks[x]

    def describe(self):
        return f"table[{self.size}]"

    def log2_size(self):
        import math
        return math.log2(self.size) if self.size else 0.0

    @classmethod
    def from_json(cls, doc: dict) -> "TableSemiring":
        try:
            return cls(int(doc["size"]), doc["add"], doc["mul"], int(doc["zero"]), int(doc["one"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad semiring JSON: {exc}") from exc


class PowersetMonoidSemiring(Semiring):
    """Subsets of a finite monoid; union / lifted product.

    Elements are bitmasks over the monoid elements; order is inclusion.
    """

    def __init__(self, monoid: MonoidMorphism):
        super().__init__()
        self.monoid = monoid
        self.nbits = monoid.size

    @property
    def one(self):
        return 1 << self.monoid.identity

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

    def singleton(self, m: int) -> int:
        return 1 << m

    def describe(self):
        return f"powerset(monoid[{self.monoid.size}])"


class RelationSemiring(Semiring):
    """Sets of state pairs over Q x Q; union / relation composition.

    Bit q*|Q|+r encodes the pair (q, r).
    """

    def __init__(self, state_count: int):
        super().__init__()
        self.q = state_count
        self.nbits = state_count * state_count
        self._rowmask = (1 << state_count) - 1

    @property
    def one(self):
        return sum(1 << (i * self.q + i) for i in range(self.q))

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

    def pair(self, i: int, j: int) -> int:
        return 1 << (i * self.q + j)

    def pairs_of(self, x: int):
        q = self.q
        return [(i, j) for i in range(q) for j in range(q) if x >> (i * q + j) & 1]

    def describe(self):
        return f"relations({self.q})"


class AlphabetSemiring(Semiring):
    """Sets of sub-alphabets; union / pairwise sub-alphabet union.

    Bit B (a sub-alphabet mask) encodes membership of B in the set; the
    multiplicative unit is {∅}.
    """

    def __init__(self, alphabet: Alphabet, caps: Caps = DEFAULT_CAPS):
        super().__init__()
        if len(alphabet) > caps.max_alphabet_sets:
            raise AlphabetCapError("max_alphabet_sets", caps.max_alphabet_sets,
                                   f"alphabet has {len(alphabet)} symbols")
        self.alphabet = alphabet
        self.nsub = 1 << len(alphabet)
        self.nbits = self.nsub

    @property
    def one(self):
        return 1  # the set {∅}

    def _mul(self, x, y):
        out = 0
        xs = [b for b in range(self.nsub) if x >> b & 1]
        ys = [c for c in range(self.nsub) if y >> c & 1]
        for b in xs:
            for c in ys:
                out |= 1 << (b | c)
        return out

    def singleton(self, sub_mask: int) -> int:
        return 1 << sub_mask

    def members(self, x: int):
        """The sub-alphabet masks collected in x."""
        return [b for b in range(self.nsub) if x >> b & 1]

    def describe(self):
        return f"alphabet-sets({self.alphabet.symbols})"


class ProductSemiring(Semiring):
    """Componentwise product of semirings; elements are tuples."""

    def __init__(self, parts):
        super().__init__()
        parts = tuple(parts)
        if not parts:
            raise InputError("product of zero semirings")
        self.parts = parts
        self.nbits = sum(p.nbits for p in parts)

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

    def describe(self):
        return "x".join(p.describe() for p in self.parts)

    def log2_size(self):
        return sum(p.log2_size() for p in self.parts)


class SubsetLattice(RatingSet):
    """Subsets of a finite index set under union (no multiplication).

    The canonical rating set of a finite language multiset; elements are
    index bitmasks.
    """

    def __init__(self, size: int):
        self.size = size
        self.nbits = size
        self.full = (1 << size) - 1

    def describe(self):
        return f"subsets({self.size})"


# -- morphisms -------------------------------------------------------------------

@dataclass
class SemiringMorphism:
    """Addition-and-zero preserving map between rating sets."""

    source: RatingSet
    target: RatingSet
    fn: object  # callable

    def apply(self, x):
        return self.fn(x)


# -- validation -------------------------------------------------------------------

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
        import random
        rng = rng or random.Random(0)
        for _ in range(samples):
            check_triple(rng.choice(elems), rng.choice(elems), rng.choice(elems))
            if out:
                return out
    return out
