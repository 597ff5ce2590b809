"""Finite idempotent semirings.

Every kind is a bit-vector kind: an element is an int bitmask, addition is
union and the order is inclusion, so r <= s iff r | s = s.  A product of
bit-vector kinds is one too: its element holds the parts' elements side by
side in one int.  Multiplication is computed structurally on demand and
memoized per instance.
"""

from __future__ import annotations

from typing import Iterable

from .errors import AlphabetCapError, Caps, DEFAULT_CAPS, InputError
from .fa import Alphabet, MonoidMorphism


class Semiring:
    """Finite idempotent semiring of bitmasks.

    Elements are bitmasks of `nbits` bits, added by union and ordered by
    inclusion; the multiplicative monoid distributes over addition.
    """

    nbits: int

    def __init__(self):
        self._mul_memo: dict = {}
        self._omega_memo: dict = {}

    @property
    def zero(self):
        return 0

    def add(self, x, y):
        return x | y

    def sum(self, elems: Iterable):
        out = self.zero
        for e in elems:
            out = self.add(out, e)
        return out

    def log2_size(self) -> float:
        return float(self.nbits)

    @property
    def one(self):
        raise NotImplementedError

    def mul(self, x, y):
        key = (x, y)
        out = self._mul_memo.get(key)
        if out is None:
            out = self._mul_memo[key] = self._mul(x, y)
        return out

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


def _bits(x: int) -> list:
    """Positions of the set bits of x, lowest first."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


# -- concrete kinds -----------------------------------------------------------

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
        ys = _bits(y)
        out = 0
        for i in _bits(x):
            row = mul[i]
            for j in ys:
                out |= 1 << row[j]
        return out

    def singleton(self, m: int) -> int:
        return 1 << m


class RelationSemiring(Semiring):
    """Sets of state pairs over Q x Q; union / relation composition.

    Bit q*|Q|+r encodes the pair (q, r).
    """

    def __init__(self, state_count: int):
        super().__init__()
        self.q = state_count
        self.nbits = state_count * state_count
        self._rowmask = (1 << state_count) - 1
        self._colmask = sum(1 << (i * state_count) for i in range(state_count))
        self._one = sum(1 << (i * state_count + i) for i in range(state_count))

    @property
    def one(self):
        return self._one

    def _mul(self, x, y):
        """Row i of x·y is the union of the rows j of y with (i, j) in x.

        So each nonempty row j of y is copied into the rows that column j of
        x picks: x >> j masked to the column has bit i*|Q| for each picked
        row i, and times the row (below 2^|Q|) it holds one copy of the row
        at each of them, with no carries.
        """
        q = self.q
        rm = self._rowmask
        col = self._colmask
        out = 0
        j = 0
        while y:
            yrow = y & rm
            if yrow:
                out |= (x >> j & col) * yrow
            y >>= q
            j += 1
        return out

    def pair(self, i: int, j: int) -> int:
        return 1 << (i * self.q + j)


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
        ys = _bits(y)
        out = 0
        for b in _bits(x):
            for c in ys:
                out |= 1 << (b | c)
        return out

    def singleton(self, sub_mask: int) -> int:
        return 1 << sub_mask

    def members(self, x: int):
        """The sub-alphabet masks collected in x."""
        return _bits(x)


class ProductSemiring(Semiring):
    """Componentwise product of bit-vector semirings.

    An element is one int holding the parts' elements side by side, the
    first part in the highest bits.  Addition is union and the order is
    inclusion, so an element is its own mask.  A product part contributes
    its own parts, so a product never nests another.
    """

    def __init__(self, parts):
        super().__init__()
        flat = []
        for p in parts:
            if isinstance(p, ProductSemiring):
                flat.extend(p.parts)
            elif isinstance(p, (RelationSemiring, PowersetMonoidSemiring, AlphabetSemiring)):
                flat.append(p)
            else:
                raise InputError(f"cannot pack a {type(p).__name__} into a product: "
                                 "parts must be bit-vector semirings")
        if not flat:
            raise InputError("product of zero semirings")
        self.parts = tuple(flat)
        fields = []
        shift = one = 0
        for p in reversed(flat):
            fields.append((p.mul, shift, (1 << p.nbits) - 1))
            one |= p.one << shift
            shift += p.nbits
        self.nbits = shift
        self._fields = tuple(reversed(fields))
        self._one = one

    @property
    def one(self):
        return self._one

    def pack(self, elems: Iterable[int]) -> int:
        """The element whose parts are elems, in the order of `parts`."""
        out = 0
        for p, a in zip(self.parts, elems):
            out = out << p.nbits | a
        return out

    def unpack(self, x: int) -> tuple:
        """The parts' elements of x, in the order of `parts`."""
        return tuple(x >> shift & m for _, shift, m in self._fields)

    def _mul(self, x, y):
        out = 0
        for mul, shift, m in self._fields:
            out |= mul(x >> shift & m, y >> shift & m) << shift
        return out
