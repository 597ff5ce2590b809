"""Finite idempotent semirings.

Every kind is a bit-vector kind: an element is an int bitmask, addition is
union and the order is inclusion, so r <= s iff r | s = s.  A product of
bit-vector kinds is one too: its element holds the parts' elements side by
side in one int.  Only a product memoizes its products.  The relation kind
keeps the rows of each right factor it meets, and the powerset kind those
of each right factor but a singleton, whose rows are single bits.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InputError
from .fa import MonoidMorphism, _positions


class Semiring:
    """Finite idempotent semiring of bitmasks.

    Elements are bitmasks of `nbits` bits, added by union and ordered by
    inclusion; the multiplicative monoid distributes over addition.
    """

    nbits: int

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

    def idempotent_power(self, s):
        """The unique idempotent among the powers of s."""
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
                return e
        raise AssertionError("no idempotent in power cycle")  # pragma: no cover


# -- concrete kinds -----------------------------------------------------------

class PowersetMonoidSemiring(Semiring):
    """Subsets of a finite monoid; union / lifted product.

    Elements are bitmasks over the monoid elements; order is inclusion.
    """

    def __init__(self, monoid: MonoidMorphism):
        self.monoid = monoid
        self.nbits = monoid.size
        # kept, singletons aside: without it sigma1 `member` on a^600+ runs 10x slower
        self._rows: dict = {}              # y -> {i: the row {i·j : j in y}}

    @property
    def one(self):
        return 1 << self.monoid.identity

    def mul(self, x, y):
        """The union, over the bits i of x, of the rows {i·j : j ∈ y}.

        The row of a singleton y = {j} is the one bit i·j.  The rows of any
        other y are made once per y, the first time they are needed, so a
        right factor met again costs one union per bit of x.  Singletons
        stay out of that table: hash(1 << k) takes only 61 values."""
        mul = self.monoid.mul
        out = 0
        if y & y - 1:
            rows = self._rows.setdefault(y, {})
            for i in _positions(x):
                row = rows.get(i)
                if row is None:
                    row = 0
                    for j in _positions(y):
                        row |= 1 << mul[i][j]
                    rows[i] = row
                out |= row
        elif y:
            j = y.bit_length() - 1
            for i in _positions(x):
                out |= 1 << mul[i][j]
        return out

    def singleton(self, m: int) -> int:
        return 1 << m


class RelationSemiring(Semiring):
    """Sets of state pairs over Q x Q; union / relation composition.

    Bit q*|Q|+r encodes the pair (q, r).
    """

    def __init__(self, state_count: int):
        self.q = state_count
        self.nbits = state_count * state_count
        self._rowmask = (1 << state_count) - 1
        self._colmask = sum(1 << (i * state_count) for i in range(state_count))
        self._one = sum(1 << (i * state_count + i) for i in range(state_count))
        # kept: without it the (7, 1) fo2 member sweep draw runs 2x slower
        self._rows: dict = {}              # y -> its nonempty rows (j, row j)

    @property
    def one(self):
        return self._one

    def mul(self, x, y):
        """Row i of x·y is the union of the rows j of y with (i, j) in x.

        So each nonempty row j of y is copied into the rows that column j of
        x picks: x >> j masked to the column has bit i*|Q| for each picked
        row i, and times the row (below 2^|Q|) it holds one copy of the row
        at each of them, with no carries.  The nonempty rows of a right
        factor are listed once, the first time it is met.
        """
        rows = self._rows.get(y)
        if rows is None:
            q, rm = self.q, self._rowmask
            rows = self._rows[y] = [(j, y >> j * q & rm) for j in range(q) if y >> j * q & rm]
        col = self._colmask
        out = 0
        for j, yrow in rows:
            out |= (x >> j & col) * yrow
        return out

    def pair(self, i: int, j: int) -> int:
        return 1 << (i * self.q + j)


class ProductSemiring(Semiring):
    """Componentwise product of bit-vector semirings.

    An element is one int holding the parts' elements side by side, the
    first part in the highest bits.  Addition is union and the order is
    inclusion, so an element is its own mask.  A product part contributes
    its own parts, so a product never nests another.
    """

    def __init__(self, parts):
        flat = []
        for p in parts:
            if isinstance(p, ProductSemiring):
                flat.extend(p.parts)
            elif isinstance(p, (RelationSemiring, PowersetMonoidSemiring)):
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
        # kept: without it the (7, 6) sigma2 member sweep draw runs 2.9x slower
        self._memo: dict = {}              # (x, y) -> x·y

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

    def mul(self, x, y):
        """Part by part, memoized: the one memo of products."""
        key = (x, y)
        out = self._memo.get(key)
        if out is None:
            out = 0
            for mul, shift, m in self._fields:
                out |= mul(x >> shift & m, y >> shift & m) << shift
            self._memo[key] = out
        return out
