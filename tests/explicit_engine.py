"""Explicit downset engine: the test oracle for the antichain imprints.

This is the saturation engine regcov used before imprints were stored as
antichains.  It keeps every member of the downward-closed set, downset
included, and applies every rule to every member, so it needs no argument
that maxima suffice.  It is exponential in the semiring width and only fit
for small instances.
"""

from __future__ import annotations

from collections import deque

from regcov import DEFAULT_CAPS, ClassId, ImprintSet
from regcov.semiring import AlphabetSemiring, TableSemiring
from regcov.saturation import _pair_monoid

CAP = 2_000_000
CAPS = DEFAULT_CAPS.with_overrides(max_elements=CAP)


def submasks(x: int):
    """All submasks of x, including 0 and x."""
    sub = x
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & x


def downset(sr, x):
    """Every element below x: the submasks of x, except for table kinds,
    whose order is not containment.  A product element is its own mask."""
    if isinstance(sr, TableSemiring):
        return (r for r in range(sr.size) if sr.leq(r, x))
    return submasks(x)


def members(imprint: ImprintSet) -> set:
    """Every item of an antichain imprint, downsets enumerated."""
    sr = imprint.semiring
    out = set()
    for item in imprint.maximal_elements():
        if imprint.monoid is None:
            out.update(downset(sr, item))
        else:
            m, r = item
            out.update((m, r2) for r2 in downset(sr, r))
    return out


class ExplicitImprint:
    """Downward-closed set of items (elements, or (monoid, element) pairs
    when pointed) with every member stored."""

    def __init__(self, semiring, pointed: bool = False, lifo: bool = False):
        self.semiring = semiring
        self.pointed = pointed
        self.lifo = lifo
        self.members: set = set()
        self.tops: list = []
        self.queue: deque = deque()

    def pop_pending(self):
        return self.queue.pop() if self.lifo else self.queue.popleft()

    def insert(self, item) -> bool:
        if item in self.members:
            return False
        if self.pointed:
            m, r = item
            below = ((m, r2) for r2 in downset(self.semiring, r))
        else:
            below = downset(self.semiring, item)
        self.members.add(item)
        self.members.update(below)
        if len(self.members) > CAP:
            raise AssertionError("explicit oracle outgrew its cap; use a smaller instance")
        self.tops.append(item)
        self.queue.append(item)
        return True

    def maximal_elements(self) -> set:
        """Maximal members, computed over the tops (every member is below one)."""
        sr = self.semiring
        fibers: dict = {}
        for item in set(self.tops):
            key, r = item if self.pointed else (None, item)
            keep = fibers.setdefault(key, [])
            if not any(sr.leq(r, k) for k in keep):
                keep[:] = [k for k in keep if not sr.leq(k, r)] + [r]
        return {(key, r) if self.pointed else r for key, rs in fibers.items() for r in rs}


def same_imprint(explicit: ExplicitImprint, imprint: ImprintSet) -> bool:
    """Both downsets are equal: a downset is determined by its maxima."""
    return (imprint.monoid is not None) == explicit.pointed and \
        explicit.maximal_elements() == set(imprint.maximal_elements())


def saturate_universal(rho, class_id: ClassId, lifo: bool = False) -> ExplicitImprint:
    """Least class-saturated subset of the rating semiring, member by member."""
    sr = rho.semiring
    out = ExplicitImprint(sr, lifo=lifo)
    for w in rho.word_image_monoid():
        out.insert(w)

    if class_id is ClassId.BSIGMA1:
        for mask in range(1 << len(rho.alphabet)):
            exact = rho.image_of_exact(rho.alphabet.from_mask(mask))
            out.insert(sr.idempotent_power(exact))

    def fo_rule(snapshot):
        added = False
        for s in snapshot:
            e = sr.idempotent_power(s)
            added |= out.insert(sr.add(e, sr.mul(e, s)))
        return added

    def fo2_rule(snapshot):
        cont = rho.cont
        alph_sr = cont.target
        assert isinstance(alph_sr, AlphabetSemiring)
        groups: dict = {}
        for s in snapshot:
            if sr.mul(s, s) != s:
                continue
            found = alph_sr.members(cont.apply(s))
            if len(found) == 1:
                groups.setdefault(found[0], []).append(s)
        added = False
        for bmask, idems in groups.items():
            star = rho.image_of_star(rho.alphabet.from_mask(bmask))
            for e in idems:
                for f in idems:
                    added |= out.insert(sr.mul(sr.mul(e, star), f))
        return added

    rule = {ClassId.BSIGMA1: None, ClassId.FO: fo_rule, ClassId.FO2: fo2_rule}[class_id]
    while True:
        while out.queue:
            x = out.pop_pending()
            for y in list(out.tops):
                out.insert(sr.mul(x, y))
                out.insert(sr.mul(y, x))
        if rule is None or not rule(list(out.members)):
            if not out.queue:
                break
    return out


def saturate_pointed(alpha, rho, class_id: ClassId, lifo: bool = False) -> ExplicitImprint:
    """Least class-saturated subset of monoid x rating-semiring pairs."""
    sr = rho.semiring
    out = ExplicitImprint(sr, pointed=True, lifo=lifo)
    for pair in _pair_monoid(alpha, rho, CAPS):
        out.insert(pair)

    if class_id is ClassId.SIGMA1:
        out.insert((alpha.identity, rho.image_of_star(rho.alphabet.symbols)))
        rule = None
    else:
        def rule(snapshot):
            cont = rho.cont
            added = False
            for (m, r) in snapshot:
                if alpha.mul[m][m] != m or sr.mul(r, r) != r:
                    continue
                for bmask in cont.target.members(cont.apply(r)):
                    star = rho.image_of_star(rho.alphabet.from_mask(bmask))
                    added |= out.insert((m, sr.mul(sr.mul(r, star), r)))
            return added

    while True:
        while out.queue:
            (m1, r1) = out.pop_pending()
            for (m2, r2) in list(out.tops):
                out.insert((alpha.mul[m1][m2], sr.mul(r1, r2)))
                out.insert((alpha.mul[m2][m1], sr.mul(r2, r1)))
        if rule is None or not rule(list(out.members)):
            if not out.queue:
                break
    return out


def at_imprint(rho) -> ExplicitImprint:
    """Universal alphabet-testable imprint: the atom images, downsets included."""
    out = ExplicitImprint(rho.semiring)
    out.insert(rho.semiring.zero)
    for mask in range(1 << len(rho.alphabet)):
        out.insert(rho.image_of_exact(rho.alphabet.from_mask(mask)))
    return out


def fo2_language_sums(rho, subset) -> frozenset:
    """Images of the nonempty languages over B*: every nonempty sum of word
    images over B, closed in full.  This is the closure the FO2 synthesis
    used before it took sums per maximum of the saturated set."""
    sr = rho.semiring
    gens = [rho.letter_image[a] for a in subset]
    words = {sr.one}
    work = [sr.one]
    while work:
        e = work.pop()
        for g in gens:
            x = sr.mul(e, g)
            if x not in words:
                words.add(x)
                work.append(x)
    sums = set(words)
    work = list(words)
    while work:
        e = work.pop()
        for w in words:
            x = sr.add(e, w)
            if x not in sums:
                sums.add(x)
                work.append(x)
    return frozenset(sums)
