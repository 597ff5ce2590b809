"""All-pairs saturation: the reference for the generator loop of
`regcov.saturation`, which must give identical antichains and sweep counts.

regcov used to start every fixpoint from the full set of word images (or of
(monoid image, rating image) pairs), closed beforehand, and to multiply each
new maximum with every maximum on both sides.  The engines are kept here as
they were, with their class rules, over the same `ImprintSet`; the word
closures they start from are the explicit engine's.
"""

from __future__ import annotations

from regcov import DEFAULT_CAPS, ClassId, ImprintSet
from regcov.rating import with_content
from regcov.semiring import AlphabetSemiring

from explicit_engine import word_images, word_pairs


def saturate_universal(rho, class_id: ClassId) -> ImprintSet:
    """Least class-saturated subset of the rating semiring, all pairs."""
    sr = rho.semiring
    out = ImprintSet(sr, cap=DEFAULT_CAPS.max_elements, label=class_id.value)

    if class_id is ClassId.BSIGMA1:
        for mask in range(1 << len(rho.alphabet)):
            exact = rho.image_of_exact(mask)
            out.insert(sr.idempotent_power(exact))
        rule = None
    elif class_id is ClassId.FO:
        def rule(maxima):
            added = False
            for s in maxima:
                e = sr.idempotent_power(s)
                added |= out.insert(sr.add(e, sr.mul(e, s)))
            return added
    else:
        alph_sr = rho.cont
        assert isinstance(alph_sr, AlphabetSemiring)
        width = alph_sr.nbits

        def rule(maxima):
            candidates: dict = {}
            for s in maxima:
                e = sr.idempotent_power(s)
                for bmask in alph_sr.members(e & (1 << width) - 1):
                    candidates.setdefault(bmask, set()).add(with_content(e, bmask, width))
            added = False
            for bmask, idems in candidates.items():
                star = rho.image_of_star(bmask)
                for e in idems:
                    es = sr.mul(e, star)
                    for f in idems:
                        added |= out.insert(sr.mul(es, f))
            return added

    _saturate(out, word_images(rho), sr.mul, rule)
    return out


def saturate_pointed(alpha, rho, class_id: ClassId) -> ImprintSet:
    """Least class-saturated subset of monoid x rating-semiring pairs, all
    pairs."""
    sr = rho.semiring
    out = ImprintSet(sr, alpha, cap=DEFAULT_CAPS.max_elements, label=class_id.value)

    if class_id is ClassId.SIGMA1:
        out.insert((alpha.identity, rho.image_of_star((1 << len(rho.alphabet)) - 1)))
        rule = None
    else:
        cont = rho.cont
        content = (1 << cont.nbits) - 1

        def rule(maxima):
            added = False
            for (m, r) in maxima:
                if alpha.mul[m][m] != m:
                    continue
                e = sr.idempotent_power(r)
                for bmask in cont.members(e & content):
                    star = rho.image_of_star(bmask)
                    added |= out.insert((m, sr.mul(sr.mul(e, star), e)))
            return added

    def mul(x, y):
        return (alpha.mul[x[0]][y[0]], sr.mul(x[1], y[1]))

    _saturate(out, word_pairs(alpha, rho), mul, rule)
    return out


def _saturate(out: ImprintSet, words, mul, rule):
    """Every newly maximal item is multiplied on both sides with every
    current maximum; the class rule then runs over a snapshot of the maxima,
    until neither adds anything."""
    for item in words:
        out.insert(item)
    while True:
        out.sweeps += 1
        x = out.pop_pending()
        while x is not None:
            for y in out.maximal_elements():
                out.insert(mul(x, y))
                out.insert(mul(y, x))
            x = out.pop_pending()
        if rule is None or not rule(out.maximal_elements()):
            break
