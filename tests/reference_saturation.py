"""Reference engines that `regcov.saturation` replaced.

All-pairs saturation: the reference for the generator loop, which must give
identical antichains and sweep counts.  regcov used to start every fixpoint
from the full set of word images (or of (monoid image, rating image)
pairs), closed beforehand, and to multiply each new maximum with every
maximum on both sides.  The engines are kept here as they were, with their
class rules, over the same `ImprintSet`; the word closures they start from
are the explicit engine's.

Wide-form generator loops: the reference for the keyed engines.  regcov
used to point Σ1 by the target's transition monoid, and to saturate FO2 and
Σ2 over the alphabet augmentation (`rm_alphabet_augment`), whose elements
carry a 2^|A|-bit set of word alphabets.  `saturate_wide` and
`decide_wide` are those engines and decisions, run by the same generator
loop (`regcov.saturation._saturate`).
"""

from __future__ import annotations

from regcov import (DEFAULT_CAPS, ClassId, ImprintSet, rm_alphabet_augment,
                    rm_from_multiset, transition_monoid)
from regcov.saturation import _against_table, _saturate as generator_loop

from explicit_engine import contents, word_images, word_pairs


def with_content(r: int, sub_mask: int, width: int) -> int:
    """Element of an alphabet-compatible map with r's value and content
    exactly {B}, for the sub-alphabet mask B; `width` is the width of the
    content field."""
    return r >> width << width | 1 << sub_mask


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
        width = 1 << len(rho.alphabet)

        def rule(maxima):
            candidates: dict = {}
            for s in maxima:
                e = sr.idempotent_power(s)
                for bmask in contents(rho, e):
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
    out = ImprintSet(sr, True, cap=DEFAULT_CAPS.max_elements, label=class_id.value)

    if class_id is ClassId.SIGMA1:
        out.insert((alpha.identity, rho.image_of_star((1 << len(rho.alphabet)) - 1)))
        rule = None
    else:
        def rule(maxima):
            added = False
            for (m, r) in maxima:
                if alpha.mul[m][m] != m:
                    continue
                e = sr.idempotent_power(r)
                for bmask in contents(rho, e):
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


# -- the wide forms ------------------------------------------------------------------

def words(rho, alpha=None):
    """(unit, letter images, product) of the word images: rating-set
    elements, or (monoid image, rating image) pairs when `alpha` is given."""
    sr = rho.semiring
    if alpha is None:
        return sr.one, list(rho.letter_image), sr.mul
    mmul = alpha.mul

    def mul(x, y):
        return (mmul[x[0]][y[0]], sr.mul(x[1], y[1]))

    letters = [(alpha.letter_image[a], img) for a, img in zip(rho.alphabet, rho.letter_image)]
    return (alpha.identity, sr.one), letters, mul


def saturate_wide(rho, class_id: ClassId, alpha=None) -> ImprintSet:
    """The generator loop over the wide forms: FO2 over an alphabet
    augmentation, Σ1 pointed by the monoid morphism `alpha`, and Σ2 pointed
    by `alpha` over an alphabet augmentation."""
    sr = rho.semiring
    out = ImprintSet(sr, alpha is not None, cap=DEFAULT_CAPS.max_elements, label=class_id.value)
    one, gens, mul = words(rho, alpha)
    width = 1 << len(rho.alphabet)
    if class_id is ClassId.FO2:
        def rule(maxima):
            candidates: dict = {}   # B -> the idempotents (r^ω, {B})
            for s in maxima:
                e = sr.idempotent_power(s)
                for bmask in contents(rho, e):
                    candidates.setdefault(bmask, set()).add(with_content(e, bmask, width))
            for bmask, idems in candidates.items():
                star = rho.image_of_star(bmask)
                for e in idems:
                    es = sr.mul(e, star)
                    for f in idems:
                        yield sr.mul(es, f)
    elif class_id is ClassId.SIGMA1:
        gens.append((alpha.identity, rho.image_of_star((1 << len(rho.alphabet)) - 1)))
        rule = None
    else:
        def rule(maxima):
            for (m, r) in maxima:
                if alpha.mul[m][m] != m:
                    continue
                e = sr.idempotent_power(r)
                for bmask in contents(rho, e):
                    yield (m, sr.mul(sr.mul(e, rho.image_of_star(bmask)), e))

    generator_loop(out, one, gens, mul, rule)
    return out


def decide_wide(class_id: ClassId, target, against: list) -> tuple:
    """(imprint masks, coverable) of the target against the languages, as
    the wide engines decided them: FO2 over the augmentation of the rating
    map of the target and the languages, Σ1 and Σ2 pointed by the target's
    transition monoid, Σ2 over the augmentation."""
    if class_id is ClassId.FO2:
        ext = rm_alphabet_augment(rm_from_multiset([target] + against))
        imprint = saturate_wide(ext.tau, class_id)
        images = {ext.index_set(r) for r in imprint.maximal_elements()}
        noncov, hit_full = _against_table(images, len(ext.accepts), 0)
        return noncov, not hit_full
    alpha, accepting = transition_monoid(target)
    ext = rm_from_multiset(against)
    if class_id is ClassId.SIGMA2:
        ext = rm_alphabet_augment(ext)
    imprint = saturate_wide(ext.tau, class_id, alpha)
    images = {ext.index_set(r) for m, r in imprint.maximal_elements() if m in accepting}
    noncov, hit_full = _against_table(images, len(ext.accepts), None)
    return noncov, not hit_full
