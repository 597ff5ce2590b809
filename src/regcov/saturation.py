"""Least-fixpoint engines for optimal imprints.

The universal engine closes a subset of the rating semiring under downset,
multiplication and one class-specific rule; the pointed engine does the same
over monoid/semiring pairs.  Both contain the trivial imprint (the word
images, downset-closed) and are monotone, so the least fixpoint is
independent of scheduling.

Both run one loop over the antichain of maximal elements (`ImprintSet`);
no rule ever looks below a maximum.  This is complete because products are
monotone in both arguments and so is the idempotent power: s <= t implies
s^n <= t^n for every n, and s^ω = s^N, t^ω = t^N for any N that is a large
enough common multiple of both idempotent exponents, so s^ω <= t^ω.

- Multiplication, by generators.  Let G hold the letter images, the seeds
  (the BΣ1 idempotents, Σ1's (1, ρ(A*))) and every rule output that became
  maximal, and ⟨G⟩ the submonoid it generates.  ↓⟨G⟩ is closed under
  products: x <= a and y <= b with a, b in ⟨G⟩ give xy <= ab, which lies
  in ⟨G⟩.  Every downset that holds G and is closed under products holds
  ↓⟨G⟩, so ↓⟨G⟩ is the least one.  A rule output h that is dominated when
  inserted lies in ↓⟨G⟩ already, so ⟨G ∪ {h}⟩ lies in ↓⟨G⟩ and h need not
  join G.  ⟨G⟩ is the right closure of the unit under G, as in the
  Froidure–Pin enumeration of `fa.transition_monoid`: every element is
  1·g1···gk.  So the loop inserts the unit and multiplies each new maximum
  x by every g in G, and, when h joins G, every maximum from before by h.
  That stays on maxima: if p <= x then p·g <= x·g.  At the end every
  maximum x has x·g below a maximum for each g in G, and so has the unit,
  so by induction on k every 1·g1···gk lies below a maximum.  That is
  O(N·|G|) products for N maxima, against O(N²) for multiplying every pair
  of maxima.  Three shortcuts keep the same fixpoint:
  (a) `ImprintSet.insert` refuses an item offered before at once: the set
      only grows, so the item is still in it.
  (b) Only the rule outputs still maximal after the round join G; a later
      output of the round can dominate an earlier one.  Every maximum lies
      in ⟨G⟩ or is an output of the round, so once the outputs still
      maximal have joined G, each maximum lies in ⟨G⟩, and a dropped
      output h, below one of them, in ↓⟨G⟩: ⟨G ∪ {h}⟩ lies in ↓⟨G⟩ as
      above.
  (c) A maximum from before the round that was dropped since is not
      multiplied by the new generators.  It lies below a later maximum,
      and following such dominations upward ends at an item that is
      multiplied by every new generator h: a maximum from before, here,
      or a new item, when it is popped, as G then holds h.  Products are
      monotone, so that item's product dominates the skipped one.
- FO (e + e·s with e = s^ω): the right-hand side is monotone in s, so the
  rule over the maxima dominates the rule over the whole set.
- FO2 (e·B*·f for idempotents e, f of content exactly {B}): let (r, C) be
  maximal, with content C, and (r^ω, D) its idempotent power, which lies in
  the fixpoint by multiplicative closure.  For B ∈ D the pair (r^ω, {B}) is
  below (r^ω, D), hence in the fixpoint, and it is an idempotent of content
  {B}.  Any idempotent e = (x, {B}) of the fixpoint lies below some maximum
  (r, C); then e = e^ω <= (r^ω, D), so x <= r^ω and B ∈ D, i.e. e lies below
  the candidate (r^ω, {B}).  The rule is monotone in e and f, so ranging
  over pairs of candidates is complete, and every candidate pair is a real
  instance of the rule.
- Σ2 ((m, r·B*·r) for idempotent m and r, B ∈ cont(r)): for a maximal
  (m, r) with m idempotent, (m, r)^k = (m, r^k), so (m, r^ω) lies in the
  fixpoint.  Any idempotent (m, s) below (m, r) has s = s^ω <= r^ω and
  cont(s) ⊆ cont(r^ω), so (m, r^ω) with every B in cont(r^ω) dominates it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import Caps, DEFAULT_CAPS, InputError
from .fa import MonoidMorphism
from .imprints import ImprintSet
from .rating import Extension, RatingMap, rm_alphabet_augment, with_content


class ClassId(enum.Enum):
    AT = "at"
    SIGMA1 = "sigma1"
    BSIGMA1 = "bsigma1"
    SIGMA2 = "sigma2"
    FO2 = "fo2"
    FO = "fo"

    @property
    def pointed(self) -> bool:
        return self in (ClassId.SIGMA1, ClassId.SIGMA2)

    @property
    def synthesizable(self) -> bool:
        return self in (ClassId.AT, ClassId.SIGMA1, ClassId.BSIGMA1, ClassId.FO2)

    @classmethod
    def parse(cls, name: str) -> "ClassId":
        try:
            return cls(name.lower())
        except ValueError:
            raise InputError(f"unknown class {name!r}; expected one of "
                             f"{', '.join(c.value for c in cls)}") from None


# -- word images ---------------------------------------------------------------

def _words(rho: RatingMap, alpha: Optional[MonoidMorphism]):
    """(unit, letter images, product) of the word images: rating-set
    elements, or (monoid image, rating image) pairs when `alpha` is given."""
    sr = rho.semiring
    if alpha is None:
        return sr.one, list(rho.letter_image), sr.mul
    if set(alpha.letter_image) != set(rho.alphabet.symbols):
        raise InputError("morphism and rating map alphabets differ")
    mmul = alpha.mul

    def mul(x, y):
        return (mmul[x[0]][y[0]], sr.mul(x[1], y[1]))

    letters = [(alpha.letter_image[a], img) for a, img in zip(rho.alphabet, rho.letter_image)]
    return (alpha.identity, sr.one), letters, mul


# -- fixpoint engines ----------------------------------------------------------------

def saturate_universal(rho: RatingMap, class_id: ClassId,
                       caps: Caps = DEFAULT_CAPS) -> ImprintSet:
    """Least class-saturated subset of the rating semiring."""
    if class_id not in (ClassId.BSIGMA1, ClassId.FO2, ClassId.FO):
        raise InputError(f"{class_id.value} is not handled by the universal engine")
    if class_id is ClassId.FO2 and rho.cont is None:
        raise InputError("fo2 saturation needs an alphabet-compatible rating map; "
                         "augment it first")
    sr = rho.semiring
    out = ImprintSet(sr, cap=caps.max_elements, label=class_id.value)
    one, gens, mul = _words(rho, None)

    if class_id is ClassId.BSIGMA1:
        # unconditional rule: fires once per sub-alphabet, so its outputs
        # are generators from the start
        for mask in range(1 << len(rho.alphabet)):
            gens.append(sr.idempotent_power(rho.image_of_exact(mask, caps)))
        rule = None
    elif class_id is ClassId.FO:
        def rule(maxima):
            for s in maxima:
                e = sr.idempotent_power(s)
                yield sr.add(e, sr.mul(e, s))
    else:
        width = rho.cont.nbits
        content = (1 << width) - 1

        def rule(maxima):
            candidates: dict = {}   # B -> the idempotents (r^ω, {B})
            for s in maxima:
                e = sr.idempotent_power(s)
                for bmask in rho.cont.members(e & content):
                    candidates.setdefault(bmask, set()).add(with_content(e, bmask, width))
            for bmask, idems in candidates.items():
                star = rho.image_of_star(bmask, caps)
                for e in idems:
                    es = sr.mul(e, star)
                    for f in idems:
                        yield sr.mul(es, f)

    _saturate(out, one, gens, mul, rule)
    return out


def saturate_pointed(alpha: MonoidMorphism, rho: RatingMap, class_id: ClassId,
                     caps: Caps = DEFAULT_CAPS) -> ImprintSet:
    """Least class-saturated subset of monoid x rating-semiring pairs."""
    if class_id not in (ClassId.SIGMA1, ClassId.SIGMA2):
        raise InputError(f"{class_id.value} is not handled by the pointed engine")
    if class_id is ClassId.SIGMA2 and rho.cont is None:
        raise InputError("sigma2 saturation needs an alphabet-compatible rating map; "
                         "augment it first")
    sr = rho.semiring
    out = ImprintSet(sr, alpha, cap=caps.max_elements, label=class_id.value)
    one, gens, mul = _words(rho, alpha)

    if class_id is ClassId.SIGMA1:
        gens.append((alpha.identity, rho.image_of_star((1 << len(rho.alphabet)) - 1, caps)))
        rule = None
    else:
        content = (1 << rho.cont.nbits) - 1

        def rule(maxima):
            for (m, r) in maxima:
                if alpha.mul[m][m] != m:
                    continue
                e = sr.idempotent_power(r)
                for bmask in rho.cont.members(e & content):
                    star = rho.image_of_star(bmask, caps)
                    yield (m, sr.mul(sr.mul(e, star), e))

    _saturate(out, one, gens, mul, rule)
    return out


def _saturate(out: ImprintSet, one, gens: list, mul, rule):
    """Fill `out` with the least downset that holds `one` and is closed under
    right multiplication by the generators and under `rule`.

    Each newly maximal item is multiplied by every generator.  Once no item
    is pending, `rule` (None for none) runs over the maxima and yields its
    outputs; those still maximal after the round join the generators, and
    every maximum from before that is still maximal is multiplied by each
    of them.  `out.sweeps` counts these rounds; the loop ends when the rule
    adds nothing.
    """
    gens = list(gens)
    out.insert(one)
    while True:
        out.sweeps += 1
        x = out.pop_pending()
        while x is not None:
            for g in gens:
                out.insert(mul(x, g))
            x = out.pop_pending()
        if rule is None:
            return
        done = out.maximal_elements()
        new = [h for h in rule(done) if out.insert(h)]
        new = [h for h in new if out.is_maximal(h)]
        if not new:
            return
        gens += new
        for y in done:
            if not out.is_maximal(y):
                continue
            for h in new:
                out.insert(mul(y, h))


# -- exact finite-class imprint -----------------------------------------------------

def at_imprint(rho: RatingMap, caps: Caps = DEFAULT_CAPS) -> ImprintSet:
    """Optimal alphabet-testable imprint of the whole word set, computed
    directly from the atoms, one per sub-alphabet."""
    out = ImprintSet(rho.semiring, cap=caps.max_elements, label="at")
    out.insert(rho.semiring.zero)
    for mask in range(1 << len(rho.alphabet)):
        out.insert(rho.image_of_exact(mask, caps))
    return out


# -- covering decisions ----------------------------------------------------------------

@dataclass
class CoverDecision:
    """Decision core shared by the CLI verdicts.

    Index masks are over the `against` languages only; for full-covering
    queries the target is tracked separately.
    """

    class_id: ClassId
    coverable: bool
    imprint_masks: frozenset      # index masks H with (target, H) not coverable
    raw_imprint: object
    rating_map: object = None     # map the raw imprint was computed over
    stats: dict = field(default_factory=dict)


def _mask_subsets(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _drop_index(mask: int, index: int) -> int:
    """Remove one bit position, compacting the higher bits down."""
    low = mask & ((1 << index) - 1)
    high = (mask >> (index + 1)) << index
    return low | high


def _against_table(image_masks: Iterable[int], n_total: int, target_index: Optional[int]):
    """Downward closure of the index masks, re-indexed over the against set.

    The result is the optimal imprint over the against multiset for the
    queried target: a subset is in it exactly when the target is not
    coverable against that subset.  Returned with it: whether the whole
    against set is in it, that is, whether the target is not coverable.
    """
    closed = set()
    for m in image_masks:
        if target_index is not None:
            if not m >> target_index & 1:
                continue
            m = _drop_index(m, target_index)
        closed.update(_mask_subsets(m))
    n_against = n_total if target_index is None else n_total - 1
    return frozenset(closed), (1 << n_against) - 1 in closed


def decide_universal_covering(ext: Extension, class_id: ClassId,
                              caps: Caps = DEFAULT_CAPS,
                              target_index: Optional[int] = None) -> CoverDecision:
    """Boolean-algebra covering decision over a multiset extension.

    With `target_index` set, the extension was built over {target} ∪ against
    and the verdict answers the full covering question for the target.
    """
    if class_id is ClassId.AT:
        imprint = at_imprint(ext.tau, caps=caps)
    elif class_id in (ClassId.BSIGMA1, ClassId.FO, ClassId.FO2):
        if class_id is ClassId.FO2:
            ext = rm_alphabet_augment(ext, caps)
        imprint = saturate_universal(ext.tau, class_id, caps)
    else:
        raise InputError(f"{class_id.value} does not route through universal covering")
    images = {ext.index_set(r) for r in imprint.maximal_elements()}
    noncov, hit_full = _against_table(images, len(ext.accepts), target_index)
    return CoverDecision(
        class_id=class_id,
        coverable=not hit_full,
        imprint_masks=noncov,
        raw_imprint=imprint,
        rating_map=ext.tau,
        stats={"elements": len(imprint), "sweeps": imprint.sweeps,
               "rating_set_log2": ext.tau.semiring.log2_size()},
    )


def decide_pointed_covering(alpha: MonoidMorphism, accepting: Iterable[int],
                            ext: Extension, class_id: ClassId,
                            caps: Caps = DEFAULT_CAPS) -> CoverDecision:
    """Lattice-class covering decision: target via its recognizing morphism,
    quality measure via the multiset extension."""
    accepting = frozenset(accepting)
    if class_id not in (ClassId.SIGMA1, ClassId.SIGMA2):
        raise InputError(f"{class_id.value} does not route through pointed covering")
    if class_id is ClassId.SIGMA2:
        ext = rm_alphabet_augment(ext, caps)
    pointed = saturate_pointed(alpha, ext.tau, class_id, caps)
    images = {ext.index_set(r) for (m, r) in pointed.maximal_elements() if m in accepting}
    noncov, hit_full = _against_table(images, len(ext.accepts), None)
    return CoverDecision(
        class_id=class_id,
        coverable=not hit_full,
        imprint_masks=noncov,
        raw_imprint=pointed,
        rating_map=ext.tau,
        stats={"elements": len(pointed), "sweeps": pointed.sweeps,
               "rating_set_log2": ext.tau.semiring.log2_size(),
               "monoid_size": alpha.size},
    )
