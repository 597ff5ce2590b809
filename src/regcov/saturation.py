"""Least-fixpoint engines for optimal imprints.

The universal engine closes a subset of the rating semiring under downset,
multiplication and one class-specific rule; the pointed engine does the same
over (key, rating element) pairs, the key pointing the imprint at the
target.  Both contain the trivial imprint (the word images, downset-closed)
and are monotone, so the least fixpoint is independent of scheduling.

Every engine keys its items by the smallest discrete index its decision
reads (BΣ1 and FO need none), and the plain product of the rating map is
its rating semiring:

- Σ1 by the state of the target's minimal DFA.  The paper points the
  imprint by the target's recognizing monoid: pairs (m, r), closed under
  right multiplication by the letters (α(a), ρ(a)) and by (1, ρ(A*)), with
  no rule, and read at the m that accept.  The map (m, r) ↦ (q0·m, r),
  where q0·m is the state that the minimal DFA reaches from its initial
  state q0 by a word of image m, commutes with right multiplication by
  every generator: q0·(m·α(a)) = (q0·m)·a, and 1 leaves the state fixed.
  So the image of the least fixpoint over pairs is the least fixpoint of
  the same loop run on (state, r) pairs, and m accepts exactly when q0·m is
  final.  Fibers of one state merge, which unites only downsets that the
  decision unites anyway.
- FO2 by the content mask B of the words an element accounts for: items
  (B, r), with (B, r)·(C, s) = (B | C, r·s); Σ2 by (m, B).  The
  alphabet-compatible map of the paper pairs every element with a set of
  word alphabets, 2^|A| bits wide, yet every item the loop builds has one
  content: a letter image has one, a product of single contents B and C
  has the single content B ∪ C, and the rule outputs below have the
  content of their idempotents.  Only the downward closure adds smaller
  sets, and the maxima are built by the loop.  So the 2^|A|-bit field held
  one bit in every maximum, and {B} ⊆ {C} only for B = C: the order is the
  one of the items keyed by content.

Both run one loop over the antichain of maximal elements (`ImprintSet`);
no rule ever looks below a maximum.  This is complete because products are
monotone in both arguments and so is the idempotent power: s <= t implies
s^n <= t^n for every n, and s^ω = s^N, t^ω = t^N for any N that is a large
enough common multiple of both idempotent exponents, so s^ω <= t^ω.

- Multiplication, by generators.  Let G hold the letter images, the seeds
  (the BΣ1 idempotents, Σ1's (q, ρ(A*)) step) and every rule output that
  became maximal, and ⟨G⟩ the items 1·g1···gk.  ↓⟨G⟩ is closed under
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
  of maxima.  Σ1 multiplies only on the right, which is why its key may be
  a state rather than a monoid element.  Three shortcuts keep the same
  fixpoint:
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
- FO2 (e·B*·f for idempotents e, f of content B): let (B, r) be maximal;
  its idempotent power (B, r^ω) lies in the fixpoint by multiplicative
  closure, and it is an idempotent of content B.  Any idempotent (B, x) of
  the fixpoint lies below some maximum (B, r); then x = x^ω <= r^ω, i.e.
  it lies below the candidate (B, r^ω).  The rule is monotone in e and f,
  so ranging over pairs of candidates of one content is complete, and every
  candidate pair is a real instance of the rule.  The output has content
  B ∪ C ∪ B = B for every C ⊆ B.
- Σ2 (((m, B), r·B*·r) for idempotent m and r, B the content of r): for a
  maximal ((m, B), r) with m idempotent, ((m, B), r)^k = ((m, B), r^k), so
  ((m, B), r^ω) lies in the fixpoint.  Any idempotent ((m, B), s) below it
  has s = s^ω <= r^ω, so the candidate ((m, B), r^ω) dominates it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import Caps, DEFAULT_CAPS, InputError
from .fa import Dfa, Nfa, minimize, transition_monoid
from .imprints import ImprintSet
from .rating import Extension, RatingMap


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


# -- fixpoint engines ----------------------------------------------------------------

def saturate_universal(rho: RatingMap, class_id: ClassId,
                       caps: Caps = DEFAULT_CAPS) -> ImprintSet:
    """Least class-saturated subset of the rating semiring; for FO2, of
    (content mask, rating element) pairs."""
    if class_id not in (ClassId.BSIGMA1, ClassId.FO2, ClassId.FO):
        raise InputError(f"{class_id.value} is not handled by the universal engine")
    sr = rho.semiring
    smul = sr.mul
    keyed = class_id is ClassId.FO2
    out = ImprintSet(sr, keyed, cap=caps.max_elements, label=f"class {class_id.value}")
    if keyed:
        # (content mask, rating element) items; letter k has content {k}
        one, gens = (0, sr.one), [(1 << k, img) for k, img in enumerate(rho.letter_image)]

        def mul(x, y):
            return (x[0] | y[0], smul(x[1], y[1]))
    else:
        one, gens, mul = sr.one, list(rho.letter_image), smul

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
        def rule(maxima):
            candidates: dict = {}   # B -> the idempotents r^ω of the maxima (B, r)
            for bmask, r in maxima:
                candidates.setdefault(bmask, set()).add(sr.idempotent_power(r))
            for bmask, idems in candidates.items():
                star = rho.image_of_star(bmask, caps)
                starred = [sr.mul(e, star) for e in idems]
                # each product once, in the order of first appearance: an
                # item offered again is refused at once (shortcut (a))
                products = dict.fromkeys(sr.mul(es, f) for es in starred for f in idems)
                yield from ((bmask, r) for r in products)

    _saturate(out, one, gens, mul, rule)
    return out


def saturate_pointed(pointer, rho: RatingMap, class_id: ClassId,
                     caps: Caps = DEFAULT_CAPS) -> ImprintSet:
    """Least class-saturated subset of (key, rating element) pairs: keyed
    by the states of the complete DFA `pointer` (the target's minimal DFA)
    for Σ1, and by (element of the monoid morphism `pointer`, content mask)
    for Σ2."""
    if class_id not in (ClassId.SIGMA1, ClassId.SIGMA2):
        raise InputError(f"{class_id.value} is not handled by the pointed engine")
    sr = rho.semiring
    smul = sr.mul
    out = ImprintSet(sr, True, cap=caps.max_elements, label=f"class {class_id.value}")

    if class_id is ClassId.SIGMA1:
        if pointer.alphabet != rho.alphabet:
            raise InputError("target automaton and rating map alphabets differ")
        # a generator's key is the column of the transition table that maps
        # the state on its left: a letter's, or the identity for the
        # (1, ρ(A*)) step, which keeps the state
        one = (pointer.initial, sr.one)
        gens = list(zip(zip(*pointer.delta), rho.letter_image))
        gens.append((tuple(range(pointer.state_count)),
                     rho.image_of_star((1 << len(rho.alphabet)) - 1, caps)))

        def mul(x, g):
            return (g[0][x[0]], smul(x[1], g[1]))
        rule = None
    else:
        if set(pointer.letter_image) != set(rho.alphabet.symbols):
            raise InputError("morphism and rating map alphabets differ")
        mmul = pointer.mul
        one = ((pointer.identity, 0), sr.one)
        gens = [((pointer.letter_image[a], 1 << k), img)
                for k, (a, img) in enumerate(zip(rho.alphabet, rho.letter_image))]

        def mul(x, y):
            (m, b), (n, c) = x[0], y[0]
            return ((mmul[m][n], b | c), smul(x[1], y[1]))

        def rule(maxima):
            for (m, bmask), r in maxima:
                if mmul[m][m] != m:
                    continue
                e = sr.idempotent_power(r)
                yield ((m, bmask), sr.mul(sr.mul(e, rho.image_of_star(bmask, caps)), e))

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
        # shortcut (b), kept with (c): without both the (9, 7) sigma2 sweep draw runs 1.8x slower
        new = [h for h in new if out.is_maximal(h)]
        if not new:
            return
        gens += new
        for y in done:
            if not out.is_maximal(y):     # shortcut (c)
                continue
            for h in new:
                out.insert(mul(y, h))


# -- exact finite-class imprint -----------------------------------------------------

def at_imprint(rho: RatingMap, caps: Caps = DEFAULT_CAPS) -> ImprintSet:
    """Optimal alphabet-testable imprint of the whole word set, computed
    directly from the atoms, one per sub-alphabet."""
    out = ImprintSet(rho.semiring, cap=caps.max_elements, label="class at")
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
    target_dfa: Optional[Dfa] = None  # the minimal DFA Σ1 points by, which its synthesis reads


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
        imprint = saturate_universal(ext.tau, class_id, caps)
    else:
        raise InputError(f"{class_id.value} does not route through universal covering")
    images = {ext.index_set(x[1] if imprint.keyed else x) for x in imprint.maximal_elements()}
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


def decide_pointed_covering(target: Nfa, ext: Extension, class_id: ClassId,
                            caps: Caps = DEFAULT_CAPS) -> CoverDecision:
    """Lattice-class covering decision: the imprint pointed at the target by
    its minimal DFA (Σ1) or its transition monoid (Σ2), the quality measure
    via the multiset extension."""
    dfa = None
    if class_id is ClassId.SIGMA1:
        dfa = minimize(target, caps)
        pointed = saturate_pointed(dfa, ext.tau, class_id, caps)
        images = {ext.index_set(r) for q, r in pointed.maximal_elements() if q in dfa.finals}
        stats = {}
    elif class_id is ClassId.SIGMA2:
        alpha, accepting = transition_monoid(target, caps)
        pointed = saturate_pointed(alpha, ext.tau, class_id, caps)
        images = {ext.index_set(r) for (m, _), r in pointed.maximal_elements() if m in accepting}
        stats = {"monoid_size": alpha.size}
    else:
        raise InputError(f"{class_id.value} does not route through pointed covering")
    noncov, hit_full = _against_table(images, len(ext.accepts), None)
    return CoverDecision(
        class_id=class_id,
        coverable=not hit_full,
        imprint_masks=noncov,
        raw_imprint=pointed,
        rating_map=ext.tau,
        stats={"elements": len(pointed), "sweeps": pointed.sweeps,
               "rating_set_log2": ext.tau.semiring.log2_size(), **stats},
        target_dfa=dfa,
    )
