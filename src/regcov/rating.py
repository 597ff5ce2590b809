"""Nice multiplicative rating maps and their canonical constructions.

A rating map is represented by its rating semiring and the letter images of
the word morphism; language values are reconstructed by summing word images
over reachable automaton configurations.  Extensions carry the morphism that
pulls imprints back to the extended map's rating set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import (Caps, DEFAULT_CAPS, DeterminizationCapError, InputError,
                     MonoidCapError, SaturationCapError)
from .fa import Alphabet, MonoidMorphism, Nfa, _dfa_monoid, minimize
from .semiring import (AlphabetSemiring, PowersetMonoidSemiring,
                       ProductSemiring, RelationSemiring, Semiring,
                       SemiringMorphism, SubsetLattice)


@dataclass
class RatingMap:
    """Nice multiplicative rating map given by letter images.

    `cont`, when present, maps every element to the set of word alphabets it
    accounts for (the map is then alphabet compatible).
    """

    alphabet: Alphabet
    semiring: Semiring
    letter_image: dict
    cont: Optional[SemiringMorphism] = None
    _star_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for a in self.alphabet:
            if a not in self.letter_image:
                raise InputError(f"letter image missing for {a!r}")

    def eval_word(self, word: str):
        sr = self.semiring
        out = sr.one
        for a in word:
            out = sr.mul(out, self.letter_image[a])
        return out

    def eval_nfa(self, nfa: Nfa, caps: Caps = DEFAULT_CAPS):
        """Image of a regular language: sum of the word images of its members.

        Tracks reachable (state subset, element) pairs of the determinized
        input; every accepted word contributes its image through an accepting
        pair.
        """
        if nfa.alphabet != self.alphabet:
            raise InputError("rating map / automaton alphabet mismatch")
        sr = self.semiring
        step = nfa.step_map()
        start = (frozenset(nfa.initials), sr.one)
        seen = {start}
        work = [start]
        total = sr.zero
        while work:
            subset, elem = work.pop()
            if subset & nfa.finals:
                total = sr.add(total, elem)
            for a in self.alphabet:
                nxt = frozenset().union(*(step.get((q, a), ()) for q in subset)) if subset else frozenset()
                if not nxt:
                    continue
                pair = (nxt, sr.mul(elem, self.letter_image[a]))
                if pair not in seen:
                    if len(seen) >= caps.max_det_states:
                        raise DeterminizationCapError(
                            "max_det_states", caps.max_det_states, "rating-map evaluation")
                    seen.add(pair)
                    work.append(pair)
        return total

    def _letter_pairs(self, subset: Iterable[str]):
        return [(self.letter_image[a], 1 << self.alphabet.index(a)) for a in subset]

    def _star_exact(self, subset_mask: int, caps: Caps = DEFAULT_CAPS):
        """(image of B*, image of words-with-alphabet-exactly-B).

        Closes the set of (word image, alphabet mask) pairs reachable over B;
        both values are sums over that finite set.
        """
        if subset_mask in self._star_cache:
            return self._star_cache[subset_mask]
        sr = self.semiring
        syms = self.alphabet.from_mask(subset_mask)
        gens = self._letter_pairs(syms)
        seen = {(sr.one, 0)}
        work = [(sr.one, 0)]
        while work:
            elem, mask = work.pop()
            for (gelem, gmask) in gens:
                pair = (sr.mul(elem, gelem), mask | gmask)
                if pair not in seen:
                    if len(seen) >= caps.max_elements:
                        raise SaturationCapError(caps.max_elements, "word-image closure")
                    seen.add(pair)
                    work.append(pair)
        star = sr.sum(e for (e, _) in seen)
        exact = sr.sum(e for (e, m) in seen if m == subset_mask)
        self._star_cache[subset_mask] = (star, exact)
        return star, exact

    def image_of_star(self, subset: Iterable[str], caps: Caps = DEFAULT_CAPS):
        """Image of B* for a sub-alphabet B."""
        return self._star_exact(self.alphabet.mask_of(subset), caps)[0]

    def image_of_exact(self, subset: Iterable[str], caps: Caps = DEFAULT_CAPS):
        """Image of the words whose alphabet is exactly B."""
        return self._star_exact(self.alphabet.mask_of(subset), caps)[1]


@dataclass
class Extension:
    """Rating map `tau` together with the morphism pulling its values back to
    the rating set it extends.

    For multiset-built extensions the target is the subset lattice over the
    language indices and `language_count` is set.
    """

    tau: RatingMap
    delta: SemiringMorphism
    language_count: Optional[int] = None

    def index_set(self, r) -> int:
        """Language-index bitmask of an element (multiset extensions only)."""
        if self.language_count is None:
            raise InputError("extension was not built from a language multiset")
        return self.delta.apply(r)


def rm_from_morphism(alpha: MonoidMorphism, accepting: Iterable[int]) -> Extension:
    """Canonical rating map over the powerset of the monoid, extending the
    single-language map of image⁻¹(accepting)."""
    sr = PowersetMonoidSemiring(alpha)
    letter_image = {a: sr.singleton(m) for a, m in alpha.letter_image.items()}
    tau = RatingMap(_alphabet_of_letters(alpha), sr, letter_image)
    acc_mask = 0
    for m in accepting:
        acc_mask |= 1 << m
    lattice = SubsetLattice(1)
    delta = SemiringMorphism(sr, lattice, lambda s: 1 if s & acc_mask else 0)
    return Extension(tau, delta, language_count=1)


def _alphabet_of_letters(alpha: MonoidMorphism) -> Alphabet:
    return Alphabet("".join(sorted(alpha.letter_image)))


def rm_from_nfa(nfa: Nfa) -> Extension:
    """Canonical rating map over state relations of the automaton."""
    sr = RelationSemiring(nfa.state_count)
    letter_image = {a: 0 for a in nfa.alphabet}
    for (q, a, r) in nfa.transitions:
        letter_image[a] |= sr.pair(q, r)
    tau = RatingMap(nfa.alphabet, sr, letter_image)
    acc_mask = 0
    for q in nfa.initials:
        for r in nfa.finals:
            acc_mask |= sr.pair(q, r)
    lattice = SubsetLattice(1)
    delta = SemiringMorphism(sr, lattice, lambda s: 1 if s & acc_mask else 0)
    return Extension(tau, delta, language_count=1)


def rm_from_multiset(items, caps: Caps = DEFAULT_CAPS) -> Extension:
    """Nice multiplicative rating map extending the canonical map of a
    finite multiset of regular languages.

    Items are NFAs or (morphism, accepting) pairs; per NFA the narrowest of
    the relation and monoid constructions is used (`_extension_for_nfa`).
    """
    items = list(items)
    if not items:
        raise InputError("empty language multiset")
    exts = []
    alphabet = None
    for item in items:
        if isinstance(item, Nfa):
            ab = item.alphabet
        else:
            ab = _alphabet_of_letters(item[0])
        if alphabet is None:
            alphabet = ab
        elif alphabet != ab:
            raise InputError("multiset languages must share one alphabet")
    for item in items:
        if isinstance(item, Nfa):
            exts.append(_extension_for_nfa(item, caps))
        else:
            alpha, accepting = item
            exts.append(rm_from_morphism(alpha, accepting))
    sr = ProductSemiring(e.tau.semiring for e in exts)
    letter_image = {a: sr.pack(e.tau.letter_image[a] for e in exts) for a in alphabet}
    tau = RatingMap(alphabet, sr, letter_image)
    n = len(items)
    lattice = SubsetLattice(n)
    deltas = [e.delta for e in exts]

    def apply(x):
        mask = 0
        for i, (d, r) in enumerate(zip(deltas, sr.unpack(x))):
            if d.apply(r):
                mask |= 1 << i
        return mask

    return Extension(tau, SemiringMorphism(sr, lattice, apply), language_count=n)


def _extension_for_nfa(nfa: Nfa, caps: Caps) -> Extension:
    """Pick the per-language construction with the smallest element width.

    Every nice multiplicative rating map recognizing the language yields the
    same pulled-back imprints, so the choice only sets the cost.  Semiring
    products and antichain comparisons grow with the bit width of the
    rating-set encoding, so that width is the quantity to minimize:
    minimal-DFA relations (states²) and raw-NFA relations (states²) always
    compete, and monoid powersets (monoid size) join them unless the
    transition monoid outgrows `max_monoid`.  No encoding is refused for its
    width; a blow-up ends on the caps that count the work itself.
    """
    dfa = minimize(nfa, caps)
    candidates = [(dfa.state_count ** 2, 0, "dfa"), (nfa.state_count ** 2, 2, "nfa")]
    try:
        alpha, accepting = _dfa_monoid(dfa, caps)
        candidates.append((alpha.size, 1, "monoid"))
    except MonoidCapError:
        pass
    _, _, kind = min(candidates)
    if kind == "dfa":
        return rm_from_nfa(dfa.as_nfa())
    if kind == "nfa":
        return rm_from_nfa(nfa)
    return rm_from_morphism(alpha, accepting)


def rm_alphabet_augment(rho: RatingMap, caps: Caps = DEFAULT_CAPS) -> Extension:
    """Alphabet-compatible extension: pair every value with the set of word
    alphabets it accounts for.

    The content is the lowest field of the augmented element, `nbits` of the
    alphabet semiring wide; the value sits above it.
    """
    alph_sr = AlphabetSemiring(rho.alphabet, caps)
    sr = ProductSemiring([rho.semiring, alph_sr])
    width = alph_sr.nbits
    content = (1 << width) - 1
    letter_image = {a: rho.letter_image[a] << width | alph_sr.singleton(1 << rho.alphabet.index(a))
                    for a in rho.alphabet}
    cont = SemiringMorphism(sr, alph_sr, lambda x: x & content)
    tau = RatingMap(rho.alphabet, sr, letter_image, cont=cont)
    delta = SemiringMorphism(sr, rho.semiring, lambda x: x >> width)
    return Extension(tau, delta)


def with_content(r: int, sub_mask: int, width: int) -> int:
    """Element of an alphabet-compatible map with r's value and content
    exactly {B}, for the sub-alphabet mask B; `width` is the width of the
    content field."""
    return r >> width << width | 1 << sub_mask
