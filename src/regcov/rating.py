"""Nice multiplicative rating maps and their canonical constructions.

A rating map is represented by its rating semiring and the letter images of
the word morphism; language values are reconstructed by summing word images
over reachable automaton configurations.  An extension carries one
acceptance mask per language of the multiset it extends, and the languages
an element meets are read off those masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import (Caps, DEFAULT_CAPS, DeterminizationCapError, InputError,
                     MonoidCapError, SaturationCapError)
from .fa import Alphabet, MonoidMorphism, Nfa, _dfa_monoid, minimize
from .semiring import (AlphabetSemiring, PowersetMonoidSemiring,
                       ProductSemiring, RelationSemiring, Semiring)


@dataclass
class RatingMap:
    """Nice multiplicative rating map given by letter images.

    `cont`, when present, is the alphabet semiring whose field holds the
    lowest bits of every element: x & ((1 << cont.nbits) - 1) is the set of
    word alphabets x accounts for (the map is then alphabet compatible).
    """

    alphabet: Alphabet
    semiring: Semiring
    letter_image: dict
    cont: Optional[AlphabetSemiring] = None
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
    """Rating map `tau` extending the canonical map of a finite language
    multiset, with one acceptance mask per language.

    The canonical map sends an element to the indices of the languages it
    meets.  It preserves unions, so on a bit-vector rating set it is fixed
    by where it sends each bit: language i is met by the elements that
    share a bit with `accepts[i]`.
    """

    tau: RatingMap
    accepts: tuple

    def index_set(self, r) -> int:
        """Bitmask of the indices of the languages that r meets."""
        out = 0
        for i, acc in enumerate(self.accepts):
            if r & acc:
                out |= 1 << i
        return out


def rm_from_morphism(alpha: MonoidMorphism, accepting: Iterable[int]) -> Extension:
    """Canonical rating map over the powerset of the monoid, extending the
    single-language map of image⁻¹(accepting)."""
    sr = PowersetMonoidSemiring(alpha)
    letter_image = {a: sr.singleton(m) for a, m in alpha.letter_image.items()}
    tau = RatingMap(Alphabet("".join(sorted(alpha.letter_image))), sr, letter_image)
    return Extension(tau, (sr.sum(sr.singleton(m) for m in accepting),))


def rm_from_nfa(nfa: Nfa) -> Extension:
    """Canonical rating map over state relations of the automaton."""
    sr = RelationSemiring(nfa.state_count)
    letter_image = {a: 0 for a in nfa.alphabet}
    for (q, a, r) in nfa.transitions:
        letter_image[a] |= sr.pair(q, r)
    tau = RatingMap(nfa.alphabet, sr, letter_image)
    return Extension(tau, (sr.sum(sr.pair(q, r) for q in nfa.initials for r in nfa.finals),))


def rm_from_multiset(nfas: Iterable[Nfa], caps: Caps = DEFAULT_CAPS) -> Extension:
    """Nice multiplicative rating map extending the canonical map of a
    finite multiset of regular languages.

    Per NFA the narrowest of the relation and monoid constructions is used
    (`_extension_for_nfa`); the parts sit side by side in one product, and
    each language's acceptance mask is its part's mask shifted into its
    field.
    """
    nfas = list(nfas)
    if not nfas:
        raise InputError("empty language multiset")
    alphabet = nfas[0].alphabet
    if any(nfa.alphabet != alphabet for nfa in nfas):
        raise InputError("multiset languages must share one alphabet")
    exts = [_extension_for_nfa(nfa, caps) for nfa in nfas]
    sr = ProductSemiring(e.tau.semiring for e in exts)
    letter_image = {a: sr.pack(e.tau.letter_image[a] for e in exts) for a in alphabet}
    tau = RatingMap(alphabet, sr, letter_image)
    accepts = tuple(sr.pack(e.accepts[0] if j == i else 0 for j, e in enumerate(exts))
                    for i in range(len(exts)))
    return Extension(tau, accepts)


def _extension_for_nfa(nfa: Nfa, caps: Caps) -> Extension:
    """Pick the per-language construction with the smallest element width.

    Every nice multiplicative rating map recognizing the language yields the
    same imprints over the language indices, so the choice only sets the
    cost.  Semiring products and antichain comparisons grow with the bit
    width of the rating-set encoding, so that width is the quantity to
    minimize: minimal-DFA relations (states²) and raw-NFA relations
    (states²) always compete, and monoid powersets (monoid size) join them
    unless the transition monoid outgrows `max_monoid`.  No encoding is
    refused for its width; a blow-up ends on the caps that count the work
    itself.
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


def rm_alphabet_augment(ext: Extension, caps: Caps = DEFAULT_CAPS) -> Extension:
    """Alphabet-compatible extension: pair every value with the set of word
    alphabets it accounts for.

    The content is the lowest field of the augmented element, `nbits` of the
    alphabet semiring wide; the value sits above it, and so do the
    acceptance masks.
    """
    rho = ext.tau
    alph_sr = AlphabetSemiring(rho.alphabet, caps)
    sr = ProductSemiring([rho.semiring, alph_sr])
    width = alph_sr.nbits
    letter_image = {a: rho.letter_image[a] << width | alph_sr.singleton(1 << rho.alphabet.index(a))
                    for a in rho.alphabet}
    tau = RatingMap(rho.alphabet, sr, letter_image, cont=alph_sr)
    return Extension(tau, tuple(acc << width for acc in ext.accepts))


def with_content(r: int, sub_mask: int, width: int) -> int:
    """Element of an alphabet-compatible map with r's value and content
    exactly {B}, for the sub-alphabet mask B; `width` is the width of the
    content field."""
    return r >> width << width | 1 << sub_mask
