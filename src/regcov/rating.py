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

from .errors import Caps, DEFAULT_CAPS, InputError, ResourceCapError, SaturationCapError
from .fa import (Alphabet, MonoidMorphism, Nfa, _bits, _dfa_monoid, _subset_successors, explore,
                 minimize)
from .semiring import PowersetMonoidSemiring, ProductSemiring, RelationSemiring, Semiring


@dataclass
class RatingMap:
    """Nice multiplicative rating map given by letter images.

    A letter is its alphabet position k and a sub-alphabet B its bitmask,
    bit k for letter k: `letter_image` holds one image per letter in
    alphabet order, and `image_of_star` and `image_of_exact` take B's mask.

    The images of B* and of the exact-alphabet words, for every
    sub-alphabet B, are built on first use and kept (`_word_images`):
    in closed form on the relation parts, by a capped closure on the
    others.
    """

    alphabet: Alphabet
    semiring: Semiring
    letter_image: tuple
    _images: Optional[tuple] = field(default=None, repr=False)
    _closure_size: int = field(default=0, repr=False)

    def __post_init__(self):
        if len(self.letter_image) != len(self.alphabet):
            raise InputError(f"{len(self.letter_image)} letter images for "
                             f"{len(self.alphabet)} letters")

    def eval_nfa(self, nfa: Nfa, caps: Caps = DEFAULT_CAPS, by_content: bool = False):
        """Image of a regular language: sum of the word images of its members.

        Tracks reachable (state subset, content, element) triples of the
        determinized input, the subset a bitmask stepped as in
        `fa.determinize`; every accepted word contributes its image through
        an accepting triple.  The content is the mask of the letters read,
        tracked only `by_content`: the result is then the content-resolved
        image, a dict from each content mask of an accepted word to the sum
        of the images of the accepted words of that content.
        """
        if nfa.alphabet != self.alphabet:
            raise InputError("rating map / automaton alphabet mismatch")
        sr = self.semiring
        successors = _subset_successors(nfa)
        final = _bits(nfa.finals)
        bits = [by_content << k for k in range(len(self.alphabet))]
        start = (_bits(nfa.initials), 0, sr.one)
        seen = {start}
        work = [start]
        totals: dict = {}
        while work:
            subset, content, elem = work.pop()
            if subset & final:
                totals[content] = sr.add(totals.get(content, sr.zero), elem)
            for nxt, img, bit in zip(successors(subset), self.letter_image, bits):
                if not nxt:
                    continue
                triple = (nxt, content | bit, sr.mul(elem, img))
                if triple not in seen:
                    if len(seen) >= caps.max_det_states:
                        raise ResourceCapError(
                            "max_det_states", caps.max_det_states, "rating-map evaluation")
                    seen.add(triple)
                    work.append(triple)
        return totals if by_content else totals.get(0, sr.zero)

    def _word_images(self, caps: Caps = DEFAULT_CAPS):
        """(stars, exacts), two lists indexed by sub-alphabet mask B: the
        image of B* and the image of the words whose alphabet is exactly B.

        A product adds componentwise, so each part builds its own table of
        exact-alphabet images, once, over the whole alphabet; a map that is
        not a product is its own single part.  B* sums the exact images of
        the masks that lie in B.

        A relation part solves its table in closed form (`_exact_images`).
        Let s_B be the sum of the letter images of B.  The map is nice and
        multiplication distributes over addition, so the words of length m
        over B have the image s_B^m, and ρ(B*) is the sum of the s_B^m.
        Addition is idempotent, so (1 + s)^m is the sum of the s^k, k <= m:
        squaring y = 1 + s until y·y = y gives ρ(B*).  Each strict step of
        those partial sums adds at least one bit, so on n states they stop
        by m = n², and the squaring takes at most ⌈log2 n²⌉ + 2 products.
        A word whose alphabet is exactly C splits uniquely as u·a·v at the
        first occurrence of its last new letter a, with alph(u) = C∖{a}
        and v in C*.  So exact(∅) = 1 and exact(C) is the sum over a in C
        of exact(C∖{a})·ρ(a), times ρ(C*).  A relation part thus costs at
        most 2^|A|·(|A| + ⌈log2 n²⌉ + 2) products, whatever its monoid.

        A monoid-powerset part closes its (alphabet mask, word image) pairs
        instead (`content_pairs`): its word images are at most
        `max_monoid` singletons, and a singleton times a letter is one table
        row.  The words with alphabet exactly B sum to the pairs of mask B.
        The tables are kept, and so is the size of the largest closure,
        which every call checks against its own `max_elements`.
        """
        if self._images is not None:
            if self._closure_size > caps.max_elements:
                raise SaturationCapError(caps.max_elements, "word-image closure")
        else:
            sr = self.semiring
            nsub = 1 << len(self.alphabet)
            bits = [1 << k for k in range(len(self.alphabet))]
            product = isinstance(sr, ProductSemiring)
            images = [sr.unpack(img) if product else (img,) for img in self.letter_image]
            cols = []
            for j, part in enumerate(sr.parts if product else (sr,)):
                letters = [img[j] for img in images]
                if isinstance(part, RelationSemiring):
                    cols.append(_exact_images(part, letters))
                    continue
                col = [0] * nsub
                pairs = content_pairs(part, letters, caps.max_elements, "word-image closure")
                for mask, elem in pairs:
                    col[mask] |= elem
                cols.append(col)
                self._closure_size = max(self._closure_size, len(pairs))
            exacts = [sr.pack(col) for col in zip(*cols)] if product else cols[0]
            stars = list(exacts)
            for bit in bits:
                for mask in range(nsub):
                    if mask & bit:
                        stars[mask] |= stars[mask ^ bit]
            self._images = (stars, exacts)
        return self._images

    def image_of_star(self, mask: int, caps: Caps = DEFAULT_CAPS):
        """Image of B* for the sub-alphabet mask B."""
        return self._word_images(caps)[0][mask]

    def image_of_exact(self, mask: int, caps: Caps = DEFAULT_CAPS):
        """Image of the words whose alphabet is exactly the mask B."""
        return self._word_images(caps)[1][mask]


def _star(sr: Semiring, s: int) -> int:
    """The sum of the powers of s: 1 + s squared until it stops growing."""
    y = sr.add(sr.one, s)
    while True:
        square = sr.mul(y, y)
        if square == y:
            return y
        y = square


def _exact_images(sr: Semiring, letter_images: list) -> list:
    """For every sub-alphabet mask C, the sum of the images of the words
    whose alphabet is exactly C, in closed form (see `_word_images`)."""
    mul = sr.mul
    nsub = 1 << len(letter_images)
    sums = [0] * nsub                  # the letter images of C, summed
    exact = [sr.one] + [0] * (nsub - 1)
    for mask in range(1, nsub):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] | letter_images[low.bit_length() - 1]
        head = 0
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            prefix = exact[mask ^ bit]
            if prefix:
                head |= mul(prefix, letter_images[bit.bit_length() - 1])
        if head:
            exact[mask] = mul(head, _star(sr, sums[mask]))
    return exact


def reach(sr: Semiring, delta, initial: int, letter_images: list, cap: int, what: str) -> list:
    """The (state, word image) pairs of the words over a complete automaton,
    numbered by `fa.explore`: delta[q][k] is the state that letter k leads
    to from q, and letter_images[k] the letter's image in `sr`.  More than
    `cap` pairs raise SaturationCapError naming `what`."""
    mul = sr.mul

    def successors(pair):
        q, elem = pair
        return [(r, mul(elem, img)) for r, img in zip(delta[q], letter_images)]

    found = explore((initial, sr.one), successors, cap)
    if found is None:
        raise SaturationCapError(cap, what)
    return found[0]


def content_pairs(sr: Semiring, letter_images, cap: int, what: str) -> list:
    """The (content mask, word image) pairs of all words: `reach` on the
    automaton whose states are the contents of the words read."""
    n = len(letter_images)
    delta = [[mask | 1 << k for k in range(n)] for mask in range(1 << n)]
    return reach(sr, delta, 0, letter_images, cap, what)


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


def rm_from_morphism(alpha: MonoidMorphism, *accepting: Iterable[int]) -> Extension:
    """Canonical rating map over the powerset of the monoid, extending the
    map of the languages image⁻¹(acc), one per accepting set acc."""
    sr = PowersetMonoidSemiring(alpha)
    alphabet = Alphabet("".join(alpha.letter_image))
    tau = RatingMap(alphabet, sr, tuple(sr.singleton(alpha.letter_image[a]) for a in alphabet))
    return Extension(tau, tuple(sr.sum(sr.singleton(m) for m in acc) for acc in accepting))


def rm_from_nfa(nfa: Nfa, *finals: Iterable[int]) -> Extension:
    """Canonical rating map over state relations of the automaton, with one
    language per given set of final states (the automaton's own if none)."""
    sr = RelationSemiring(nfa.state_count)
    letter_image = [0] * len(nfa.alphabet)
    for (q, a, r) in nfa.transitions:
        letter_image[nfa.alphabet.index(a)] |= sr.pair(q, r)
    tau = RatingMap(nfa.alphabet, sr, tuple(letter_image))
    return Extension(tau, tuple(sr.sum(sr.pair(q, r) for q in nfa.initials for r in fin)
                                for fin in finals or (nfa.finals,)))


def rm_from_multiset(nfas: Iterable[Nfa], caps: Caps = DEFAULT_CAPS) -> Extension:
    """Nice multiplicative rating map extending the canonical map of a
    finite multiset of regular languages.

    The languages are grouped by the transitions of their minimal DFAs,
    which `minimize` numbers canonically, so a group's languages differ only
    in their finals (a language and its complement, or a repeated one).
    Each group takes its narrowest encoding (`_group_parts`); the parts sit
    side by side in one product, and each language's acceptance mask is its
    mask in its part, shifted into that part's field.
    """
    nfas = list(nfas)
    if not nfas:
        raise InputError("empty language multiset")
    alphabet = nfas[0].alphabet
    if any(nfa.alphabet != alphabet for nfa in nfas):
        raise InputError("multiset languages must share one alphabet")
    dfas = [minimize(nfa, caps) for nfa in nfas]
    groups: dict = {}
    for i, dfa in enumerate(dfas):
        groups.setdefault(dfa.delta, []).append(i)
    exts, order = [], []
    for members in groups.values():
        exts += _group_parts([nfas[i] for i in members], [dfas[i] for i in members], caps)
        order += members
    sr = ProductSemiring(e.tau.semiring for e in exts)
    tau = RatingMap(alphabet, sr, tuple(map(sr.pack, zip(*(e.tau.letter_image for e in exts)))))
    # the parts' masks come in the order of `order`, a group's members in turn
    masks = [sr.pack(acc if k == j else 0 for k in range(len(exts)))
             for j, e in enumerate(exts) for acc in e.accepts]
    return Extension(tau, tuple(mask for _, mask in sorted(zip(order, masks))))


def _group_parts(nfas: list, dfas: list, caps: Caps) -> list:
    """The parts of languages whose minimal DFAs differ only in their
    finals, with one acceptance mask per language, in the order given: one
    part for the whole group, or one per language.

    Every nice multiplicative rating map recognizing the languages yields
    the same imprints over the language indices, so the choice only sets
    the cost.  Semiring products and antichain comparisons grow with the
    bit width of the rating-set encoding, so that width is the quantity to
    minimize: the minimal-DFA relations (states²) or the monoid powerset
    (monoid size, at most `max_monoid`), either shared by the group, or one
    raw-NFA relation part per language (Σ states²), ties going to the DFA,
    then the monoid, then the NFAs.  So the monoid wins exactly when it has
    at most min(dfa² − 1, Σ nfa², `max_monoid`) elements, and its
    enumeration stops past that bound; a lone language gets the same choice
    as on its own.  No encoding is refused for its width; a blow-up ends on
    the caps that count the work itself.
    """
    dfa, finals = dfas[0], [d.finals for d in dfas]
    dfa_bits, nfa_bits = dfa.state_count ** 2, sum(n.state_count ** 2 for n in nfas)
    built = _dfa_monoid(dfa, min(dfa_bits - 1, nfa_bits, caps.max_monoid))
    if built is not None:
        alpha, reached = built
        return [rm_from_morphism(alpha, *({m for m, q in enumerate(reached) if q in fin}
                                          for fin in finals))]
    if dfa_bits <= nfa_bits:
        return [rm_from_nfa(dfa.as_nfa(), *finals)]
    return [rm_from_nfa(nfa) for nfa in nfas]


class AlphabetSemiring(PowersetMonoidSemiring):
    """Sets of sub-alphabet masks; union / pairwise union: the powerset of
    the monoid of sub-alphabets under union, whose identity is ∅.  Bit B
    holds the mask B, so its elements take 2^|A| bits."""

    def __init__(self, alphabet: Alphabet):
        nsub = 1 << len(alphabet)
        super().__init__(MonoidMorphism(
            nsub, 0, [[b | c for c in range(nsub)] for b in range(nsub)], {}))


def rm_alphabet_augment(ext: Extension) -> Extension:
    """Alphabet-compatible extension: pair every value with the set of word
    alphabets it accounts for, an `AlphabetSemiring` element in the lowest
    2^|A| bits, below the value and the acceptance masks.

    The engines key their items by content instead (see `saturation`), so
    no query builds this map; it is the wide form that their tests compare
    them with."""
    rho = ext.tau
    width = 1 << len(rho.alphabet)
    sr = ProductSemiring([rho.semiring, AlphabetSemiring(rho.alphabet)])
    letter_image = tuple(img << width | 1 << (1 << k) for k, img in enumerate(rho.letter_image))
    return Extension(RatingMap(rho.alphabet, sr, letter_image),
                     tuple(acc << width for acc in ext.accepts))
