"""Earlier cover constructions, the references for those of `regcov.covers`.

The Σ1 words by enumeration: every word up to length |M|, pruned to the
minimal ones, read off the transition monoid.  `sigma1_cover`, which
reads the target automaton instead, must unite their superword closures
per image.

The FO2 recursion, the reference for the labelled-DFA one, which must give
the same images and equivalent pieces.  At every node, the pieces with
equal images are merged into one: a union automaton of copies of the
members (pieces, and (left, right) pairs that stand for left·letter·right)
is determinized, minimized and trimmed.  Pieces carry no regex here.  Its
saturation tests search each side apart, the reference for the one loop
set per letter of `_Fo2State.peel_letter`.  It runs over the wide form:
the alphabet augmentation (`rm_alphabet_augment`) and the saturated set in
it, whose elements carry the set of word alphabets where `_Fo2State` keys
its items by content.
"""

from __future__ import annotations

from regcov import DEFAULT_CAPS, SaturationCapError
from regcov.fa import Nfa, alphabet_star, minimize
from regcov.rating import reach

from helpers import is_piece, trim


def sigma1_words(alpha, targets, alphabet) -> list:
    """The minimal words of image⁻¹(targets): every word is pumpable down to
    length at most |M| with the same image, so the words up to that length
    are listed, and a word with a shorter kept word as a piece is dropped
    (first per image, then across images)."""
    targets = frozenset(targets)
    words_by_elem: dict = {t: [] for t in targets}
    frontier = [("", alpha.identity)]
    if alpha.identity in targets:
        words_by_elem[alpha.identity].append("")
    for _ in range(alpha.size):
        nxt = []
        for (w, m) in frontier:
            for a in alphabet:
                w2, m2 = w + a, alpha.mul[m][alpha.letter_image[a]]
                nxt.append((w2, m2))
                if m2 in targets:
                    words_by_elem[m2].append(w2)
        frontier = nxt

    kept: list = []
    for t in sorted(targets):
        group = sorted(words_by_elem[t], key=len)
        minimal: list = []
        for w in group:
            if not any(is_piece(v, w) for v in minimal):
                minimal.append(w)
        kept.extend(minimal)
    # a shorter word's closure may subsume a longer word of another fiber
    kept.sort(key=len)
    final: list = []
    for w in kept:
        if not any(is_piece(v, w) for v in final):
            final.append(w)
    return final


def letters(rho, subset: int) -> list:
    """The positions of the letters of the sub-alphabet mask B."""
    return [b for b in range(len(rho.alphabet)) if subset >> b & 1]


class MergingFo2:
    """The fo2 recursion over an alphabet augmentation `rho` and its
    saturated set, whose `build` merges pieces per image, and whose
    saturation tests on the left and right contexts search s_b·ρ(b)·s_b
    through the products t·x·ρ(b)·s_b and s_b·ρ(b)·x·t."""

    def __init__(self, rho, saturated, caps):
        self.rho = rho
        self.sr = rho.semiring
        self.sat = saturated
        self.caps = caps
        self._build_memo: dict = {}
        self._sb_memo: dict = {}
        self._reach_cache: dict = {}

    def word_images(self, subset: int) -> set:
        """Images of the words over B: the monoid generated by B's letters,
        closed over a one-state automaton."""
        letters = [img for k, img in enumerate(self.rho.letter_image) if subset >> k & 1]
        return {elem for _, elem in reach(self.sr, [[0] * len(letters)], 0, letters,
                                          self.caps.max_elements, "fo2 word images")}

    def s_b(self, subset: int) -> frozenset:
        """Images of the nonempty languages over B* that lie in the saturated
        set: the union, over the maxima m, of the sums of the word images
        below m.  Elements of the augmented product are their own masks:
        w <= m is w | m == m."""
        if subset not in self._sb_memo:
            sr = self.sr
            words = self.word_images(subset)
            out: set = set()
            for m in self.sat.maximal_elements():
                below = [w for w in words if w | m == m]
                sums = set(below)
                work = list(below)
                while work:
                    e = work.pop()
                    for w in below:
                        x = sr.add(e, w)
                        if x not in sums:
                            if len(sums) >= self.caps.max_elements:
                                raise SaturationCapError(self.caps.max_elements,
                                                         "fo2-language-sums")
                            sums.add(x)
                            work.append(x)
                out |= sums
            self._sb_memo[subset] = frozenset(out)
        return self._sb_memo[subset]

    def right_reach(self, t, subset: int) -> frozenset:
        key = ("r", t, subset)
        if key not in self._reach_cache:
            sb = self.s_b(subset)
            self._reach_cache[key] = frozenset(self.sr.mul(t, x) for x in sb)
        return self._reach_cache[key]

    def left_reach(self, t, subset: int) -> frozenset:
        key = ("l", t, subset)
        if key not in self._reach_cache:
            sb = self.s_b(subset)
            self._reach_cache[key] = frozenset(self.sr.mul(x, t) for x in sb)
        return self._reach_cache[key]

    def right_saturated(self, t, subset: int):
        """None when saturated, else the position of the smallest violating
        letter; it reads only the left context t, so it is computed once per
        (t, B)."""
        key = ("rs", t, subset)
        if key not in self._reach_cache:
            sr, rho = self.sr, self.rho
            sb = self.s_b(subset)
            self._reach_cache[key] = next(
                (b for b in letters(rho, subset)
                 if not any(t in self.right_reach(sr.mul(sr.mul(t, x), rho.letter_image[b]),
                                                  subset) for x in sb)), None)
        return self._reach_cache[key]

    def left_saturated(self, t, subset: int):
        """The mirror image of `right_saturated`, on the right context t."""
        key = ("ls", t, subset)
        if key not in self._reach_cache:
            sr, rho = self.sr, self.rho
            sb = self.s_b(subset)
            self._reach_cache[key] = next(
                (b for b in letters(rho, subset)
                 if not any(t in self.left_reach(sr.mul(rho.letter_image[b], sr.mul(x, t)),
                                                 subset) for x in sb)), None)
        return self._reach_cache[key]

    def build(self, subset: int, left, right) -> list:
        """(image, automaton) pairs of a cover of B* with left·image·right
        in the saturated set, with pairwise distinct images, for the
        sub-alphabet mask B."""
        key = (subset, left, right)
        memo = self._build_memo
        if key in memo:
            return memo[key]
        sr, rho = self.sr, self.rho
        groups: dict = {}
        b = None
        b_right = self.right_saturated(left, subset)
        b_left = self.left_saturated(right, subset) if b_right is None else None
        if b_right is None and b_left is None:
            bstar = alphabet_star(rho.alphabet, rho.alphabet.from_mask(subset))
            groups[rho.eval_nfa(bstar, self.caps)] = [bstar]
        else:
            b = b_right if b_right is not None else b_left
            bimg = rho.letter_image[b]
            factors = self.build(subset & ~(1 << b), sr.one, sr.one)
            for img, h in factors:
                groups.setdefault(img, []).append(h)
            for img_h, h in factors:
                if b_right is not None:
                    t_h = sr.mul(sr.mul(left, img_h), bimg)
                    for img_k, k in self.build(subset, t_h, right):
                        groups.setdefault(sr.mul(sr.mul(img_h, bimg), img_k), []).append((h, k))
                else:
                    t_h = sr.mul(bimg, sr.mul(img_h, right))
                    for img_k, k in self.build(subset, left, t_h):
                        groups.setdefault(sr.mul(sr.mul(img_k, bimg), img_h), []).append((k, h))
        letter = None if b is None else rho.alphabet.symbols[b]
        out = [(img, merge(group, letter, rho.alphabet)) for img, group in groups.items()]
        memo[key] = out
        return out


def merge(group: list, letter, alphabet) -> Nfa:
    """The union of the group's members, minimized and trimmed."""
    if len(group) == 1 and isinstance(group[0], Nfa):
        return group[0]
    trans: set = set()
    initials: set = set()
    finals: set = set()
    offsets: dict = {}
    size = 0

    def copy(side: int, nfa: Nfa) -> int:
        nonlocal size
        if (side, id(nfa)) not in offsets:
            offsets[side, id(nfa)] = size
            trans.update((q + size, a, r + size) for (q, a, r) in nfa.transitions)
            size += nfa.state_count
        return offsets[side, id(nfa)]

    for m in group:
        if isinstance(m, Nfa):
            off = copy(0, m)
            initials.update(q + off for q in m.initials)
            finals.update(q + off for q in m.finals)
            continue
        lhs, rhs = m
        lo, ro = copy(1, lhs), copy(2, rhs)
        initials.update(q + lo for q in lhs.initials)
        finals.update(q + ro for q in rhs.finals)
        trans.update((f + lo, letter, q + ro) for f in lhs.finals for q in rhs.initials)
    nfa = Nfa(alphabet, size, frozenset(initials), frozenset(finals), frozenset(trans))
    if len(group) > 1:
        nfa = trim(minimize(nfa).as_nfa())
    return nfa


def fo2_pieces(rho, saturated, subset=None, left=None, right=None) -> dict:
    """image -> piece automaton of the top-level merged cover, as the
    trimmed minimal DFA: a `Cover`'s pieces are these automata."""
    sr = rho.semiring
    subset = subset if subset is not None else (1 << len(rho.alphabet)) - 1
    state = MergingFo2(rho, saturated, DEFAULT_CAPS)
    return {img: trim(minimize(nfa).as_nfa())
            for img, nfa in state.build(subset, left if left is not None else sr.one,
                                        right if right is not None else sr.one)}
