"""Cover synthesis and verification.

Synthesizers emit covers whose imprint matches the saturated optimum:
alphabet atoms for AT, superword closures of short words for level-1
existential sentences, piece-equivalence partitions for their Boolean
closure, and the recursive left-factor construction for two-variable logic.
`verify_cover` re-checks everything with automata only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (Caps, DEFAULT_CAPS, PieceCapError, SaturationCapError,
                     WordBudgetError)
from . import rx
from .fa import (Alphabet, Dfa, MonoidMorphism, Nfa, alphabet_exact, alphabet_star,
                 empty_language, equivalent, exact_alphabet_regex, includes,
                 is_empty, minimize, nfa_intersection,
                 nfa_to_regex, nfa_union, piece_closure_regex, regex_to_nfa,
                 trim, universal_language, upward_closure)
from .imprints import ImprintSet
from .pieces import is_piece, is_union_of_classes, pt_partition
from .rating import RatingMap
from .rx import Regex
from .saturation import ClassId, _mask_subsets


@dataclass
class CoverPiece:
    """One cover member; the regex is materialized lazily from the automaton
    when it was not supplied by the synthesizer.

    The regex comes from the trimmed minimal DFA: a union of piece classes
    can span thousands of classes and yet have a minimal DFA of a dozen
    states, and state elimination on the large automaton builds a regex
    nested too deeply to print."""

    nfa: Nfa
    _regex: Optional[Regex] = None

    @property
    def regex(self) -> Regex:
        if self._regex is None:
            self._regex = nfa_to_regex(trim(minimize(self.nfa).as_nfa()))
        return self._regex


@dataclass
class Cover:
    class_id: ClassId
    target: Nfa
    pieces: list
    k: Optional[int] = None          # piece bound, for piecewise covers
    optimal: bool = True
    provenance: str = ""

    def union_nfa(self) -> Nfa:
        if not self.pieces:
            return empty_language(self.target.alphabet)
        return nfa_union(*(p.nfa for p in self.pieces))

    def imprint(self, rho: RatingMap, caps: Caps = DEFAULT_CAPS) -> ImprintSet:
        out = ImprintSet(rho.semiring, cap=caps.max_elements, label="cover-imprint")
        out.insert(rho.semiring.zero)
        for p in self.pieces:
            out.insert(rho.eval_nfa(p.nfa, caps))
        return out

    def to_json(self) -> dict:
        doc = {
            "class": self.class_id.value,
            "pieces": [{"regex": rx.regex_to_text(p.regex)} for p in self.pieces],
            "optimal": self.optimal,
        }
        if self.k is not None:
            doc["k"] = self.k
        if self.provenance:
            doc["provenance"] = self.provenance
        return doc


def _prune_empty(pieces: list) -> list:
    return [p for p in pieces if not is_empty(p.nfa)]


# -- alphabet-testable covers ---------------------------------------------------------

def at_cover(alphabet: Alphabet, scope: Optional[Nfa] = None,
             caps: Caps = DEFAULT_CAPS) -> Cover:
    """Atoms of the alphabet-testable algebra; language scope keeps the atoms
    meeting the language."""
    pieces = []
    for mask in range(1 << len(alphabet)):
        syms = alphabet.from_mask(mask)
        atom = alphabet_exact(alphabet, syms)
        if scope is not None and is_empty(nfa_intersection(atom, scope)):
            continue
        pieces.append(CoverPiece(atom, exact_alphabet_regex(alphabet, syms)))
    target = scope if scope is not None else universal_language(alphabet)
    return Cover(ClassId.AT, target, _prune_empty(pieces),
                 provenance="alphabet atoms")


# -- superword-closure covers ---------------------------------------------------------

def sigma1_cover(alpha: MonoidMorphism, targets, alphabet: Alphabet,
                 caps: Caps = DEFAULT_CAPS) -> Cover:
    """Cover of image⁻¹(targets) by superword closures of short words.

    Every word is pumpable down to length at most |M| with the same image,
    so the closures of those short words cover the fiber.  Pieces subsumed
    by a larger closure are pruned (the closure of w contains the closure of
    v exactly when v is a piece of w).
    """
    if isinstance(targets, int):
        targets = [targets]
    targets = frozenset(targets)
    budget = caps.max_word_budget
    count = 0
    words_by_elem: dict = {t: [] for t in targets}
    frontier = [("", alpha.identity)]
    if alpha.identity in targets:
        words_by_elem[alpha.identity].append("")
    for _ in range(alpha.size):
        nxt = []
        for (w, m) in frontier:
            for a in alphabet:
                count += 1
                if count > budget:
                    raise WordBudgetError("max_word_budget", budget,
                                          f"enumerating words up to length {alpha.size}; "
                                          "use a smaller recognizer")
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

    pieces = [CoverPiece(upward_closure(regex_to_nfa(rx.word_regex(w), alphabet)),
                         piece_closure_regex(alphabet, w))
              for w in final]
    target_nfa = _fiber_nfa(alpha, targets, alphabet)
    return Cover(ClassId.SIGMA1, target_nfa, _prune_empty(pieces),
                 provenance=f"superword closures of words of length <= {alpha.size}")


def _fiber_nfa(alpha: MonoidMorphism, targets: frozenset, alphabet: Alphabet) -> Nfa:
    """Automaton of image⁻¹(targets): the right Cayley graph of the monoid."""
    trans = {(m, a, alpha.mul[m][alpha.letter_image[a]])
             for m in range(alpha.size) for a in alphabet}
    return Nfa(alphabet, alpha.size, frozenset([alpha.identity]),
               frozenset(targets), frozenset(trans))


# -- piecewise-testable covers ---------------------------------------------------------

def bsigma1_cover(rho: RatingMap, goal: ImprintSet,
                  caps: Caps = DEFAULT_CAPS) -> Cover:
    """Universal cover by unions of piece-equivalence classes, deepening k
    until the classes' images all lie in the saturated goal.

    Every k-class cover is piecewise testable and its imprint shrinks as k
    grows; equality with the goal certifies optimality.  If the depth cap is
    reached first the last cover is returned flagged non-optimal.
    """
    for k in range(caps.pt_depth_cap(len(rho.alphabet)) + 1):
        pa = pt_partition(k, rho.alphabet, caps)
        images = _partition_images(pa, rho, caps)
        if all(img in goal for img in images.values()):
            return _partition_cover(pa, k, images, optimal=True)
    return _partition_cover(pa, k, images, optimal=False)


def _partition_images(pa: Dfa, rho: RatingMap, caps: Caps) -> dict:
    """Rating image of every partition class, in one reachability pass."""
    sr = rho.semiring
    start = (pa.initial, sr.one)
    seen = {start}
    work = [start]
    sums: dict = {}
    while work:
        (q, elem) = work.pop()
        sums[q] = sr.add(sums.get(q, sr.zero), elem)
        for a, q2 in zip(pa.alphabet, pa.delta[q]):
            pair = (q2, sr.mul(elem, rho.letter_image[a]))
            if pair not in seen:
                if len(seen) >= caps.max_elements:
                    raise SaturationCapError(caps.max_elements, "partition-imprint")
                seen.add(pair)
                work.append(pair)
    return sums


def _partition_cover(pa: Dfa, k: int, images: dict, optimal: bool) -> Cover:
    """One piece per distinct image: the union of the k-classes of that
    image, which is the partition DFA with those classes as finals.

    This covers as the per-class cover did, with the same imprint:

    - addition is idempotent, so the union of classes of image r has image
      r, the cover's images are the classes' images, and the cover is
      optimal exactly when the per-class one was;
    - a union of k-classes is k-piecewise testable;
    - classes with equal images meet the same languages, so separation and
      `restrict_cover` are unchanged.

    Each piece is the trimmed partition DFA with those finals, built on the
    trimmed states alone.  Every class is reachable, so the trimmed states
    are the classes that reach a final, found backwards from the finals,
    and they are numbered in sorted order as `trim` numbers them.
    """
    by_image: dict = {}
    for q in range(pa.state_count):
        by_image.setdefault(images[q], []).append(q)
    preds: list = [[] for _ in range(pa.state_count)]
    for q, row in enumerate(pa.delta):
        for r in set(row):
            preds[r].append(q)
    symbols = pa.alphabet.symbols
    pieces = []
    for states in by_image.values():
        live = set(states)
        work = list(states)
        while work:
            for q in preds[work.pop()]:
                if q not in live:
                    live.add(q)
                    work.append(q)
        num = {q: i for i, q in enumerate(sorted(live))}
        trans = frozenset((num[q], a, num[r]) for q in num
                          for a, r in zip(symbols, pa.delta[q]) if r in num)
        pieces.append(CoverPiece(Nfa(pa.alphabet, len(num), frozenset([num[pa.initial]]),
                                     frozenset(num[q] for q in states), trans)))
    return Cover(ClassId.BSIGMA1, universal_language(pa.alphabet), pieces,
                 k=k, optimal=optimal,
                 provenance=f"piece-equivalence partition at k={k}")


# -- two-variable covers -----------------------------------------------------------------

def fo2_cover(rho: RatingMap, saturated: ImprintSet,
              subset: Optional[Iterable[str]] = None,
              left=None, right=None, caps: Caps = DEFAULT_CAPS) -> Cover:
    """Cover of B* whose pieces K all keep left·ρ(K)·right inside the
    saturated set.

    Top level (defaults) covers the full word set with ρ(K) in the saturated
    set for every piece.  Requires an alphabet-compatible rating map.  The
    pieces have pairwise distinct images; each image is re-evaluated on the
    piece's automaton and checked against the saturated set.
    """
    if rho.cont is None:
        raise ValueError("fo2 cover synthesis needs an alphabet-compatible rating map")
    sr = rho.semiring
    subset = tuple(sorted(subset)) if subset is not None else tuple(rho.alphabet.symbols)
    left = left if left is not None else sr.one
    right = right if right is not None else sr.one
    if left not in saturated or right not in saturated:
        raise ValueError("context elements must lie in the saturated set")

    pieces = [p for _, p in _Fo2State(rho, saturated, caps).build(subset, left, right)]
    for p in pieces:
        image = sr.mul(sr.mul(left, rho.eval_nfa(p.nfa, caps)), right)
        if image not in saturated:
            raise AssertionError("fo2 synthesis produced a piece outside the saturated set")
    target = alphabet_star(rho.alphabet, subset)
    return Cover(ClassId.FO2, target, pieces,
                 provenance="left-factor recursion")


class _Fo2State:
    """Recursion state of the FO2 synthesis, carried over rating images.

    A piece's image is computed by multiplication, never read off its
    automaton: ρ(H·b·K) = ρ(H)·ρ(b)·ρ(K) for a nice multiplicative map, and
    the recursion evaluates no automaton but the one-state B* of each base
    case.

    At every recursion node the pieces with equal images are merged into
    one, their union.  This keeps the cover correct and optimal:

    - addition is idempotent, so the union of pieces of image r has image
      r + ... + r = r, and left·r·right stays in the saturated set;
    - a union of FO2 languages is FO2;
    - the merged pieces still cover what their members covered, and a merged
      left factor still lies in (B∖b)*, so every word of (B∖b)*·b·B* still
      splits uniquely at its first (or last) b and the product argument of
      the recursion is unchanged.

    Hence a node emits at most one piece per distinct image, and pieces with
    distinct images denote distinct languages.  Identical subproblems are
    shared; the piece cap counts the merged pieces of every node.
    """

    def __init__(self, rho: RatingMap, saturated: ImprintSet, caps: Caps):
        self.rho = rho
        self.sr = rho.semiring
        self.sat = saturated
        self.caps = caps
        self.count = 0
        self._sb_memo: dict = {}
        self._reach_cache: dict = {}
        self._build_memo: dict = {}
        self._merge_memo: dict = {}

    def _word_images(self, subset: tuple) -> set:
        """Images of the words over B: the monoid generated by B's letters."""
        sr = self.sr
        gens = [self.rho.letter_image[a] for a in subset]
        words = {sr.one}
        work = [sr.one]
        while work:
            e = work.pop()
            for g in gens:
                x = sr.mul(e, g)
                if x not in words:
                    words.add(x)
                    work.append(x)
        return words

    def s_b(self, subset: tuple) -> frozenset:
        """Images of the nonempty languages over B* that lie in the saturated
        set.

        Such an image is a nonempty sum of word images over B (niceness), and
        a sum lies below a maximum m of the saturated set exactly when each
        of its terms does.  So the set is the union, over the maxima m, of
        the sums of the word images below m.
        """
        if subset not in self._sb_memo:
            sr = self.sr
            words = [(w, sr.mask(w)) for w in self._word_images(subset)]
            out: set = set()
            for m in self.sat.maximal_elements():
                top = sr.mask(m)
                below = [w for w, x in words if x | top == top]
                sums = set(below)
                work = list(below)
                while work:
                    e = work.pop()
                    for w in below:
                        x = sr.add(e, w)
                        if x not in sums:
                            if len(sums) > self.caps.max_elements:
                                raise SaturationCapError(self.caps.max_elements,
                                                         "fo2-language-sums")
                            sums.add(x)
                            work.append(x)
                out |= sums
            self._sb_memo[subset] = frozenset(out)
        return self._sb_memo[subset]

    def right_reach(self, t, subset: tuple) -> frozenset:
        key = ("r", t, subset)
        if key not in self._reach_cache:
            sb = self.s_b(subset)
            self._reach_cache[key] = frozenset(self.sr.mul(t, x) for x in sb)
        return self._reach_cache[key]

    def left_reach(self, t, subset: tuple) -> frozenset:
        key = ("l", t, subset)
        if key not in self._reach_cache:
            sb = self.s_b(subset)
            self._reach_cache[key] = frozenset(self.sr.mul(x, t) for x in sb)
        return self._reach_cache[key]

    def right_saturated(self, t, subset: tuple) -> Optional[str]:
        """None when saturated, else the smallest violating letter."""
        sr, rho = self.sr, self.rho
        sb = self.s_b(subset)
        for b in subset:
            img = rho.letter_image[b]
            if not any(t in self.right_reach(sr.mul(sr.mul(t, x), img), subset) for x in sb):
                return b
        return None

    def left_saturated(self, t, subset: tuple) -> Optional[str]:
        sr, rho = self.sr, self.rho
        sb = self.s_b(subset)
        for b in subset:
            img = rho.letter_image[b]
            if not any(t in self.left_reach(sr.mul(img, sr.mul(x, t)), subset) for x in sb):
                return b
        return None

    def _bump(self, n: int):
        self.count += n
        if self.count > self.caps.max_pieces:
            raise PieceCapError("max_pieces", self.caps.max_pieces, "fo2 cover synthesis")

    def _merge(self, group: list, letter: Optional[str]) -> CoverPiece:
        """`_merge_pieces`, once per letter and sequence of members.

        Nodes of the recursion often regroup the same members; they share
        one merged piece.  The memo keeps the group, so no member is freed
        and no id in a key is reused while the synthesis runs.
        """
        key = (letter, tuple(id(m) if isinstance(m, CoverPiece) else (id(m[0]), id(m[1]))
                             for m in group))
        if key not in self._merge_memo:
            self._merge_memo[key] = (group, _merge_pieces(group, letter, self.rho.alphabet,
                                                          self.caps))
        return self._merge_memo[key][1]

    def build(self, subset: tuple, left, right) -> list:
        """(image, piece) pairs of a cover of B* with left·image·right in
        the saturated set, with pairwise distinct images; recursion on (|B|,
        right-index of left, left-index of right)."""
        key = (subset, left, right)
        if key in self._build_memo:
            return self._build_memo[key]
        sr, rho = self.sr, self.rho
        # image -> members, in order of first appearance: pieces, and
        # (left, right) pairs of pieces that stand for left·b·right
        groups: dict = {}
        b = None
        b_right = self.right_saturated(left, subset)
        b_left = self.left_saturated(right, subset) if b_right is None else None
        if b_right is None and b_left is None:
            bstar = alphabet_star(rho.alphabet, subset)
            groups[rho.eval_nfa(bstar, self.caps)] = [
                CoverPiece(bstar, rx.star(rx.union_all(rx.Letter(a) for a in subset)))]
        else:
            b = b_right if b_right is not None else b_left
            bimg = rho.letter_image[b]
            factors = self.build(tuple(x for x in subset if x != b), sr.one, sr.one)
            for img, h in factors:
                groups.setdefault(img, []).append(h)
            for img_h, h in factors:
                if b_right is not None:
                    # peel the leftmost occurrence of the violating letter
                    t_h = sr.mul(sr.mul(left, img_h), bimg)
                    for img_k, k in self.build(subset, t_h, right):
                        groups.setdefault(sr.mul(sr.mul(img_h, bimg), img_k), []).append((h, k))
                else:
                    # peel the rightmost occurrence of the violating letter
                    t_h = sr.mul(bimg, sr.mul(img_h, right))
                    for img_k, k in self.build(subset, left, t_h):
                        groups.setdefault(sr.mul(sr.mul(img_k, bimg), img_h), []).append((k, h))
        out = [(img, self._merge(group, b)) for img, group in groups.items()]
        self._bump(len(out))
        self._build_memo[key] = out
        return out


def _merge_pieces(group: list, letter: Optional[str], alphabet: Alphabet,
                  caps: Caps) -> CoverPiece:
    """One piece for the union of the group's members (pieces, and (left,
    right) pairs standing for left·letter·right), with the union of their
    regexes.

    The automaton of the union holds one copy of each factor per side: the
    letter leads from the final states of a left copy to the initial states
    of the right copies it is paired with.  A lone piece is kept as it is, a
    lone pair is that concatenation, and a larger group is minimized, without
    the sink.
    """
    if len(group) == 1 and isinstance(group[0], CoverPiece):
        return group[0]
    trans: set = set()
    initials: set = set()
    finals: set = set()
    offsets: dict = {}   # (side, id of piece) -> offset of its copy
    size = 0

    def copy(side: int, piece: CoverPiece) -> int:
        nonlocal size
        key = (side, id(piece))
        if key not in offsets:
            offsets[key] = size
            trans.update((q + size, a, r + size) for (q, a, r) in piece.nfa.transitions)
            size += piece.nfa.state_count
        return offsets[key]

    regexes = []
    for m in group:
        if isinstance(m, CoverPiece):
            off = copy(0, m)
            initials.update(q + off for q in m.nfa.initials)
            finals.update(q + off for q in m.nfa.finals)
            regexes.append(m.regex)
            continue
        lhs, rhs = m
        lo, ro = copy(1, lhs), copy(2, rhs)
        initials.update(q + lo for q in lhs.nfa.initials)
        finals.update(q + ro for q in rhs.nfa.finals)
        trans.update((f + lo, letter, q + ro) for f in lhs.nfa.finals for q in rhs.nfa.initials)
        regexes.append(rx.concat(rx.concat(lhs.regex, rx.Letter(letter)), rhs.regex))
    nfa = Nfa(alphabet, size, frozenset(initials), frozenset(finals), frozenset(trans))
    if len(group) > 1:
        nfa = trim(minimize(nfa, caps).as_nfa())
    return CoverPiece(nfa, rx.union_all(regexes))


# -- assembly and verification --------------------------------------------------------------

def restrict_cover(cover: Cover, target: Nfa) -> Cover:
    """Keep the pieces meeting the target: turns a separating universal
    cover for {target} ∪ others into a cover of the target separating for
    the others."""
    pieces = [p for p in cover.pieces if not is_empty(nfa_intersection(p.nfa, target))]
    return Cover(cover.class_id, target, pieces, k=cover.k, optimal=cover.optimal,
                 provenance=cover.provenance + " | restricted to target")


def union_covers(covers: Iterable[Cover]) -> Cover:
    covers = list(covers)
    if not covers:
        raise ValueError("no covers to combine")
    pieces = list(itertools.chain.from_iterable(c.pieces for c in covers))
    target = nfa_union(*(c.target for c in covers))
    return Cover(covers[0].class_id, target, pieces,
                 k=covers[0].k, optimal=all(c.optimal for c in covers),
                 provenance="union of per-element covers")


@dataclass
class VerifyReport:
    covers_target: bool
    separating: bool
    piece_witnesses: list          # per piece: index of a missed language, or None
    class_ok: Optional[bool]       # None when only certified by construction
    class_note: str
    imprint_masks: Optional[frozenset] = None

    @property
    def ok(self) -> bool:
        return self.covers_target and self.separating and self.class_ok is not False


def _covers_incrementally(target: Nfa, pieces: list, caps: Caps) -> bool:
    """target ⊆ union of pieces, with the running union kept minimal and an
    early exit once inclusion holds (unions of many pieces usually collapse
    long before all of them are accumulated)."""
    if not pieces:
        return is_empty(target)
    union = None
    for i, p in enumerate(pieces):
        union = p.nfa if union is None else nfa_union(union, p.nfa)
        if union.state_count > 64 or i == len(pieces) - 1:
            union = minimize(union, caps).as_nfa()
            if includes(target, union, caps):
                return True
    return False


def verify_cover(cover: Cover, target: Nfa, against: list,
                 class_check: bool = True, ext=None,
                 caps: Caps = DEFAULT_CAPS) -> VerifyReport:
    """Machine-check a cover: coverage, separation witnesses, the class
    discipline of each piece, and (given a multiset extension) the cover's
    imprint over the language indices."""
    covers_target = _covers_incrementally(target, cover.pieces, caps)
    witnesses = []
    separating = True
    for p in cover.pieces:
        w = None
        for i, lang in enumerate(against):
            if is_empty(nfa_intersection(p.nfa, lang)):
                w = i
                break
        witnesses.append(w)
        if w is None:
            separating = False

    class_ok: Optional[bool] = None
    note = "class membership certified by construction, not machine-checked"
    alphabet = cover.target.alphabet
    partition = None
    if class_check:
        if cover.class_id is ClassId.SIGMA1:
            class_ok = all(equivalent(upward_closure(p.nfa), p.nfa, caps) for p in cover.pieces)
            note = "each piece closed under superwords"
        elif cover.class_id is ClassId.AT:
            # the 1-piece classes are the alphabet atoms
            partition = pt_partition(1, alphabet, caps)
            note = "each piece a union of alphabet atoms"
        elif cover.class_id is ClassId.BSIGMA1 and cover.k is not None:
            partition = pt_partition(cover.k, alphabet, caps)
            note = f"each piece a union of {cover.k}-piece-equivalence classes"
    if partition is not None:
        class_ok = all(is_union_of_classes(p.nfa, partition, caps) for p in cover.pieces)

    masks = None
    if ext is not None:
        masks = frozenset(sub for p in cover.pieces
                          for sub in _mask_subsets(ext.index_set(ext.tau.eval_nfa(p.nfa, caps))))

    return VerifyReport(covers_target, separating, witnesses, class_ok, note, masks)
