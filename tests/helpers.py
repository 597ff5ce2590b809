"""Shared test utilities: seeded generators, brute-force oracles, and the
small constructions that only tests use."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace

from hypothesis import strategies as st

from regcov import (Alphabet, DEFAULT_CAPS, Dfa, Extension, ImprintSet, Nfa, ProductSemiring,
                    RatingMap, alphabet_exact, alphabet_star, includes, is_empty,
                    nfa_intersection, nfa_union, regex_parse, regex_to_nfa,
                    rm_alphabet_augment)
from regcov import rx, saturation
from regcov.fa import empty_language
from reference_saturation import words
from regcov.pieces import are_unions_of_classes, pt_partition


def random_regex(rng: random.Random, symbols: str, depth: int):
    """Random regex AST of bounded height."""
    if depth <= 0:
        roll = rng.random()
        if roll < 0.8:
            return rx.Letter(rng.choice(symbols))
        if roll < 0.9:
            return rx.EPSILON
        return rx.Letter(rng.choice(symbols))
    op = rng.choice(["union", "concat", "star", "plus", "leaf"])
    if op == "leaf":
        return random_regex(rng, symbols, 0)
    if op == "star":
        return rx.Star(random_regex(rng, symbols, depth - 1))
    if op == "plus":
        return rx.Plus(random_regex(rng, symbols, depth - 1))
    left = random_regex(rng, symbols, depth - 1)
    right = random_regex(rng, symbols, depth - 1)
    return rx.Union(left, right) if op == "union" else rx.Concat(left, right)


def random_nfa(rng: random.Random, alphabet: Alphabet, max_states: int,
               trans_prob: float = 0.3) -> Nfa:
    """Random sparse NFA with at least one initial state."""
    n = rng.randint(1, max_states)
    trans = set()
    for q in range(n):
        for a in alphabet:
            for r in range(n):
                if rng.random() < trans_prob:
                    trans.add((q, a, r))
    initials = {rng.randrange(n)}
    finals = {q for q in range(n) if rng.random() < 0.5}
    if not finals:
        finals = {rng.randrange(n)}
    return Nfa(alphabet, n, frozenset(initials), frozenset(finals), frozenset(trans))


@st.composite
def nfas(draw, alphabet, max_states=4, min_states=1):
    """Hypothesis strategy: an NFA of `min_states` to `max_states` states,
    one initial state, at least one final state and at most three
    transitions per state on average; it shrinks towards fewer states and
    transitions."""
    n = draw(st.integers(min_states, max_states))
    states = st.integers(0, n - 1)
    trans = draw(st.frozensets(st.tuples(states, st.sampled_from(alphabet.symbols), states),
                               max_size=3 * n))
    return Nfa(alphabet, n, frozenset([draw(states)]),
               draw(st.frozensets(states, min_size=1)), trans)


def denote_upto(node, symbols: str, maxlen: int) -> frozenset:
    """Language of a regex restricted to words of length <= maxlen, computed
    recursively (independent of the automaton pipeline)."""
    def go(n) -> frozenset:
        if isinstance(n, rx.Empty):
            return frozenset()
        if isinstance(n, rx.Epsilon):
            return frozenset([""])
        if isinstance(n, rx.Letter):
            return frozenset([n.symbol])
        if isinstance(n, rx.Union):
            return go(n.left) | go(n.right)
        if isinstance(n, rx.Concat):
            lhs, rhs = go(n.left), go(n.right)
            return frozenset(u + v for u in lhs for v in rhs if len(u + v) <= maxlen)
        if isinstance(n, (rx.Star, rx.Plus)):
            base = frozenset(w for w in go(n.inner) if len(w) <= maxlen)
            reach = set(base)  # concatenations of >= 1 inner words
            frontier = set(base)
            while frontier:
                new = set()
                for u in frontier:
                    for v in base:
                        w = u + v
                        if len(w) <= maxlen and w not in reach:
                            new.add(w)
                reach |= new
                frontier = new
            if isinstance(n, rx.Star):
                reach.add("")
            return frozenset(reach)
        raise TypeError(n)

    return frozenset(w for w in go(node) if len(w) <= maxlen)


def is_piece(u: str, v: str) -> bool:
    """True iff u is a scattered subword of v."""
    it = iter(v)
    return all(c in it for c in u)


# -- smart constructors: regexes simplified by the laws of ∅ and ε ------------

def union(left: rx.Regex, right: rx.Regex) -> rx.Regex:
    if isinstance(left, rx.Empty):
        return right
    if isinstance(right, rx.Empty):
        return left
    if left == right:
        return left
    return rx.Union(left, right)


def concat(left: rx.Regex, right: rx.Regex) -> rx.Regex:
    if isinstance(left, rx.Empty) or isinstance(right, rx.Empty):
        return rx.EMPTY
    if isinstance(left, rx.Epsilon):
        return right
    if isinstance(right, rx.Epsilon):
        return left
    return rx.Concat(left, right)


def star(inner: rx.Regex) -> rx.Regex:
    if isinstance(inner, (rx.Empty, rx.Epsilon)):
        return rx.EPSILON
    if isinstance(inner, (rx.Star, rx.Plus)):
        return rx.Star(inner.inner)
    return rx.Star(inner)


def union_all(parts) -> rx.Regex:
    out = rx.EMPTY
    for p in parts:
        out = union(out, p)
    return out


def exact_alphabet_regex(alphabet: Alphabet, subset) -> rx.Regex:
    """Regex for the words whose alphabet is exactly B.

    Built by splitting on the letter whose first occurrence comes last;
    exponential in |B|, fine at desk scale.
    """

    def build(b: tuple) -> rx.Regex:
        if not b:
            return rx.EPSILON
        bstar = star(union_all(rx.Letter(a) for a in b))
        parts = []
        for a in b:
            rest = tuple(x for x in b if x != a)
            parts.append(concat(concat(build(rest), rx.Letter(a)), bstar))
        return union_all(parts)

    return build(tuple(sorted(set(subset))))


def words_upto(symbols: str, maxlen: int):
    import itertools
    for k in range(maxlen + 1):
        for tup in itertools.product(symbols, repeat=k):
            yield "".join(tup)


def nfa_of(text: str, symbols: str) -> Nfa:
    return regex_to_nfa(regex_parse(text, symbols), Alphabet(symbols))


def piece_images_distinct(cover, rho) -> bool:
    """True when no two pieces of the cover have the same image under rho."""
    images = [rho.eval_nfa(p) for p in cover.pieces]
    return len(set(images)) == len(images)


def partition_classes(pa) -> list:
    """Every class of a partition DFA as an automaton: the DFA with that one
    state final."""
    return [replace(pa, finals=frozenset([q])).as_nfa() for q in range(pa.state_count)]


def state_of(pa, word: str) -> int:
    """The partition state, hence the class, that the word reaches."""
    q = pa.initial
    for a in word:
        q = pa.delta[q][pa.alphabet.index(a)]
    return q


def is_union_of_classes_per_class(nfa: Nfa, classes, caps=DEFAULT_CAPS) -> bool:
    """Reference for `regcov.pieces.are_unions_of_classes`: every class
    meeting the language lies inside it, checked class by class."""
    return all(is_empty(nfa_intersection(cls, nfa)) or includes(cls, nfa, caps)
               for cls in classes)


def is_k_piecewise_testable(nfa: Nfa, k: int, caps=DEFAULT_CAPS) -> bool:
    """True iff the language is a union of k-equivalence classes."""
    return are_unions_of_classes([nfa], pt_partition(k, nfa.alphabet, caps)[0], caps)


def alphabet_languages(alphabet: Alphabet, subset):
    """(B*, words-with-alphabet-exactly-B) for a sub-alphabet B."""
    subset = sorted(set(subset))
    return alphabet_star(alphabet, subset), alphabet_exact(alphabet, subset)


def nfa_to_json(n: Nfa) -> dict:
    """The NFA JSON object that `regcov.nfa_from_json` reads."""
    return {
        "alphabet": n.alphabet.symbols,
        "states": n.state_count,
        "initials": sorted(n.initials),
        "finals": sorted(n.finals),
        "transitions": sorted([q, a, r] for (q, a, r) in n.transitions),
    }


def rm_trivial_imprint(rho, alpha=None) -> ImprintSet:
    """Trivial imprint: word images, downset-closed.

    Passing a morphism gives the pointed variant over monoid/value pairs.
    """
    out = ImprintSet(rho.semiring, alpha is not None, cap=DEFAULT_CAPS.max_elements,
                     label="trivial")
    saturation._saturate(out, *words(rho, alpha), None)
    return out


def _map_imprint(imprint: ImprintSet, fn, semiring, label: str) -> ImprintSet:
    """Image of a universal or pointed imprint under a monotone map of its
    rating-set elements, downset-closed: the images of the maxima generate
    it."""
    out = ImprintSet(semiring, imprint.keyed, cap=imprint.cap,
                     label=f"{imprint.label}-{label}")
    for item in imprint.maximal_elements():
        out.insert((item[0], fn(item[1])) if imprint.keyed else fn(item))
    out.sweeps = imprint.sweeps
    return out


def imprint_pullback(ext, imprint: ImprintSet) -> ImprintSet:
    """Image of an imprint under the extension's index map: the index masks
    of the languages its elements meet, downset-closed.  The masks are
    ordered by inclusion but multiplied by nothing, so the result has no
    semiring."""
    return _map_imprint(imprint, ext.index_set, None, "pullback")


def strip_content(imprint: ImprintSet, semiring) -> ImprintSet:
    """A content-keyed imprint (fo2's (B, r), or sigma2's ((m, B), r)) with
    the content dropped: the imprint of the rating elements r, or of the
    pairs (m, r), over `semiring`."""
    pointed = isinstance(imprint.maximal_elements()[0][0], tuple)
    out = ImprintSet(semiring, pointed, cap=imprint.cap, label=f"{imprint.label}-base")
    for key, r in imprint.maximal_elements():
        out.insert((key[0], r) if pointed else r)
    return out


def augment(rho):
    """The alphabet augmentation of a rating map (`rm_alphabet_augment`),
    with no acceptance mask: the wide form the content-keyed engines are
    compared in."""
    return rm_alphabet_augment(Extension(rho, ()))


def widen_item(item, width: int) -> int:
    """A content-keyed item (B, r) as an element of the alphabet
    augmentation whose content field is `width` bits wide: r with the
    content {B} below it."""
    bmask, r = item
    return r << width | 1 << bmask


def narrow_item(x: int, width: int) -> tuple:
    """The content-keyed item of an element of an alphabet augmentation
    whose content field holds one sub-alphabet: the inverse of
    `widen_item`."""
    content = x & (1 << width) - 1
    assert content and content & content - 1 == 0, "not one content"
    return content.bit_length() - 1, x >> width


def widen(imprint: ImprintSet, aug) -> ImprintSet:
    """A content-keyed imprint in the wide form of the alphabet augmentation
    `aug` (`rm_alphabet_augment`): (B, r) as `widen_item`, and ((m, B), r)
    as (m, that element), with the same sweep count.  Every item of the
    keyed engines has one content, so this is the imprint that the wide
    engines computed."""
    width = 1 << len(aug.tau.alphabet)
    pointed = isinstance(imprint.maximal_elements()[0][0], tuple)
    out = ImprintSet(aug.tau.semiring, pointed, cap=imprint.cap, label=imprint.label)
    for key, r in imprint.maximal_elements():
        out.insert((key[0], widen_item((key[1], r), width)) if pointed
                   else widen_item((key, r), width))
    out.sweeps = imprint.sweeps
    return out


def cayley(alpha, alphabet: Alphabet) -> Dfa:
    """The right Cayley graph of a monoid morphism as a complete DFA rooted
    at the identity: the Σ1 engine pointed by it keys its items by monoid
    element, as the engine pointed by the monoid did."""
    return Dfa(alphabet, alpha.size, alpha.identity, frozenset(),
               tuple(tuple(alpha.mul[m][alpha.letter_image[a]] for a in alphabet)
                     for m in range(alpha.size)))


# -- small constructions that the library does not need ------------------------

def leq(x: int, y: int) -> bool:
    """The order of every bit-vector semiring: inclusion."""
    return x | y == y


def mask_of(alphabet: Alphabet, syms) -> int:
    """The bitmask of the sub-alphabet spelled by `syms`, the form in which
    the library takes sub-alphabets."""
    mask = 0
    for a in syms:
        mask |= 1 << alphabet.index(a)
    return mask


def eval_word(tau, word: str):
    """Image of one word under a rating map: its letter images multiplied."""
    out = tau.semiring.one
    for a in word:
        out = tau.semiring.mul(out, tau.letter_image[tau.alphabet.index(a)])
    return out


def trim(n: Nfa) -> Nfa:
    """The same language on the states that are reachable and co-reachable,
    numbered in their order.  `trim(minimize(n).as_nfa())` is the trimmed
    minimal DFA that a cover piece holds."""
    succ: dict = {}
    pred: dict = {}
    for (q, a, r) in n.transitions:
        succ.setdefault(q, set()).add(r)
        pred.setdefault(r, set()).add(q)

    def closure(start, edges) -> set:
        seen = set(start)
        work = list(start)
        while work:
            for r in edges.get(work.pop(), ()):
                if r not in seen:
                    seen.add(r)
                    work.append(r)
        return seen

    live = closure(n.initials, succ) & closure(n.finals, pred)
    if len(live) == n.state_count:
        return n
    if not live:
        return empty_language(n.alphabet)
    num = {q: i for i, q in enumerate(sorted(live))}
    return Nfa(n.alphabet, len(num), frozenset(num[q] for q in n.initials if q in live),
               frozenset(num[q] for q in n.finals if q in live),
               frozenset((num[q], a, num[r]) for (q, a, r) in n.transitions
                         if q in live and r in live))


def reverse(n: Nfa) -> Nfa:
    """The mirror image: the words of n spelled backwards."""
    return Nfa(n.alphabet, n.state_count, n.finals, n.initials,
               frozenset((r, a, q) for (q, a, r) in n.transitions))


def union_nfa(cover, alphabet: Alphabet) -> Nfa:
    """The union of a cover's pieces over the alphabet."""
    if not cover.pieces:
        return empty_language(alphabet)
    return nfa_union(*cover.pieces)


def fiber_nfa(alpha, targets, alphabet: Alphabet) -> Nfa:
    """Automaton of image⁻¹(targets) for a monoid morphism: the right
    Cayley graph of the monoid, rooted at the identity."""
    trans = {(m, a, alpha.mul[m][alpha.letter_image[a]])
             for m in range(alpha.size) for a in alphabet}
    return Nfa(alphabet, alpha.size, frozenset([alpha.identity]),
               frozenset(targets), frozenset(trans))


def cover_imprint(cover, rho) -> ImprintSet:
    """The imprint of a cover on a rating map: its pieces' images, and zero,
    downset-closed."""
    out = ImprintSet(rho.semiring, cap=DEFAULT_CAPS.max_elements, label="cover-imprint")
    out.insert(rho.semiring.zero)
    for p in cover.pieces:
        out.insert(rho.eval_nfa(p))
    return out


def cover_index_masks(cover, ext) -> frozenset:
    """The imprint of a cover over the language indices of an extension:
    the masks of the languages each piece meets, downset-closed."""
    return frozenset(sub for p in cover.pieces
                     for sub in saturation._mask_subsets(ext.index_set(ext.tau.eval_nfa(p))))


def is_submonoid(imprint: ImprintSet, mon=None) -> bool:
    """True iff the unit lies in the imprint and the imprint is closed under
    multiplication; a keyed imprint is over pairs of the monoid `mon` and
    the rating set.

    Products are monotone in both arguments, so closure over the maximal
    elements together with downward closure implies full closure.
    """
    sr = imprint.semiring
    maxes = imprint.maximal_elements()
    if not imprint.keyed:
        return sr.one in imprint and all(sr.mul(x, y) in imprint for x in maxes for y in maxes)
    return ((mon.identity, sr.one) in imprint
            and all((mon.mul[m1][m2], sr.mul(r1, r2)) in imprint
                    for (m1, r1) in maxes for (m2, r2) in maxes))


def is_subset(a: ImprintSet, b: ImprintSet) -> bool:
    """Downset inclusion: every maximum of a lies in b."""
    return all(item in b for item in a.maximal_elements())


class _Stack(deque):
    popleft = deque.pop


class LifoImprintSet(ImprintSet):
    """An `ImprintSet` that hands out its pending items last in, first out.

    The least fixpoint does not depend on the order of the worklist; tests
    install this class in place of `ImprintSet` (with monkeypatch) to run
    the engines in the other order.
    """

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.queue = _Stack()


def multiset_ext(items) -> Extension:
    """The combination of `rm_from_multiset`, with caller-chosen parts: the
    first part sits in the highest bits, so each acceptance mask moves up by
    the widths of the parts after it."""
    exts = list(items)
    parts = [e.tau.semiring for e in exts]
    sr = ProductSemiring(parts)
    alphabet = exts[0].tau.alphabet
    tau = RatingMap(alphabet, sr, tuple(map(sr.pack, zip(*(e.tau.letter_image for e in exts)))))
    accepts = tuple(e.accepts[0] << sum(p.nbits for p in parts[i + 1:])
                    for i, e in enumerate(exts))
    return Extension(tau, accepts)
