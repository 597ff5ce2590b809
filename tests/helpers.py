"""Shared test utilities: seeded generators, brute-force oracles, and the
small constructions that only tests use."""

from __future__ import annotations

import random
from dataclasses import replace

from regcov import (Alphabet, DEFAULT_CAPS, ImprintSet, Nfa, alphabet_exact,
                    alphabet_star, includes, is_empty, nfa_intersection,
                    regex_parse, regex_to_nfa)
from regcov import rx, saturation


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


def words_upto(symbols: str, maxlen: int):
    import itertools
    for k in range(maxlen + 1):
        for tup in itertools.product(symbols, repeat=k):
            yield "".join(tup)


def nfa_of(text: str, symbols: str) -> Nfa:
    return regex_to_nfa(regex_parse(text, symbols), Alphabet(symbols))


def piece_images_distinct(cover, rho) -> bool:
    """True when no two pieces of the cover have the same image under rho."""
    images = [rho.eval_nfa(p.nfa) for p in cover.pieces]
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
    """Reference for `regcov.pieces.is_union_of_classes`: every class
    meeting the language lies inside it, checked class by class."""
    return all(is_empty(nfa_intersection(cls, nfa)) or includes(cls, nfa, caps)
               for cls in classes)


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
    out = ImprintSet(rho.semiring, alpha, cap=DEFAULT_CAPS.max_elements, label="trivial")
    saturation._saturate(out, *saturation._words(rho, alpha), None)
    return out


def _map_imprint(imprint: ImprintSet, fn, semiring, label: str) -> ImprintSet:
    """Image of a universal or pointed imprint under a monotone map of its
    rating-set elements, downset-closed: the images of the maxima generate
    it."""
    out = ImprintSet(semiring, imprint.monoid, cap=imprint.cap,
                     label=f"{imprint.label}-{label}")
    for item in imprint.maximal_elements():
        out.insert(fn(item) if imprint.monoid is None else (item[0], fn(item[1])))
    return out


def imprint_pullback(ext, imprint: ImprintSet) -> ImprintSet:
    """Image of an imprint under the extension's index map: the index masks
    of the languages its elements meet, downset-closed.  The masks are
    ordered by inclusion but multiplied by nothing, so the result has no
    semiring."""
    return _map_imprint(imprint, ext.index_set, None, "pullback")


def strip_content(aug, imprint: ImprintSet, semiring) -> ImprintSet:
    """An imprint over the alphabet augmentation `aug` with the content field
    shifted off: the same kind of imprint over the base values, elements of
    `semiring`."""
    width = aug.tau.cont.nbits
    return _map_imprint(imprint, lambda x: x >> width, semiring, "base")
