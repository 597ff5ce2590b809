"""Piece equivalence, the partition automaton and template witnesses."""

import functools
import random

import pytest
from hypothesis import given, strategies as st

from dataclasses import replace

from regcov import (Alphabet, alphabet_exact, equivalent, is_empty, nfa_intersection,
                    nfa_union, pt_partition, regex_to_nfa, universal_language)
from regcov.pieces import are_unions_of_classes

import reference_fa
from helpers import (is_k_piecewise_testable, is_piece, is_union_of_classes_per_class, nfas,
                     partition_classes, random_nfa, state_of, words_upto)
from templates import bsigma1_template_witness, template_regex, template_unambiguous

AB = Alphabet("ab")


def pieces_upto(word: str, k: int) -> frozenset:
    """All pieces of the word of length at most k."""
    out = {""}
    for a in word:
        out |= {u + a for u in out if len(u) < k}
    return frozenset(out)


def test_pieces_upto_brute_force():
    rng = random.Random(8)
    for _ in range(40):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        k = rng.randint(0, 3)
        want = {u for u in words_upto("ab", k) if is_piece(u, w)}
        assert pieces_upto(w, k) == frozenset(want)


def test_pt_partition_k0():
    pa, _ = pt_partition(0, AB)
    assert pa.state_count == 1
    assert equivalent(partition_classes(pa)[0], universal_language(AB))


def test_pt_partition_k1_classifies_by_alphabet():
    pa, _ = pt_partition(1, AB)
    assert pa.state_count == 4
    for w in words_upto("ab", 4):
        for v in words_upto("ab", 4):
            same = state_of(pa, w) == state_of(pa, v)
            assert same == (set(w) == set(v))


def test_pt_partition_is_piece_equivalence():
    pa, _ = pt_partition(2, AB)
    for w in words_upto("ab", 4):
        for v in words_upto("ab", 4):
            same = state_of(pa, w) == state_of(pa, v)
            assert same == (pieces_upto(w, 2) == pieces_upto(v, 2))


def test_pt_partition_classes_partition_all_words():
    pa, _ = pt_partition(2, AB)
    classes = partition_classes(pa)
    union = classes[0]
    for cls in classes[1:]:
        union = nfa_union(union, cls)
    assert equivalent(union, universal_language(AB))
    for i, c1 in enumerate(classes):
        for c2 in classes[i + 1:]:
            assert is_empty(nfa_intersection(c1, c2))


def test_product_class_check_matches_the_per_class_check():
    rng = random.Random(19)
    verdicts = []
    for symbols, depths, count in (("ab", range(4), 6), ("abc", range(3), 3)):
        alphabet = Alphabet(symbols)
        for k in depths:
            pa, _ = pt_partition(k, alphabet)
            unions = [replace(pa, finals=frozenset(q for q in range(pa.state_count)
                                                   if rng.random() < 0.5)).as_nfa()
                      for _ in range(count)]
            assert are_unions_of_classes(unions, pa)
            langs = [random_nfa(rng, alphabet, 3) for _ in range(count)] + unions
            # the unions of k-classes are also checked against the coarser (k-1)-classes
            for part in [pa] + ([pt_partition(k - 1, alphabet)[0]] if k else []):
                classes = partition_classes(part)
                want = {id(nfa): is_union_of_classes_per_class(nfa, classes) for nfa in langs}
                # every language alone, then lists of one to four of them
                lists = [[nfa] for nfa in langs]
                lists += [rng.sample(langs, rng.randint(1, 4)) for _ in range(count)]
                for batch in lists:
                    got = are_unions_of_classes(batch, part)
                    assert got == all(want[id(nfa)] for nfa in batch), (symbols, k)
                    verdicts.append(got)
    assert verdicts.count(False) > 20 and verdicts.count(True) > 20


@given(st.integers(0, 2), st.data())
def test_batched_class_check_matches_the_per_class_check_on_shrinking_nfas(k, data):
    pa, _ = pt_partition(k, AB)
    # unions of classes, so that lists of only unions are drawn too
    unions = st.frozensets(st.integers(0, pa.state_count - 1)).map(
        lambda finals: replace(pa, finals=finals).as_nfa())
    langs = data.draw(st.lists(st.one_of(nfas(AB), unions), min_size=1, max_size=4))
    classes = partition_classes(pa)
    assert are_unions_of_classes(langs, pa) == all(
        is_union_of_classes_per_class(nfa, classes) for nfa in langs)


def test_one_piece_classes_are_the_alphabet_atoms():
    rng = random.Random(23)
    for symbols in ("ab", "abc"):
        alphabet = Alphabet(symbols)
        pa, _ = pt_partition(1, alphabet)
        atoms = [alphabet_exact(alphabet, alphabet.from_mask(m))
                 for m in range(1 << len(alphabet))]
        langs = [random_nfa(rng, alphabet, 3) for _ in range(8)]
        langs += [nfa_union(*rng.sample(atoms, rng.randint(1, len(atoms))))
                  for _ in range(8)]
        for nfa in langs:
            assert are_unions_of_classes([nfa], pa) == is_union_of_classes_per_class(nfa, atoms)


def test_is_k_piecewise_testable():
    contains_a = regex_to_nfa(__import__("regcov").regex_parse("(a|b)*a(a|b)*", "ab"), AB)
    assert is_k_piecewise_testable(contains_a, 1)
    even_as = regex_to_nfa(__import__("regcov").regex_parse("(aa)*", "a"), Alphabet("a"))
    assert not is_k_piecewise_testable(even_as, 3)


def test_template_witness_epsilon():
    template, reg = bsigma1_template_witness("", 2, AB)
    assert template == ()
    nfa = regex_to_nfa(reg, AB)
    assert nfa.accepts("") and not nfa.accepts("a")


def test_template_witness_short_distinct_letters():
    ab3 = Alphabet("abc")
    template, reg = bsigma1_template_witness("abc", 2, ab3)
    assert template == ("a", "b", "c")
    assert regex_to_nfa(reg, ab3).accepts("abc")


def test_template_witness_power_word_collapses():
    n = 2
    w = "a" * (3 * (n + 2))
    template, reg = bsigma1_template_witness(w, n, AB)
    assert len(template) == 1
    (b, bset, c) = template[0]
    assert bset == frozenset("a") and b == "a" and c == "a"
    assert regex_to_nfa(reg, AB).accepts(w)


def test_template_witness_property():
    rng = random.Random(77)
    for _ in range(60):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 20)))
        n = rng.randint(1, 3)
        template, reg = bsigma1_template_witness(w, n, AB)
        assert template_unambiguous(template)
        bound = (n + 2) ** len(set(w)) - 1
        assert len(template) <= bound
        assert regex_to_nfa(reg, AB).accepts(w)


def test_template_regex_units():
    reg = template_regex(("a",), 1, AB)
    nfa = regex_to_nfa(reg, AB)
    assert nfa.accepts("a") and not nfa.accepts("aa")
    tri = template_regex((("a", frozenset("ab"), "b"),), 1, AB)
    nfa = regex_to_nfa(tri, AB)
    # needs marker a, one mixed block, marker b: "aabb" has a, then "ab", then b
    assert nfa.accepts("aabb")
    assert not nfa.accepts("ab")  # too short for a full block between markers
    assert not nfa.accepts("aaaa")  # no b at all


def test_template_witness_rejects_bad_input():
    with pytest.raises(ValueError):
        bsigma1_template_witness("ab", 0, AB)
    with pytest.raises(ValueError):
        bsigma1_template_witness("x", 1, AB)


def test_template_witness_adjacent_incomparable_triples():
    # both halves collapse into triples whose alphabets are incomparable;
    # the marker letters must then come from the alphabet differences
    abc = Alphabet("abc")
    w = "ac" * 6 + "ab" * 12
    template, reg = bsigma1_template_witness(w, 1, abc)
    assert template == (("a", frozenset("ac"), "c"), ("b", frozenset("ab"), "a"))
    assert template_unambiguous(template)
    assert regex_to_nfa(reg, abc).accepts(w)


def test_pt_partition_class_counts():
    assert [pt_partition(k, AB)[0].state_count for k in range(5)] == [1, 4, 16, 68, 312]


@pytest.mark.parametrize("symbols, k", [(ab, k) for ab in ("a", "ab", "abc") for k in range(4)]
                         + [("ab", 4)])
def test_pt_partition_matches_the_reference(symbols, k):
    alphabet = Alphabet(symbols)
    assert pt_partition(k, alphabet)[0] == reference_fa.pt_partition(k, alphabet)


@functools.cache
def reference_piece_sets(symbols: str, k: int) -> tuple:
    """(the reference k-piece partition, the bitmask of each state's piece
    set in `reference_fa.piece_order`)."""
    alphabet = Alphabet(symbols)
    pa, sets = reference_fa.piece_sets(k, alphabet)
    bit = {u: 1 << i for i, u in enumerate(reference_fa.piece_order(k, alphabet))}
    return pa, [sum(bit[u] for u in s) for s in sets]


def truncation(s: int, symbols: str, j: int) -> int:
    """The pieces of length at most j of the piece set s."""
    return s & ((1 << len(reference_fa.piece_order(j, Alphabet(symbols)))) - 1)


@st.composite
def refinements(draw):
    """(letters, K, open classes of depths below K, closed under truncation):
    the open j-classes are drawn among the reference j-classes whose
    (j-1)-truncation is open."""
    symbols = draw(st.sampled_from(["a", "ab", "abc"]))
    k = draw(st.integers(0, 4 if len(symbols) < 3 else 3))
    open_classes: set = set()
    for j in range(k):
        candidates = [s for s in reference_piece_sets(symbols, j)[1]
                      if j == 0 or (j - 1, truncation(s, symbols, j - 1)) in open_classes]
        keep = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
        open_classes |= {(j, s) for s, kept in zip(candidates, keep) if kept}
    return symbols, k, open_classes


def pairs(first, second) -> set:
    """The pairs of states of two complete DFAs reached by one word."""
    start = (first.initial, second.initial)
    seen = {start}
    work = [start]
    while work:
        p, r = work.pop()
        for nxt in zip(first.delta[p], second.delta[r]):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


@given(refinements())
def test_refined_partition_states_are_piece_classes(drawn):
    symbols, k, open_classes = drawn
    pa, classes = pt_partition(k, Alphabet(symbols), open=open_classes)
    # each state (j, S) is tracked at depth j exactly as the open classes say
    for j, s in classes:
        assert all(any(truncation(s, symbols, i) | o == o for i2, o in open_classes if i2 == i)
                   for i in range(j))
        assert j == k or not any(s | o == o for i2, o in open_classes if i2 == j)
    # ... and is exactly the j-class S of the reference j-piece partition
    for j in range(k + 1):
        ref, masks = reference_piece_sets(symbols, j)
        met: dict = {}
        for p, r in pairs(pa, ref):
            met.setdefault(("p", p), set()).add(r)
            met.setdefault(("r", r), set()).add(p)
        for p, (depth, s) in enumerate(classes):
            if depth == j:
                [r] = met[("p", p)]
                assert masks[r] == s and met[("r", r)] == {p}
    # so the partition is a quotient of the reference K-piece partition,
    # and the labelled check of the covers' tests holds
    ref, masks = reference_piece_sets(symbols, k)
    to = {}
    for p, r in pairs(pa, ref):
        assert to.setdefault(r, p) == p
    assert len(to) == ref.state_count
    assert reference_fa.is_refined_partition(pa, classes, k)
    # with every class open, it is the reference itself
    assert pt_partition(k, Alphabet(symbols)) == (ref, [(k, s) for s in masks])
