"""Automaton constructions, decisions, the transition monoid and the special
languages."""

import dataclasses
import functools
import random

import pytest
from hypothesis import given, strategies as st

from regcov import (DEFAULT_CAPS, Alphabet, DeterminizationCapError, InputError,
                    alphabet_exact, alphabet_star,
                    determinize, equivalent, includes, is_empty, minimize,
                    nfa_complement, nfa_concat, nfa_from_json, nfa_intersection,
                    nfa_to_regex, nfa_union, regex_to_nfa, transition_monoid,
                    universal_language, upward_closure)
from regcov import fa, rx
from regcov.fa import Nfa, empty_language

import reference_fa
from helpers import (alphabet_languages, denote_upto, exact_alphabet_regex, is_piece, nfa_of,
                     nfas, nfa_to_json, random_nfa, random_regex, trim, words_upto)

AB = Alphabet("ab")


def monoid_validate(m) -> list:
    """Exhaustive associativity/identity check; violations returned as data."""
    out = []
    for x in range(m.size):
        if m.mul[m.identity][x] != x or m.mul[x][m.identity] != x:
            out.append(f"identity law fails at element {x}")
    for x in range(m.size):
        for y in range(m.size):
            for z in range(m.size):
                if m.mul[m.mul[x][y]][z] != m.mul[x][m.mul[y][z]]:
                    out.append(f"associativity fails at ({x},{y},{z})")
    for a, img in m.letter_image.items():
        if not (0 <= img < m.size):
            out.append(f"letter image {a!r} -> {img} out of range")
    return out
ABC = Alphabet("abc")


def test_regex_to_nfa_agrees_with_denotation():
    rng = random.Random(11)
    for _ in range(80):
        node = random_regex(rng, "abc", 4)
        nfa = regex_to_nfa(node, ABC)
        want = denote_upto(node, "abc", 6)
        for w in words_upto("abc", 6):
            assert nfa.accepts(w) == (w in want), (node, w)


def test_epsilon_and_empty_and_plus():
    eps = nfa_of("%eps", "ab")
    assert eps.accepts("") and not eps.accepts("a")
    empty = nfa_of("%empty", "ab")
    assert is_empty(empty)
    aplus = nfa_of("a+", "ab")
    assert aplus.accepts("a") and aplus.accepts("aaa")
    assert not aplus.accepts("") and not aplus.accepts("b")
    abplus = nfa_of("(ab)+", "ab")
    assert abplus.accepts("abab") and not abplus.accepts("aba")


def test_combine_union_intersection():
    l1 = nfa_of("a+|b+", "abc")
    l2 = nfa_of("b+|c+", "abc")
    both = nfa_intersection(l1, l2)
    assert both.accepts("b") and both.accepts("bb")
    assert not both.accepts("a") and not both.accepts("c")
    same = nfa_union(l1, nfa_of("%empty", "abc"))
    assert equivalent(same, l1)
    three = nfa_union(l1, l2, nfa_of("c(ac)+", "abc"))
    assert three.accepts("a") and three.accepts("c") and three.accepts("cac")
    assert not three.accepts("ab")
    assert nfa_union(l1) == l1


def test_pairwise_intersections_meet_but_triple_is_empty():
    l0 = nfa_of("a+|b+", "abc")
    l1 = nfa_of("b+|c+", "abc")
    l2 = nfa_of("c+|a+", "abc")
    assert not is_empty(nfa_intersection(l0, l1))
    assert not is_empty(nfa_intersection(l0, l2))
    assert is_empty(nfa_intersection(nfa_intersection(l0, l1), l2))
    assert not is_empty(l0, l1) and not is_empty(l2, l0) and is_empty(l0, l1, l2)


@given(st.sampled_from([AB, ABC]).flatmap(lambda a: st.lists(nfas(a), min_size=1, max_size=3)))
def test_emptiness_of_an_intersection_matches_the_product_automaton(langs):
    # is_empty walks the tuples of states on one word and builds no product;
    # it stops only at a tuple whose states are all final
    assert is_empty(*langs) == is_empty(functools.reduce(nfa_intersection, langs))


def test_concat_matches_denotation():
    rng = random.Random(3)
    for _ in range(40):
        n1 = random_regex(rng, "ab", 2)
        n2 = random_regex(rng, "ab", 2)
        got = nfa_concat(regex_to_nfa(n1, AB), regex_to_nfa(n2, AB))
        want = denote_upto(__import__("regcov").rx.Concat(n1, n2), "ab", 5)
        for w in words_upto("ab", 5):
            assert got.accepts(w) == (w in want)


def test_complement_basics():
    assert is_empty(nfa_complement(universal_language(ABC)))
    assert equivalent(nfa_complement(empty_language(ABC)), universal_language(ABC))
    nob = nfa_complement(nfa_of("(a|b|c)*b(a|b|c)*", "abc"))
    assert nob.accepts("ac") and not nob.accepts("ab")


def test_de_morgan():
    rng = random.Random(5)
    for _ in range(15):
        x = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        y = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        lhs = nfa_complement(nfa_union(x, y))
        rhs = nfa_intersection(nfa_complement(x), nfa_complement(y))
        assert equivalent(lhs, rhs)


def test_decisions():
    assert is_empty(nfa_of("%empty", "ab"))
    assert includes(nfa_of("a+", "ab"), nfa_of("(a|b)*a(a|b)*", "ab"))
    assert equivalent(nfa_of("(a|b)*", "ab"), universal_language(AB))
    assert nfa_of("a+", "ab").accepts("aa")
    # cross-check inclusion by word sampling
    for w in words_upto("ab", 5):
        if nfa_of("a+", "ab").accepts(w):
            assert nfa_of("(a|b)*a(a|b)*", "ab").accepts(w)


def test_alphabet_mismatch_rejected():
    with pytest.raises(InputError):
        nfa_union(nfa_of("a", "ab"), nfa_of("a", "abc"))
    with pytest.raises(InputError):
        is_empty(nfa_of("a", "ab"), nfa_of("b", "ab"), nfa_of("a", "abc"))


def test_alphabet_members_are_its_letters_and_no_grammar_character():
    assert "a" in AB and all(sym not in AB for sym in ("", "ab", "ba", None, 0))
    with pytest.raises(InputError, match="not in alphabet"):
        AB.index("")
    for symbols in ("a|", "(a", "a)", "*a", "a+", "%", "a b", "\ta"):
        with pytest.raises(InputError, match="reserved by the regex grammar"):
            Alphabet(symbols)


def test_transition_monoid_universal_is_trivial():
    alpha, acc = transition_monoid(universal_language(AB))
    assert alpha.size == 1
    assert acc == frozenset([0])


def test_transition_monoid_even_as():
    alpha, acc = transition_monoid(nfa_of("(aa)*", "a"))
    # brute-force closure of the letter transformation has exactly 2 elements
    assert alpha.size == 2
    assert monoid_validate(alpha) == []
    assert alpha.image("") in acc and alpha.image("aa") in acc
    assert alpha.image("a") not in acc


def test_transition_monoid_recognizes_language():
    rng = random.Random(13)
    for _ in range(20):
        node = random_regex(rng, "ab", 3)
        nfa = regex_to_nfa(node, AB)
        alpha, acc = transition_monoid(nfa)
        assert monoid_validate(alpha) == []
        for w in words_upto("ab", 5):
            assert (alpha.image(w) in acc) == nfa.accepts(w)
        for _ in range(20):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            assert alpha.image(u + v) == alpha.mul[alpha.image(u)][alpha.image(v)]


def test_upward_closure_piece_semantics():
    up = upward_closure(nfa_of("ab", "ab"))
    for w in words_upto("ab", 4):
        assert up.accepts(w) == is_piece("ab", w)
    assert up.accepts("ab") and up.accepts("aab") and up.accepts("bab")
    assert not up.accepts("ba")


def test_upward_closure_idempotent_extensive():
    rng = random.Random(17)
    for _ in range(15):
        nfa = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        up = upward_closure(nfa)
        assert includes(nfa, up)
        assert equivalent(upward_closure(up), up)


def test_alphabet_languages():
    star, exact = alphabet_languages(ABC, "")
    assert star.accepts("") and exact.accepts("")
    assert not star.accepts("a") and not exact.accepts("a")
    star, exact = alphabet_languages(ABC, "ab")
    assert exact.accepts("ab") and exact.accepts("ba")
    assert not exact.accepts("a") and not exact.accepts("abc")
    assert includes(exact, star)


def test_exact_alphabet_decomposition():
    # exact(B) = B* minus the words missing some letter of B
    for subset in ["a", "ab", "abc"]:
        exact = alphabet_exact(ABC, subset)
        check = alphabet_star(ABC, subset)
        for b in subset:
            contains_b = nfa_of(f"(a|b|c)*{b}(a|b|c)*", "abc")
            check = nfa_intersection(check, contains_b)
        assert equivalent(exact, check)


def test_exact_atom_against_ccac():
    ccac = nfa_of("c(ac)+", "abc")
    assert is_empty(nfa_intersection(alphabet_exact(ABC, "ab"), ccac))
    assert not is_empty(nfa_intersection(alphabet_exact(ABC, "ac"), ccac))


def test_exact_alphabet_regex_matches_nfa():
    for subset in ["", "a", "ab", "abc"]:
        reg = exact_alphabet_regex(ABC, subset)
        assert equivalent(regex_to_nfa(reg, ABC), alphabet_exact(ABC, subset))


def test_minimize_canonical():
    d1 = minimize(nfa_of("a+", "ab"))
    d2 = minimize(nfa_of("aa*", "ab"))
    assert d1 == d2


def test_nfa_json_roundtrip():
    nfa = nfa_of("a(b|c)*", "abc")
    doc = nfa_to_json(nfa)
    assert nfa_from_json(doc) == nfa


@pytest.mark.parametrize("field, bad", [
    ("states", 2.0), ("states", "2"), ("states", True), ("initials", 0.5),
    ("initials", "0"), ("finals", True), ("finals", None), ("source", 1.9), ("target", False)])
def test_nfa_json_refuses_state_ids_that_are_no_integers(field, bad):
    # int() truncated floats and read Booleans and digit strings as states
    doc = nfa_to_json(nfa_of("a(b|c)*", "abc"))
    if field == "states":
        doc["states"] = bad
    elif field in ("source", "target"):
        q, a, r = doc["transitions"][0]
        doc["transitions"][0] = [bad, a, r] if field == "source" else [q, a, bad]
    else:
        doc[field].append(bad)
    with pytest.raises(InputError, match=f"bad NFA JSON: {bad!r} is not an integer"):
        nfa_from_json(doc)


def test_nfa_to_regex_roundtrip():
    rng = random.Random(23)
    for _ in range(20):
        nfa = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        back = regex_to_nfa(nfa_to_regex(nfa), AB)
        assert equivalent(nfa, back)


def test_determinize_and_nfa_to_regex_match_the_references():
    # bitmask subsets and degrees kept up to date must reproduce the earlier
    # algorithms exactly: same state numbering, same regex text
    rng = random.Random(31)
    for _ in range(150):
        nfa = random_nfa(rng, rng.choice([AB, ABC]), 7)
        assert determinize(nfa) == reference_fa.determinize(nfa)
        assert (rx.regex_to_text(nfa_to_regex(nfa))
                == rx.regex_to_text(reference_fa.nfa_to_regex(nfa)))


def test_includes_matches_complement_and_intersect():
    # on the fly, the search stops at the first counterexample; it must
    # agree with the complement of the whole subset construction both ways
    rng = random.Random(41)
    counts = {True: 0, False: 0}
    for _ in range(300):
        alphabet, p = rng.choice([AB, ABC]), rng.choice([0.3, 0.5])
        lhs, rhs = random_nfa(rng, alphabet, 5, p), random_nfa(rng, alphabet, 5, p)
        for x, y in ((lhs, rhs), (rhs, lhs)):
            want = reference_fa.includes(x, y)
            assert includes(x, y) == want
            counts[want] += 1
    assert min(counts.values()) > 100


def test_includes_counts_only_the_subsets_it_visits():
    # the word a^11 of lhs visits the subsets {0}, ..., {11} of rhs, while
    # b and c lead rhs to many more, which the full construction meets
    n = 12
    rhs = Nfa(ABC, n, {0}, {n - 1},
              {(q, "a", q + 1) for q in range(n - 1)}
              | {(q, b, r) for q in range(n) for r in range(n) for b in "bc" if (q + r) % 3})
    lhs = nfa_of("a" * (n - 1), "abc")
    caps = DEFAULT_CAPS.with_overrides(max_det_states=n)
    assert includes(lhs, rhs, caps)
    with pytest.raises(DeterminizationCapError):
        includes(lhs, rhs, caps.with_overrides(max_det_states=n - 1))
    with pytest.raises(DeterminizationCapError):
        nfa_complement(rhs, caps)


def test_transition_monoid_matches_the_reference():
    # the table filled from the right Cayley graph must reproduce the table of
    # composed transformations: same numbering, products and accepting set
    rng = random.Random(37)
    nfas = [random_nfa(rng, rng.choice([AB, ABC]), 6) for _ in range(80)]
    nfas.append(random_nfa(random.Random(98), AB, 8, 0.3))
    sizes = []
    for nfa in nfas:
        alpha, acc = transition_monoid(nfa)
        ref, ref_acc = reference_fa.transition_monoid(nfa)
        assert (alpha.size, alpha.mul, alpha.letter_image, acc) == (
            ref.size, ref.mul, ref.letter_image, ref_acc)
        if alpha.size <= 40:
            assert monoid_validate(alpha) == []
        sizes.append(alpha.size)
    assert max(sizes) == 262 and sum(s > 40 for s in sizes) >= 10


def test_monoid_table_is_normalised_to_tuples():
    from regcov import MonoidMorphism
    z2 = MonoidMorphism(2, 0, [[0, 1], (1, 0)], {"a": 1})
    assert z2.mul == ((0, 1), (1, 0)) and type(z2.mul[0]) is tuple


def test_broken_monoid_reports_violation():
    from regcov import MonoidMorphism
    bad = MonoidMorphism(2, 0, ((0, 1), (1, 1)), {"a": 1})
    # force associativity breakage: make a non-associative table
    bad2 = MonoidMorphism(3, 0, ((0, 1, 2), (1, 2, 2), (2, 2, 1)), {"a": 1})
    assert monoid_validate(bad) == []
    assert monoid_validate(bad2) != []


def test_upward_closure_of_empty_and_universal():
    from regcov.fa import empty_language
    assert is_empty(upward_closure(empty_language(AB)))
    assert equivalent(upward_closure(universal_language(AB)), universal_language(AB))


def test_trim_drops_dead_and_unreachable_states():
    lang = nfa_of("(ab)+", "abc")
    complete = minimize(lang).as_nfa()      # has a sink
    trimmed = trim(complete)
    assert trimmed.state_count == complete.state_count - 1
    assert equivalent(trimmed, lang)
    assert trim(trimmed) is trimmed
    # state 2 is unreachable, state 3 cannot reach a final state
    n = Nfa(AB, 4, {0}, {1}, {(0, "a", 1), (2, "b", 1), (0, "b", 3)})
    assert trim(n) == Nfa(AB, 2, {0}, {1}, {(0, "a", 1)})
    assert trim(nfa_of("%empty", "ab")) == empty_language(AB)


def test_step_map_is_cached_outside_the_fields():
    n = nfa_of("a(b|c)*", "abc")
    fresh = nfa_of("a(b|c)*", "abc")
    assert n.step_map() == fresh.step_map()
    assert n == fresh and hash(n) == hash(fresh)
    assert repr(n) == repr(fresh)


def test_explore_numbers_in_bfs_order_and_stops_past_its_cap():
    from regcov.fa import explore

    # the successors of q are q + 1 and 2q mod 5
    def succ(q):
        return [(q + 1) % 5, 2 * q % 5]

    states, rows = explore(1, succ, 5)
    assert states == [1, 2, 3, 4, 0]
    assert rows == [(1, 1), (2, 3), (3, 0), (4, 2), (0, 4)]
    assert explore(1, succ, 4) is None


def _fo2_state(caps):
    """The fo2 synthesis state of the worked example, and a machine of it
    that needs reversing."""
    from regcov import ClassId, decide_universal_covering, rm_from_multiset
    from regcov.covers import _Fo2State

    langs = [nfa_of("(ab)+", "abc"), nfa_of("c(ac)+", "abc")]
    dec = decide_universal_covering(rm_from_multiset(langs), ClassId.FO2, target_index=0)
    state = _Fo2State(dec.rating_map, dec.raw_imprint, DEFAULT_CAPS)
    one = (0, dec.rating_map.semiring.one)
    state.node(0b111, one, one)
    machine = max((m for _, m in state._nodes.values()), key=lambda m: len(m[0]))
    return _Fo2State(dec.rating_map, dec.raw_imprint, caps), machine


@st.composite
def labelled_dfas(draw):
    """(delta, initial, labels) of a complete DFA of 1 to 40 states over 1
    to 16 letters whose states carry labels drawn with None; the palette
    (None,) gives the machines that are one sink.  The transitions and
    labels come from a drawn `random.Random`, as lists of draws shrink
    towards machines of one label."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 16))
    palette = draw(st.sampled_from([(None, 0, 1, 2), (0, 1), (None, 0), (None,)]))
    rng = draw(st.randoms(use_true_random=False))
    delta = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
    return delta, rng.randrange(n), [rng.choice(palette) for _ in range(n)]


@given(labelled_dfas())
def test_moore_kernels_match_their_references(drawn):
    # the column-gathering minimization and reversal give the machines of
    # the map-based references, and stop on max_det_states at the same cap
    from types import SimpleNamespace

    from regcov.covers import _Fo2State

    want = reference_fa.minimize_labelled(*drawn)
    assert fa.minimize_labelled(*drawn) == want

    def outcome(flip, cap):
        try:
            return flip(cap)
        except DeterminizationCapError as exc:
            return exc.cap

    def flip(cap):
        caps = dataclasses.replace(DEFAULT_CAPS, max_det_states=cap)
        return _Fo2State._flip(SimpleNamespace(caps=caps), want)

    reference = functools.partial(reference_fa.flip, want)
    full = outcome(reference, 2_000)
    assert outcome(flip, 2_000) == full
    if type(full) is tuple:
        n = len(full[0])
        assert [outcome(flip, cap) for cap in (n - 1, n)] == [outcome(reference, n - 1), full]


def _cap_case(name):
    """(run(caps), the cap field, which is also the name the error gives,
    the size the cap bounds, error type) of each closure that `fa.explore`
    runs, directly or through `rating.reach`: "fo2 word images" reaches
    (content, image) pairs, "partition-imprint" the (class, image) pairs of
    a bsigma1 partition, both bounded by `max_elements`."""
    from regcov import (DeterminizationCapError, MonoidCapError, PtStateCapError,
                        SaturationCapError)
    from regcov.pieces import pt_partition

    if name == "determinize":
        nfa = nfa_of("(a|b)*a(a|b)(a|b)", "ab")
        return (lambda caps: determinize(nfa, caps), "max_det_states",
                lambda d: d.state_count, DeterminizationCapError)
    if name == "pt_partition":
        return (lambda caps: pt_partition(3, AB, caps), "max_pt_states",
                lambda built: built[0].state_count, PtStateCapError)
    if name == "flip":
        def flip(caps):
            state, machine = _fo2_state(caps)
            return state._flip(machine)
        return flip, "max_det_states", lambda m: len(m[0]), DeterminizationCapError
    if name == "transition_monoid":
        nfa = nfa_of("(ab)+|a(ba)*b", "ab")
        return (lambda caps: transition_monoid(nfa, caps), "max_monoid",
                lambda built: built[0].size, MonoidCapError)
    if name == "partition-imprint":
        from regcov import ClassId, decide_universal_covering, rm_from_multiset
        from regcov.covers import _partition_images
        from regcov.rating import reach

        langs = [nfa_of("(ab)+", "abc"), nfa_of("c(ac)+", "abc")]
        rho = decide_universal_covering(rm_from_multiset(langs), ClassId.BSIGMA1,
                                        target_index=0).rating_map
        pa, _ = pt_partition(2, rho.alphabet)
        pairs = reach(rho.semiring, pa.delta, pa.initial, rho.letter_image,
                      DEFAULT_CAPS.max_elements, name)
        return (lambda caps: _partition_images(pa, rho, caps), "max_elements",
                lambda images: len(pairs), SaturationCapError)
    assert name == "fo2 word images"
    return (lambda caps: _fo2_state(caps)[0]._word_images(), "max_elements",
            len, SaturationCapError)


@pytest.mark.parametrize("name", ["determinize", "pt_partition", "flip",
                                  "transition_monoid", "fo2 word images",
                                  "partition-imprint"])
def test_closure_caps_bound_the_exact_count(name):
    # a cap equal to the size of the closure lets it through unchanged, one
    # less stops it with the cap's own error
    from dataclasses import replace

    from regcov.fa import _dfa_monoid

    run, field, size, error = _cap_case(name)
    want = run(DEFAULT_CAPS)
    n = size(want)
    assert n > 1
    assert run(replace(DEFAULT_CAPS, **{field: n})) == want
    with pytest.raises(error) as raised:
        run(replace(DEFAULT_CAPS, **{field: n - 1}))
    assert raised.value.cap_name == field and raised.value.cap == n - 1
    if field == "max_elements":
        assert raised.value.what == name
    if name == "transition_monoid":
        dfa = minimize(nfa_of("(ab)+|a(ba)*b", "ab"))
        morphism, reached = _dfa_monoid(dfa, n)
        accepting = frozenset(i for i, q in enumerate(reached) if q in dfa.finals)
        assert (morphism, accepting) == want and _dfa_monoid(dfa, n - 1) is None
