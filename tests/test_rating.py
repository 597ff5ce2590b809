"""Rating-map constructions, evaluation and extensions."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regcov import (DEFAULT_CAPS, Alphabet, AlphabetSemiring, Caps, ClassId, InputError,
                    MonoidCapError, Nfa, PowersetMonoidSemiring, ProductSemiring, RatingMap,
                    RelationSemiring, SaturationCapError, at_imprint, decide_universal_covering,
                    is_empty, minimize, nfa_complement, nfa_intersection, nfa_union, regex_to_nfa,
                    rm_alphabet_augment, rm_from_morphism, rm_from_multiset,
                    rm_from_nfa, transition_monoid, universal_language)
from regcov.fa import alphabet_exact
from regcov.imprints import ImprintSet

from explicit_engine import downset, members, submasks
from helpers import (alphabet_languages, eval_word, imprint_pullback, leq, mask_of, multiset_ext,
                     nfa_of, nfas, random_nfa, random_regex, rm_trivial_imprint, strip_content,
                     words_upto)
from reference_rating import joint_star_exact, reference_extension

AB = Alphabet("ab")
ABC = Alphabet("abc")
ABCD = Alphabet("abcd")


def e1_multiset():
    return [nfa_of("(ab)+", "abc"), nfa_of("b(ab)+", "abc"), nfa_of("c(ac)+", "abc")]


def test_rm_from_morphism_word_images_are_singletons():
    alpha, acc = transition_monoid(nfa_of("a+", "ab"))
    ext = rm_from_morphism(alpha, acc)
    rng = random.Random(1)
    for _ in range(30):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
        assert eval_word(ext.tau, w) == 1 << alpha.image(w)
    assert eval_word(ext.tau, "") == ext.tau.semiring.one


def test_rm_from_morphism_delta_is_intersection_test():
    alpha, acc = transition_monoid(nfa_of("a+", "ab"))
    lang = nfa_of("a+", "ab")
    ext = rm_from_morphism(alpha, acc)
    rng = random.Random(2)
    for _ in range(20):
        node = random_regex(rng, "ab", 3)
        k = regex_to_nfa(node, AB)
        hit = ext.index_set(ext.tau.eval_nfa(k)) == 1
        assert hit == (not is_empty(nfa_intersection(k, lang)))


def test_rm_from_nfa_images():
    one_state = universal_language(AB)
    ext = rm_from_nfa(one_state)
    sr = ext.tau.semiring
    assert eval_word(ext.tau, "abab") == sr.pair(0, 0)
    aplus = nfa_of("a+", "ab")
    ext2 = rm_from_nfa(aplus)
    img = ext2.tau.letter_image[AB.index("a")]
    want = 0
    for (q, s, r) in aplus.transitions:
        if s == "a":
            want |= ext2.tau.semiring.pair(q, r)
    assert img == want


@pytest.mark.parametrize("drop, extra", [(1, 0), (0, 1)])
def test_letter_images_must_number_the_letters(drop, extra):
    # a rating map holds one letter image per letter, in alphabet order
    tau = rm_from_nfa(nfa_of("(ab)+", "ab")).tau
    images = tau.letter_image[:len(tau.letter_image) - drop] + (tau.semiring.one,) * extra
    with pytest.raises(InputError, match="letter images for 2 letters"):
        RatingMap(AB, tau.semiring, images)


def test_rm_from_nfa_delta_matches_emptiness():
    lang = nfa_of("(ab)+", "ab")
    ext = rm_from_nfa(lang)
    rng = random.Random(3)
    for _ in range(20):
        k = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        hit = ext.index_set(ext.tau.eval_nfa(k)) == 1
        assert hit == (not is_empty(nfa_intersection(k, lang)))


def test_rm_from_multiset_e1_values():
    ext = rm_from_multiset(e1_multiset())
    # the {a,b} atom meets exactly the first two languages
    exact_ab = ext.tau.image_of_exact(mask_of(ABC, "ab"))
    assert ext.index_set(exact_ab) == 0b011
    assert ext.index_set(ext.tau.eval_nfa(nfa_of("%empty", "abc"))) == 0
    assert ext.tau.eval_nfa(nfa_of("%empty", "abc")) == ext.tau.semiring.zero
    # A*bA* meets exactly the first two languages as well
    img = ext.tau.eval_nfa(nfa_of("(a|b|c)*b(a|b|c)*", "abc"))
    assert ext.index_set(img) == 0b011


def test_rm_from_multiset_rejects_empty_and_mixed_alphabets():
    with pytest.raises(InputError):
        rm_from_multiset([])
    with pytest.raises(InputError):
        rm_from_multiset([nfa_of("a", "ab"), nfa_of("a", "abc")])


def test_rm_multiset_per_language_intersection():
    langs = e1_multiset()
    ext = rm_from_multiset(langs)
    rng = random.Random(4)
    for _ in range(20):
        k = regex_to_nfa(random_regex(rng, "abc", 3), ABC)
        mask = ext.index_set(ext.tau.eval_nfa(k))
        for i, lang in enumerate(langs):
            assert bool(mask >> i & 1) == (not is_empty(nfa_intersection(k, lang)))


def test_eval_nfa_additive_multiplicative_monotone():
    ext = rm_from_multiset([nfa_of("a+", "ab"), nfa_of("(ab)+", "ab")])
    tau = ext.tau
    sr = tau.semiring
    rng = random.Random(5)
    for _ in range(15):
        n1 = random_regex(rng, "ab", 2)
        n2 = random_regex(rng, "ab", 2)
        k1, k2 = regex_to_nfa(n1, AB), regex_to_nfa(n2, AB)
        assert tau.eval_nfa(nfa_union(k1, k2)) == sr.add(tau.eval_nfa(k1), tau.eval_nfa(k2))
        from regcov import nfa_concat
        assert tau.eval_nfa(nfa_concat(k1, k2)) == sr.mul(tau.eval_nfa(k1), tau.eval_nfa(k2))
        assert leq(tau.eval_nfa(k1), tau.eval_nfa(nfa_union(k1, k2)))


def test_niceness_partial_sums_below_total():
    ext = rm_from_multiset([nfa_of("(ab)+", "ab")])
    tau = ext.tau
    sr = tau.semiring
    k = nfa_of("(a|b)*b", "ab")
    total = tau.eval_nfa(k)
    partial = sr.zero
    for w in words_upto("ab", 6):
        if k.accepts(w):
            partial = sr.add(partial, eval_word(tau, w))
    assert leq(partial, total)
    # on this instance length 6 already realizes every reachable image
    assert partial == total


def test_alphabet_augment():
    ext = rm_from_multiset([nfa_of("a+", "ab")])
    aug = rm_alphabet_augment(ext)
    tau = aug.tau
    assert isinstance(tau.semiring.parts[-1], AlphabetSemiring)
    width = tau.semiring.parts[-1].nbits
    assert eval_word(tau, "") == tau.semiring.one
    # cont of the image of exactly-B words is {B}
    for subset_mask, subset in [(0, ""), (1, "a"), (2, "b"), (3, "ab")]:
        img = tau.eval_nfa(alphabet_exact(AB, subset))
        assert img & (1 << width) - 1 == 1 << subset_mask
    # shifting off the content recovers the base value
    rng = random.Random(6)
    for _ in range(20):
        k = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        assert tau.eval_nfa(k) >> width == ext.tau.eval_nfa(k)


def test_cont_matches_alphabets_of_words():
    ext = rm_from_multiset([nfa_of("a+", "ab")])
    aug = rm_alphabet_augment(ext)
    rng = random.Random(7)
    for _ in range(15):
        k = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        got = aug.tau.eval_nfa(k) & (1 << (1 << len(AB))) - 1
        want = 0
        for mask in range(4):
            atom = alphabet_exact(AB, AB.from_mask(mask))
            if not is_empty(nfa_intersection(k, atom)):
                want |= 1 << mask
        assert got == want


def test_content_resolved_image_sums_each_alphabet_atom():
    # eval_nfa by content maps each content of the accepted words to the
    # image of the words of that content: the image of the language cut to
    # the atom of words of exactly that alphabet
    ext = rm_from_multiset([nfa_of("a+", "abc"), nfa_of("(ab)+c", "abc")])
    rng = random.Random(8)
    for _ in range(20):
        k = regex_to_nfa(random_regex(rng, "abc", 3), ABC)
        want = {}
        for mask in range(8):
            cut = nfa_intersection(k, alphabet_exact(ABC, ABC.from_mask(mask)))
            if not is_empty(cut):
                want[mask] = ext.tau.eval_nfa(cut)
        assert ext.tau.eval_nfa(k, by_content=True) == want


def test_trivial_imprint_brute_force():
    ext = rm_from_multiset([nfa_of("a+", "ab"), nfa_of("b+", "ab")])
    tau = ext.tau
    triv = rm_trivial_imprint(tau)
    sr = tau.semiring
    images8 = {eval_word(tau, w) for w in words_upto("ab", 8)}
    images9 = {eval_word(tau, w) for w in words_upto("ab", 9)}
    assert images8 == images9  # stabilized
    want = set()
    for img in images8:
        want.update(downset(sr, img))
    assert members(triv) == want


def test_trivial_imprint_pointed_contains_identity():
    lang = nfa_of("a+", "ab")
    alpha, _ = transition_monoid(lang)
    ext = rm_from_multiset([nfa_of("b+", "ab")])
    triv = rm_trivial_imprint(ext.tau, alpha)
    assert (alpha.identity, ext.tau.semiring.one) in triv


def test_single_letter_trivial_imprint():
    ext = rm_from_multiset([nfa_of("a+", "a")])
    tau = ext.tau
    triv = rm_trivial_imprint(tau)
    sr = tau.semiring
    want = set()
    for w in ["", "a", "aa", "aaa"]:
        want.update(downset(sr, eval_word(tau, w)))
    assert members(triv) == want


def test_imprint_pullback_identity_and_zero():
    ext = rm_from_multiset([nfa_of("a+", "ab")])
    tau = ext.tau
    imp = ImprintSet(tau.semiring)
    imp.insert(tau.semiring.zero)
    pulled = imprint_pullback(ext, imp)
    assert members(pulled) == {0}
    aug = rm_alphabet_augment(ext)
    imp2 = ImprintSet(aug.tau.semiring)
    imp2.insert(aug.tau.semiring.zero)
    assert members(imprint_pullback(aug, imp2)) == {0}
    keyed = ImprintSet(tau.semiring, keyed=True)
    keyed.insert((0, tau.semiring.zero))
    assert members(strip_content(keyed, tau.semiring)) == {tau.semiring.zero}


def test_extension_pullback_at_imprint():
    # pulled-back atom imprint equals the directly computed one over the
    # language indices
    langs = e1_multiset()
    ext = rm_from_multiset(langs)
    imp = at_imprint(ext.tau)
    pulled = imprint_pullback(ext, imp)
    assert all(m >> len(langs) == 0 for m in pulled.maximal_elements())
    want = set()
    for mask in range(8):
        atom = alphabet_exact(ABC, ABC.from_mask(mask))
        hit = 0
        for i, lang in enumerate(langs):
            if not is_empty(nfa_intersection(atom, lang)):
                hit |= 1 << i
        want.update(submasks(hit))
    assert members(pulled) == want


def test_rm_from_multiset_mixed_items():
    # one language takes the monoid construction, one the relations of its NFA
    langs = [nfa_of("a+", "ab"), random_nfa(random.Random(17), AB, 4, 0.4)]
    ext = rm_from_multiset(langs)
    assert [type(p) for p in ext.tau.semiring.parts] == [PowersetMonoidSemiring,
                                                         RelationSemiring]
    rng = random.Random(11)
    for _ in range(15):
        k = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        mask = ext.index_set(ext.tau.eval_nfa(k))
        for i, lang in enumerate(langs):
            assert bool(mask >> i & 1) == (not is_empty(nfa_intersection(k, lang)))


def test_index_set_matches_word_membership():
    # the acceptance masks read off exactly the languages that accept a
    # word: for one NFA, one morphism, a multiset mixing the three
    # constructions, and the alphabet augmentation of each
    dfa_pick = random_nfa(random.Random(103), AB, 4, 0.3)   # minimal DFA of 3 states
    nfa_pick = random_nfa(random.Random(17), AB, 4, 0.4)    # minimal DFA of 8 states
    monoid_pick = nfa_of("(ab)+", "ab")                      # 6-element monoid
    langs = [dfa_pick, nfa_pick, monoid_pick]
    mixed = rm_from_multiset(langs)
    parts = mixed.tau.semiring.parts
    assert [type(p) for p in parts] == [RelationSemiring, RelationSemiring,
                                        PowersetMonoidSemiring]
    assert parts[0].q == minimize(dfa_pick).state_count < dfa_pick.state_count
    assert parts[1].q == nfa_pick.state_count < minimize(nfa_pick).state_count
    cases = [(rm_from_nfa(nfa_pick), [nfa_pick]),
             (rm_from_morphism(*transition_monoid(monoid_pick)), [monoid_pick]),
             (mixed, langs)]
    cases += [(rm_alphabet_augment(ext), ls) for ext, ls in cases]
    for ext, ls in cases:
        assert len(ext.accepts) == len(ls)
        for w in words_upto("ab", 5):
            want = sum(1 << i for i, lang in enumerate(ls) if lang.accepts(w))
            assert ext.index_set(eval_word(ext.tau, w)) == want, (w, ext.tau.semiring)


def test_star_exact_images_agree_with_nfa_evaluation():
    # the closure-based images (used by the class rules) match evaluating
    # the corresponding automata (used by covers and verification), on a
    # product and on its alphabet augmentation
    langs = [nfa_of("(ab)+", "abc"), nfa_of("c(ac)+", "abc")]
    ext = rm_from_multiset(langs)
    for tau in (ext.tau, rm_alphabet_augment(ext).tau):
        for mask in range(8):
            subset = ABC.from_mask(mask)
            star_nfa, exact_nfa = alphabet_languages(ABC, subset)
            assert tau.image_of_star(mask) == tau.eval_nfa(star_nfa)
            assert tau.image_of_exact(mask) == tau.eval_nfa(exact_nfa)


def test_construction_choice_matches_full_candidate_rule():
    # the bounded monoid probe picks the construction that building every
    # candidate in full picks, down to the letter images and masks
    def check(nfa, caps=DEFAULT_CAPS):
        kind, want = reference_extension(nfa, caps)
        got = rm_from_multiset([nfa], caps)
        part = got.tau.semiring.parts[0]
        assert isinstance(part, PowersetMonoidSemiring) == (kind == "monoid")
        assert part.nbits == want.tau.semiring.nbits
        assert got.tau.letter_image == want.tau.letter_image
        assert got.accepts == want.accepts
        return kind

    kinds = set()
    for alphabet, draws in ((AB, 60), (ABC, 40)):
        rng = random.Random(1500 + len(alphabet))
        for _ in range(draws):
            kinds.add(check(random_nfa(rng, alphabet, 6, rng.choice((0.2, 0.3, 0.45)))))
    assert kinds == {"dfa", "nfa", "monoid"}
    # a 1-state minimal DFA: width 1 against a 1-element monoid, dfa wins
    for regex in ("(a|b)*", "%empty"):
        assert minimize(nfa_of(regex, "ab")).state_count == 1
        assert check(nfa_of(regex, "ab")) == "dfa"
    # |M| = dfa² = 4 < nfa² = 9: a swaps the two states, b resets; the
    # third state is unreachable
    swap = Nfa(AB, 3, frozenset([0]), frozenset([1]),
               frozenset([(0, "a", 1), (1, "a", 0), (0, "b", 0), (1, "b", 0)]))
    assert (minimize(swap).state_count, transition_monoid(swap)[0].size) == (2, 4)
    assert check(swap) == "dfa"
    # |M| = nfa² = 9 < dfa² = 16
    tie = random_nfa(random.Random(30), AB, 4, 0.35)
    assert (tie.state_count, minimize(tie).state_count,
            transition_monoid(tie)[0].size) == (3, 4, 9)
    assert check(tie) == "monoid"
    # a max_monoid below both widths: (ab)+ has 6 elements, 3 NFA states
    # and 4 minimal-DFA states
    pair = nfa_of("(ab)+", "ab")
    assert check(pair) == "monoid"
    assert check(pair, Caps(max_monoid=6)) == "monoid"
    assert check(pair, Caps(max_monoid=5)) == "nfa"


def test_transition_monoid_raises_past_max_monoid():
    pair = nfa_of("(ab)+", "ab")
    assert transition_monoid(pair, Caps(max_monoid=6))[0].size == 6
    with pytest.raises(MonoidCapError):
        transition_monoid(pair, Caps(max_monoid=5))


def test_word_images_per_part_match_joint_closure():
    # each part builds its own tables, a relation part in closed form; the
    # packed sums must be what closing the product per sub-alphabet gives,
    # on products that mix relation and monoid parts and on their alphabet
    # augmentations
    checked = set()
    for alphabet, seed, draws in ((AB, 1601, 12), (ABC, 1602, 12), (ABCD, 1604, 8)):
        rng = random.Random(seed)
        for _ in range(draws):
            langs = [random_nfa(rng, alphabet, 4, rng.choice((0.25, 0.4)))
                     for _ in range(rng.randint(2, 3))]
            ext = rm_from_multiset(langs)
            checked.add(frozenset(type(p) for p in ext.tau.semiring.parts))
            for tau in (ext.tau, rm_alphabet_augment(ext).tau):
                for mask in range(1 << len(alphabet)):
                    want = joint_star_exact(tau, mask)
                    assert (tau.image_of_star(mask), tau.image_of_exact(mask)) == want
    assert frozenset([RelationSemiring, PowersetMonoidSemiring]) in checked
    # a map that is not a product is its own single part
    for ext in (rm_from_nfa(nfa_of("(ab)+", "ab")),
                rm_from_morphism(*transition_monoid(nfa_of("(ab)+", "ab")))):
        for mask in range(4):
            want = joint_star_exact(ext.tau, mask)
            assert (ext.tau.image_of_star(mask), ext.tau.image_of_exact(mask)) == want


def test_relation_parts_stay_within_the_closed_form_bound(monkeypatch):
    # a relation part of n states takes at most 2^|A|·(|A| + ⌈log2 n²⌉ + 2)
    # products, however large its transition monoid; enumerating the
    # monoid, as a closure of word images does, takes more on most of these
    # maps, and on the ten-letter one passes max_elements
    def bound(tau):
        sr, k = tau.semiring, len(tau.alphabet)
        parts = sr.parts if isinstance(sr, ProductSemiring) else (sr,)
        return sum((1 << k) * (k + (p.nbits - 1).bit_length() + 2)
                   for p in parts if isinstance(p, RelationSemiring))

    calls = []
    mul = RelationSemiring.mul

    def counted(self, x, y):
        calls.append((x, y))
        return mul(self, x, y)

    monkeypatch.setattr(RelationSemiring, "mul", counted)
    taus = [rm_from_nfa(random_nfa(random.Random(seed), AB, 5, 0.35)).tau
            for seed in range(1700, 1705)]
    taus.append(rm_from_multiset([random_nfa(random.Random(1705), ABC, 5, 0.3),
                                  nfa_of("(ab)+", "abc")]).tau)
    taus.append(rm_from_nfa(random_nfa(random.Random(1706), Alphabet("abcdefghij"),
                                       4, 0.3)).tau)
    for tau in taus:
        assert bound(tau) > 0
        calls.clear()
        tau.image_of_star((1 << len(tau.alphabet)) - 1)
        assert 0 < len(calls) <= bound(tau)
        calls.clear()
        tau.image_of_exact((1 << len(tau.alphabet)) - 1)
        assert not calls  # the tables are kept


def test_word_image_closure_keeps_its_cap():
    # (ab)+ has 6 monoid elements, each met by several word alphabets
    ext = rm_from_multiset([nfa_of("(ab)+", "ab")])
    with pytest.raises(SaturationCapError) as info:
        ext.tau.image_of_star(mask_of(AB, "ab"), Caps(max_elements=3))
    assert "word-image closure" in str(info.value)


def test_word_image_closure_checks_the_caps_of_every_call():
    # the tables are built once, under the first call's caps; a later call
    # with a smaller cap must still see the closure exceed it
    def fresh():
        return rm_from_multiset([nfa_of("(ab)+", "ab"), nfa_of("a+", "ab")]).tau

    with pytest.raises(SaturationCapError):
        fresh().image_of_star(mask_of(AB, "ab"), Caps(max_elements=2))
    tau = fresh()
    star = tau.image_of_star(mask_of(AB, "ab"))
    with pytest.raises(SaturationCapError) as info:
        tau.image_of_star(mask_of(AB, "ab"), Caps(max_elements=2))
    assert "word-image closure" in str(info.value)
    with pytest.raises(SaturationCapError):
        tau.image_of_exact(mask_of(AB, "a"), Caps(max_elements=2))
    assert tau.image_of_star(mask_of(AB, "ab")) == star


@given(data=st.data())
def test_shared_parts_decide_as_separate_parts(data):
    # a language and its complement always share the part of their minimal
    # DFA, a repeated language when that part is at most 2·nfa² bits wide;
    # the verdicts and imprints are those of one part per language
    alphabet = data.draw(st.sampled_from([AB, ABC]))
    target = data.draw(nfas(alphabet))
    other = data.draw(nfas(alphabet))
    for langs in ([target, nfa_complement(target)], [target, other, target]):
        shared = rm_from_multiset(langs)
        separate = multiset_ext(reference_extension(lang)[1] for lang in langs)
        if len(langs) == 2:
            assert len(shared.tau.semiring.parts) == 1
        for cid in (ClassId.AT, ClassId.BSIGMA1, ClassId.FO, ClassId.FO2):
            want, got = (decide_universal_covering(ext, cid, target_index=0)
                         for ext in (separate, shared))
            assert (got.coverable, got.imprint_masks) == (want.coverable, want.imprint_masks), cid
