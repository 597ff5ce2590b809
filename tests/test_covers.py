"""Cover synthesis, assembly and verification."""

import functools
import itertools
import operator
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, reject, strategies as st

from regcov import (DEFAULT_CAPS, Alphabet, Caps, ClassId, Cover, InputError,
                    RatingMap, ResourceCapError, SaturationCapError,
                    at_cover, at_imprint, bsigma1_cover, decide_universal_covering, equivalent,
                    fo2_cover, includes, is_empty, minimize, nfa_complement, nfa_intersection,
                    nfa_union,
                    restrict_cover, rm_alphabet_augment, rm_from_multiset,
                    saturate_pointed, saturate_universal, sigma1_cover,
                    transition_monoid, universal_language, upward_closure,
                    verify_cover)
from regcov import rx
from regcov import cli, covers, fa
from regcov.covers import _partition_images
from regcov.pieces import are_unions_of_classes, pt_partition

import reference_covers
import reference_fa
from explicit_engine import downset, fo2_language_sums, members
from helpers import (augment, cayley, cover_imprint, cover_index_masks, eval_word, fiber_nfa,
                     mask_of, narrow_item, nfa_of, nfas, piece_images_distinct, random_nfa,
                     trim, union_nfa, widen, widen_item)

AB = Alphabet("ab")
ABC = Alphabet("abc")
A1 = Alphabet("a")


def test_at_cover_single_letter():
    cov = at_cover(A1)
    langs = [p for p in cov.pieces]
    assert len(langs) == 2
    texts = sorted(rx.regex_to_text(fa.nfa_to_regex(p)) for p in cov.pieces)
    assert texts == ["%eps", "aa*"]


def test_at_cover_imprint_is_optimal():
    langs = [nfa_of("(ab)+", "abc"), nfa_of("b(ab)+", "abc"), nfa_of("c(ac)+", "abc")]
    ext = rm_from_multiset(langs)
    cov = at_cover(ABC)
    assert members(cover_imprint(cov, ext.tau)) == members(at_imprint(ext.tau))


def test_at_cover_language_scope():
    target = nfa_of("a+|b+", "abc")
    cov = restrict_cover(at_cover(ABC), target)
    texts = sorted(rx.regex_to_text(fa.nfa_to_regex(p)) for p in cov.pieces)
    assert texts == ["aa*", "bb*"]
    report = verify_cover(cov, target, [nfa_of("b+|c+", "abc"), nfa_of("c+|a+", "abc")])
    assert report.covers_target and report.separating and report.class_ok


def complement_map(nfa):
    """The rating map a member query decides over: that of the complement."""
    return rm_from_multiset([nfa_complement(nfa)]).tau


def superwords(alphabet: Alphabet, word: str):
    return upward_closure(nfa_of(word or "%eps", alphabet.symbols))


def test_sigma1_cover_trivial_monoid():
    cov = sigma1_cover(minimize(universal_language(AB)), complement_map(universal_language(AB)))
    assert len(cov.pieces) == 1
    assert equivalent(cov.pieces[0], universal_language(AB))


def test_sigma1_cover_covers_fiber():
    lang = nfa_of("a+", "ab")
    against = [nfa_of("b+", "ab")]
    cov = sigma1_cover(minimize(lang), rm_from_multiset(against).tau)
    assert includes(lang, union_nfa(cov, AB))
    assert [rx.regex_to_text(fa.nfa_to_regex(p)) for p in cov.pieces] == ["b*a(a|b)*"]
    assert equivalent(cov.pieces[0], nfa_of("(a|b)*a(a|b)*", "ab"))
    report = verify_cover(cov, lang, against)
    assert report.covers_target and report.separating and report.class_ok


def test_sigma1_pieces_upward_closed():
    lang = nfa_of("ab|ba", "ab")
    cov = sigma1_cover(minimize(lang), complement_map(lang))
    for p in cov.pieces:
        assert equivalent(upward_closure(p), p)


def test_sigma1_cover_optimality_matches_pointed_imprint():
    # the cover's full imprint, not only its index sets, equals the pointed
    # optimum: a piece that united words of different images ρ(↑w) would
    # have a strictly larger image
    rng = random.Random(12)
    for _ in range(60):
        target = random_nfa(rng, AB, 3)
        others = [random_nfa(rng, AB, 3) for _ in range(rng.randint(1, 3))]
        alpha, acc = transition_monoid(target)
        ext = rm_from_multiset(others)
        pointed = saturate_pointed(cayley(alpha, AB), ext.tau, ClassId.SIGMA1)
        want = {r for (m, r) in members(pointed) if m in acc}
        cov = sigma1_cover(minimize(target), ext.tau)
        sr = ext.tau.semiring
        got = set()
        for p in cov.pieces:
            img = ext.tau.eval_nfa(p)
            got.update(downset(sr, img))
        if acc:
            assert got == want
        else:
            assert got == set()


@given(st.sampled_from([AB, ABC]).flatmap(lambda a: st.tuples(st.just(a), nfas(a))),
       st.data())
def test_sigma1_pieces_unite_the_minimal_words_of_one_image(drawn, data):
    # one piece per image ρ(↑w) over the minimal words w, each the union of
    # the ↑w of that image
    alphabet, nfa = drawn
    alpha, acc = transition_monoid(nfa)
    assume(len(alphabet) ** alpha.size <= 20_000)
    rho = rm_from_multiset(data.draw(st.lists(nfas(alphabet, 3), min_size=1, max_size=2))).tau
    for targets in (acc, data.draw(st.sets(st.integers(0, alpha.size - 1)))):
        by_image: dict = {}
        for w in reference_covers.sigma1_words(alpha, targets, alphabet):
            by_image.setdefault(rho.eval_nfa(superwords(alphabet, w)), []).append(w)
        cov = sigma1_cover(minimize(fiber_nfa(alpha, targets, alphabet)), rho)
        images = [rho.eval_nfa(p) for p in cov.pieces]
        assert sorted(images) == sorted(by_image)
        for img, p in zip(images, cov.pieces):
            assert equivalent(p, nfa_union(*(superwords(alphabet, w)
                                                 for w in by_image[img])))


def _with_parity(d: fa.Dfa) -> fa.Dfa:
    # d run beside the parity of the length read, its states numbered
    # backwards: a DFA of the same language with twice d's states
    n = d.state_count

    def num(q, p):
        return 2 * n - 1 - (2 * q + p)

    delta = [()] * (2 * n)
    for q, row in enumerate(d.delta):
        for p in (0, 1):
            delta[num(q, p)] = tuple(num(r, 1 - p) for r in row)
    return fa.Dfa(d.alphabet, 2 * n, num(d.initial, 0),
                  frozenset(num(q, p) for q in d.finals for p in (0, 1)), tuple(delta))


@given(st.sampled_from([AB, ABC]).flatmap(lambda a: st.tuples(nfas(a), nfas(a, 3))))
def test_sigma1_covers_depend_only_on_the_target_language(drawn):
    # the minimal DFA, the subset construction of the NFA, that of the
    # Cayley graph of its transition monoid and the minimal DFA doubled by
    # a parity bit spell one language, and give the same pieces
    target, other = drawn
    rho = rm_from_multiset([other]).tau
    alpha, acc = transition_monoid(target)
    least = minimize(target)
    dfas = (least, fa.determinize(target),
            fa.determinize(fiber_nfa(alpha, acc, target.alphabet)), _with_parity(least))
    assert equivalent(dfas[3].as_nfa(), target)
    texts = [sigma1_cover(t, rho).to_json()["pieces"] for t in dfas]
    assert texts[0] == texts[1] == texts[2] == texts[3]


def test_sigma1_words_of_one_image_share_a_piece():
    # against the words ending in a, ↑a and ↑b have one image, though A*·a
    # and A*·b do not: the image of ↑w is read with A* after every letter
    lang = nfa_of("a|b", "ab")
    cov = sigma1_cover(minimize(lang), rm_from_multiset([nfa_of("(a|b)*a", "ab")]).tau)
    assert len(cov.pieces) == 1 and equivalent(cov.pieces[0], nfa_of("(a|b)+", "ab"))


def test_sigma1_cover_of_a_large_monoid_is_verified():
    # member-sweep draw (7, 6): the enumeration of its 3^1101 short words
    # stopped on a word budget (exit 3)
    rng = random.Random(1007)
    for _ in range(7):
        nfa = random_nfa(rng, ABC, 7, 0.3)
    alpha, _ = transition_monoid(nfa)
    assert alpha.size == 1101
    against = [nfa_complement(nfa)]
    cov = sigma1_cover(minimize(nfa), rm_from_multiset(against).tau)
    report = verify_cover(cov, nfa, against)
    assert cov.pieces and report.covers_target and report.class_ok


@pytest.mark.parametrize("n", [4, 14])
def test_sigma1_cover_has_one_piece_per_image(n):
    # min((a|b|c)^n(a|b|c)*) is all 3^n words of length n, exponentially
    # many in |M| = n + 1; against (a|b)* and c* they have three images
    target = nfa_of("(a|b|c)" * n + "(a|b|c)*", "abc")
    alpha, _ = transition_monoid(target)
    assert alpha.size == n + 1
    against = [nfa_of("(a|b)*", "abc"), nfa_of("c*", "abc")]
    cov = sigma1_cover(minimize(target), rm_from_multiset(against).tau)
    report = verify_cover(cov, target, against)
    assert len(cov.pieces) == 3 and report.ok and report.piece_witnesses == [1, 0, 0]


def test_bsigma1_cover_small_k_and_optimal():
    ext = rm_from_multiset([nfa_of("a+", "ab"), nfa_of("b+", "ab")])
    goal = saturate_universal(ext.tau, ClassId.BSIGMA1)
    cov = bsigma1_cover(ext.tau, goal)
    assert cov.optimal and cov.k is not None and cov.k <= 2
    assert piece_images_distinct(cov, ext.tau)
    assert members(cover_imprint(cov, ext.tau)) == members(goal)
    report = verify_cover(cov, universal_language(AB),
                          [nfa_of("a+", "ab"), nfa_of("b+", "ab")])
    assert report.covers_target and report.class_ok


def record_partitions(monkeypatch) -> list:
    """Patch `covers.pt_partition` to keep every (partition, classes) that
    cover synthesis builds."""
    built = []

    def keep(*args, **kw):
        built.append(pt_partition(*args, **kw))
        return built[-1]

    monkeypatch.setattr(covers, "pt_partition", keep)
    return built


def carried_classes(cov: Cover, built: list) -> list:
    """The classes (j, S) of the partition that a cover carries."""
    return next(classes for pa, classes in built if pa is cov.partition)


@pytest.mark.parametrize("target, against", [
    ("a+", "(ba|bc)b+c*"),
    ("b|a*|(c*)+", "c+c*caa"),
])
def test_partition_cover_pieces_match_trimmed_partition(monkeypatch, target, against):
    built = record_partitions(monkeypatch)
    ext = rm_from_multiset([nfa_of(target, "abc"), nfa_of(against, "abc")])
    dec = decide_universal_covering(ext, ClassId.BSIGMA1, target_index=0)
    cov = bsigma1_cover(ext.tau, dec.raw_imprint)
    assert cov.optimal and cov.k == {"a+": 4, "b|a*|(c*)+": 3}[target]
    pa = cov.partition
    # each class is one j-class, j <= k, so a union of k-classes: the
    # reference k-piece partition over abc has 334,202 classes at k = 4,
    # so the classes are checked by the reference's piece steps
    assert reference_fa.is_refined_partition(pa, carried_classes(cov, built), cov.k)
    by_image: dict = {}
    for q, img in sorted(_partition_images(pa, ext.tau, DEFAULT_CAPS).items()):
        by_image.setdefault(img, []).append(q)
    assert len(cov.pieces) == len(by_image) > 1
    for piece, states in zip(cov.pieces, by_image.values()):
        want = reference_fa.partition_piece(pa, states)
        assert equivalent(piece, want)
        assert piece.state_count <= trim(fa.minimize(want).as_nfa()).state_count
    # the images are distinct and in the goal, and the imprint is the goal
    assert piece_images_distinct(cov, ext.tau)
    assert all(ext.tau.eval_nfa(p) in dec.raw_imprint for p in cov.pieces)
    assert (set(cover_imprint(cov, ext.tau).maximal_elements())
            == set(dec.raw_imprint.maximal_elements()))


def test_bsigma1_cover_separating_iff_coverable():
    rng = random.Random(412)
    for _ in range(8):
        langs = [random_nfa(rng, AB, 2) for _ in range(rng.randint(1, 2))]
        ext = rm_from_multiset(langs)
        dec = decide_universal_covering(ext, ClassId.BSIGMA1)
        goal = dec.raw_imprint
        cov = bsigma1_cover(ext.tau, goal)
        assert cov.optimal  # these instances converge at small k
        assert piece_images_distinct(cov, ext.tau)
        report = verify_cover(cov, universal_language(AB), langs)
        assert report.covers_target and report.class_ok
        assert report.separating == dec.coverable


def bsigma1_covers(caps=DEFAULT_CAPS):
    """(alphabet, target, cover) for BΣ1 covers, at depths 1 to 4 under the
    default caps, each synthesized for its target and one other language."""
    for symbols, target, against in (("ab", "a+", "b+"), ("ab", "a+b+", "b+a+"),
                                     ("abc", "a+", "(ba|bc)b+c*"),
                                     ("abc", "b|a*|(c*)+", "c+c*caa")):
        target_nfa = nfa_of(target, symbols)
        ext = rm_from_multiset([target_nfa, nfa_of(against, symbols)])
        dec = decide_universal_covering(ext, ClassId.BSIGMA1, caps, target_index=0)
        yield Alphabet(symbols), target_nfa, bsigma1_cover(ext.tau, dec.raw_imprint, caps)


def test_piecewise_covers_carry_the_partition_they_were_cut_from(monkeypatch):
    built = record_partitions(monkeypatch)
    depths = set()
    # a depth cap of 1 ends the deepening early: non-optimal covers carry it too
    for caps in (DEFAULT_CAPS, Caps(max_k=1)):
        for alphabet, target_nfa, cov in bsigma1_covers(caps):
            depths.add((cov.k, cov.optimal))
            # the last partition built, a quotient of the reference k-piece
            # partition: each class is one j-class, j <= k
            assert cov.partition is built[-1][0]
            assert reference_fa.is_refined_partition(cov.partition, built[-1][1], cov.k)
            if cov.k < 4 or len(alphabet) < 3:    # else 334,202 classes
                ref = reference_fa.pt_partition(cov.k, alphabet)
                assert are_unions_of_classes([p for p in cov.pieces], ref)
            assert restrict_cover(cov, target_nfa).partition is cov.partition
    assert {1, 2, 3, 4} <= {k for k, _ in depths} and (1, False) in depths
    for alphabet in (A1, AB, ABC):
        assert at_cover(alphabet).partition == reference_fa.pt_partition(1, alphabet)


def test_bsigma1_cover_stops_before_the_level_past_max_pt_states():
    # the levels of this instance have 1, 8, 152, 230 and 266 states
    ext = rm_from_multiset([nfa_of("a+", "abc"), nfa_of("(ba|bc)b+c*", "abc")])
    goal = decide_universal_covering(ext, ClassId.BSIGMA1, target_index=0).raw_imprint
    stopped = bsigma1_cover(ext.tau, goal, Caps(max_pt_states=200))
    assert stopped.k == 2 and stopped.optimal is False
    assert stopped.provenance == "piece-equivalence partition at k=2 | k=3 passed max_pt_states"
    # the cover of level 2, as a depth bound of 2 gives it
    bounded = bsigma1_cover(ext.tau, goal, Caps(max_k=2))
    assert bounded.optimal is False and stopped.partition == bounded.partition
    assert [p for p in stopped.pieces] == [p for p in bounded.pieces]
    assert bsigma1_cover(ext.tau, goal, Caps(max_pt_states=230)).optimal is False
    assert bsigma1_cover(ext.tau, goal, Caps(max_pt_states=266)).optimal is True
    # with no level to fall back on, the stop is the cap's own error
    with pytest.raises(ResourceCapError) as stop:
        bsigma1_cover(ext.tau, goal, Caps(max_pt_states=0))
    assert stop.value.cap_name == "max_pt_states"


@pytest.mark.parametrize("symbols, k, optimal", [("a", 21, True), ("abc", 9, False)])
def test_bsigma1_levels_stop_where_the_pieces_pass_max_pt_states(symbols, k, optimal):
    # a^21 a* against the shorter words needs k = 21: there are 22 pieces
    # of length at most 21 over one letter, and 88,573 of length at most
    # 10 over three, past max_pt_states; levels that deep ran for minutes
    # on the width of their piece sets
    ext = rm_from_multiset([nfa_of("a" * 21 + "+", symbols), nfa_of("(a|%eps)" * 20, symbols)])
    goal = decide_universal_covering(ext, ClassId.BSIGMA1, target_index=0).raw_imprint
    cov = bsigma1_cover(ext.tau, goal, Caps(max_k=25))
    assert cov.k == k and cov.optimal is optimal
    if not optimal:
        assert cov.provenance == "piece-equivalence partition at k=9 | k=10 passed max_pt_states"


# (class, against) whose universal cover over ab starts with the piece {ε}:
# the atoms, and a BΣ1 cover at k = 2
CLASS_CHECKED = [("at", ("a+", "b+")), ("bsigma1", ("a+b+", "b+a+"))]


def swap_first_piece(cov: Cover) -> Cover:
    """The cover with its piece {ε} swapped for (aa)*, a union of k-piece
    classes for no k.  (aa)* holds ε and misses b+ and b+a+, so the cover
    still covers and separates; only the class check can fail it."""
    assert rx.regex_to_text(fa.nfa_to_regex(cov.pieces[0])) == "%eps"
    return replace(cov, pieces=[nfa_of("(aa)*", "ab")] + cov.pieces[1:])


@pytest.mark.parametrize("cls, against", CLASS_CHECKED)
def test_verify_cover_fails_a_piece_that_is_no_union_of_classes(cls, against):
    langs = [nfa_of(r, "ab") for r in against]
    if cls == "at":
        cov = at_cover(AB)
    else:
        ext = rm_from_multiset(langs)
        cov = bsigma1_cover(ext.tau, decide_universal_covering(ext, ClassId.BSIGMA1).raw_imprint)
        assert cov.k == 2
    assert cov.optimal and verify_cover(cov, universal_language(AB), langs).class_ok is True
    report = verify_cover(swap_first_piece(cov), universal_language(AB), langs)
    assert report.covers_target and report.separating
    assert report.class_ok is False and not report.ok


@pytest.mark.parametrize("cls, against", CLASS_CHECKED)
def test_run_cover_refuses_an_optimal_cover_that_fails_the_class_check(
        monkeypatch, capsys, cls, against):
    argv = ["cover", "--class", cls, "--alphabet", "ab", "--target", "%universal",
            "--emit-cover"] + [x for r in against for x in ("--against", r)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    name = f"{cls}_cover"
    synthesize = getattr(cli, name)
    monkeypatch.setattr(cli, name,
                        lambda *args, **kwargs: swap_first_piece(synthesize(*args, **kwargs)))
    with pytest.raises(AssertionError, match="failed verification"):
        cli.main(argv)


def fo2_node_pieces(rho, sat, subset: int, left, right, state=None) -> list:
    """The pieces of one node of the fo2 recursion, for the sub-alphabet
    mask B: a cover of B* whose pieces K are labelled by their contents and
    images in context, left·ρ(K)·right, all in the saturated set.  The
    images are evaluated in the alphabet augmentation, where each label is
    the element with its one content (`widen_item`)."""
    state = state or covers._Fo2State(rho, sat, DEFAULT_CAPS)
    delta, labels = state.machine(subset, left, right, True)
    pieces = covers._label_pieces(rho.alphabet, delta, 0, labels)
    wide, width = augment(rho).tau, 1 << len(rho.alphabet)
    sr = wide.semiring
    in_context = [sr.mul(sr.mul(widen_item(left, width), wide.eval_nfa(p)),
                         widen_item(right, width)) for p in pieces]
    distinct = [x for x in dict.fromkeys(labels) if x is not None]
    assert in_context == [widen_item(x, width) for x in distinct]
    assert all(x in sat for x in distinct)
    return pieces


def test_fo2_cover_base_case_emits_whole_star():
    # with saturated context elements the recursion stops at {B*} right away
    ext = rm_from_multiset([nfa_of("a*", "a")])
    aug = rm_alphabet_augment(ext)
    tau = ext.tau
    sat = saturate_universal(tau, ClassId.FO2)
    e = (mask_of(A1, "a"), tau.semiring.idempotent_power(eval_word(tau, "a")))
    assert e in sat
    pieces = fo2_node_pieces(tau, sat, mask_of(A1, "a"), e, e)
    assert len(pieces) == 1
    assert equivalent(pieces[0], universal_language(A1))
    # the top-level cover is optimal regardless of how many pieces it takes
    top = fo2_cover(tau, sat)
    assert members(cover_imprint(top, aug.tau)) == members(widen(sat, aug))
    assert piece_images_distinct(top, aug.tau)
    assert includes(universal_language(A1), union_nfa(top, A1))


@pytest.mark.parametrize("symbols", ["abc", "abcdefghijklmnop"])
def test_fo2_base_case_is_the_minimized_two_state_machine(symbols):
    # B* written down directly: for every sub-alphabet mask, the machine
    # that minimizing B*'s state and a sink for the letters outside B gives
    n = len(symbols)
    if n == 3:
        langs = [nfa_of("(ab)+", symbols), nfa_of("c(ac)+", symbols)]
        dec = decide_universal_covering(rm_from_multiset(langs), ClassId.FO2, target_index=0)
        state = covers._Fo2State(dec.rating_map, dec.raw_imprint, DEFAULT_CAPS)
        contexts = [state.one] + sorted(dec.raw_imprint.maximal_elements())[:2]
    else:                                  # no synthesis: _base reads the map only
        state = covers._Fo2State(rm_from_multiset([nfa_of("ab", symbols)]).tau, None,
                                 DEFAULT_CAPS)
        contexts = [state.one]
    sink = (1,) * n
    for left, right in itertools.product(contexts, repeat=2):
        for subset in range(1 << n):
            star = (0, state.rho.image_of_star(subset, DEFAULT_CAPS))
            img = state.mul(state.mul(left, star), right)
            inside = tuple(0 if subset >> k & 1 else 1 for k in range(n))
            assert state._base(subset, left, right) == reference_fa.minimize_labelled(
                (inside, sink), 0, [img, None])


def test_fo2_every_node_labels_its_pieces_in_context():
    langs = [nfa_of("(ab)+", "abc"), nfa_of("c(ac)+", "abc")]
    dec = decide_universal_covering(rm_from_multiset(langs), ClassId.FO2, target_index=0)
    rho, sat = dec.rating_map, dec.raw_imprint
    state = covers._Fo2State(rho, sat, DEFAULT_CAPS)
    one = (0, rho.semiring.one)
    state.node(0b111, one, one)
    nodes = list(state._nodes)
    assert sum(key[1:] != (one, one) for key in nodes) > 10
    for subset, left, right in nodes:
        fo2_node_pieces(rho, sat, subset, left, right, state)


def test_fo2_cover_empty_subalphabet():
    ext = rm_from_multiset([nfa_of("a+", "ab")])
    sat = saturate_universal(ext.tau, ClassId.FO2)
    one = (0, ext.tau.semiring.one)
    pieces = fo2_node_pieces(ext.tau, sat, 0, one, one)
    assert len(pieces) == 1
    nfa = pieces[0]
    assert nfa.accepts("") and is_empty(nfa_intersection(nfa, nfa_of("a|b", "ab")))


def test_fo2_cover_top_level_imprint_equals_saturation():
    rng = random.Random(2718)
    for _ in range(6):
        langs = [random_nfa(rng, AB, 2) for _ in range(rng.randint(1, 2))]
        ext = rm_from_multiset(langs)
        aug = rm_alphabet_augment(ext)
        sat = saturate_universal(ext.tau, ClassId.FO2)
        cov = fo2_cover(ext.tau, sat)
        assert members(cover_imprint(cov, aug.tau)) == members(widen(sat, aug))
        assert includes(universal_language(AB), union_nfa(cov, AB))
        assert piece_images_distinct(cov, aug.tau)


def test_fo2_cover_merges_same_image_pieces():
    # the worked example: before merging, the recursion built more than
    # max_pieces pieces; now each node keeps one piece per image
    langs = [nfa_of("(ab)+", "abc"), nfa_of("c(ac)+", "abc")]
    ext = rm_from_multiset(langs)
    aug = rm_alphabet_augment(ext)
    sat = saturate_universal(ext.tau, ClassId.FO2)
    cov = fo2_cover(ext.tau, sat)
    assert piece_images_distinct(cov, aug.tau)
    assert members(cover_imprint(cov, aug.tau)) == members(widen(sat, aug))
    assert includes(universal_language(ABC), union_nfa(cov, ABC))


def fo2_instances():
    """The fo2 worked example, the fo2 queries `43:fo2` and `63:fo2` of the
    benchmark's synth corpus, and frozen-seed pairs and triples over ab and
    abc (with target index 0, as the CLI poses them)."""
    cases = [[nfa_of("(ab)+", "abc"), nfa_of("c(ac)+", "abc")],
             [nfa_of("((a|c)bb)+", "abc"), nfa_of("((ac)*)*", "abc")],
             [nfa_of("(a*|bc)*", "abc"), nfa_of("cc(b|c)c", "abc")]]
    for alphabet, seed, most in ((AB, 9001, 3), (ABC, 9002, 2)):
        rng = random.Random(seed)
        cases += [[random_nfa(rng, alphabet, most, 0.35) for _ in range(rng.randint(2, 3))]
                  for _ in range(10)]
    return cases


def test_fo2_pieces_match_the_merging_reference(monkeypatch):
    # same images and equivalent pieces as the recursion that merged the
    # pieces of equal image at every node; every node machine is built once
    # and converted at most once, and each instance has nodes that peel on
    # either side
    peeled, flipped = [], []
    peel, flip = covers._Fo2State._peel, covers._Fo2State._flip

    def counted_peel(self, subset, left, right, b, forward, f_and_children):
        peeled.append(((subset, left, right), forward))
        return peel(self, subset, left, right, b, forward, f_and_children)

    def counted_flip(self, m):
        flipped.append(id(m))
        return flip(self, m)

    monkeypatch.setattr(covers._Fo2State, "_peel", counted_peel)
    monkeypatch.setattr(covers._Fo2State, "_flip", counted_flip)
    for langs in fo2_instances():
        dec = decide_universal_covering(rm_from_multiset(langs), ClassId.FO2, target_index=0)
        rho = dec.rating_map
        aug = augment(rho)
        peeled.clear()
        flipped.clear()
        cov = fo2_cover(rho, dec.raw_imprint)
        keys = [key for key, _ in peeled]
        assert len(set(keys)) == len(keys) and len(set(flipped)) == len(flipped)
        assert {forward for _, forward in peeled} == {True, False}
        want = reference_covers.fo2_pieces(aug.tau, widen(dec.raw_imprint, aug))
        images = [aug.tau.eval_nfa(p) for p in cov.pieces]
        assert len(images) == len(want) and set(images) == set(want)
        for img, piece in zip(images, cov.pieces):   # equal minimal DFAs: equivalent
            assert fa.minimize(piece) == fa.minimize(want[img])


@given(st.lists(nfas(AB), min_size=2, max_size=3))
def test_fo2_pieces_match_the_merging_reference_on_shrinking_nfas(langs):
    dec = decide_universal_covering(rm_from_multiset(langs), ClassId.FO2, target_index=0)
    rho = dec.rating_map
    aug = augment(rho)
    cov = fo2_cover(rho, dec.raw_imprint)
    want = reference_covers.fo2_pieces(aug.tau, widen(dec.raw_imprint, aug))
    images = [aug.tau.eval_nfa(p) for p in cov.pieces]
    assert len(images) == len(want) and set(images) == set(want)
    for img, piece in zip(images, cov.pieces):   # both trimmed minimal DFAs
        assert piece == want[img]


def test_fo2_peel_copies_each_child_context_once(monkeypatch):
    # a peel node is F, labelled in context by x -> left·x·right, and one
    # unrelabelled copy of the child of each distinct child context:
    # left·λ_F(h)·ρ(b) for a right peel, ρ(b)·λ_F(h)·right for a left peel
    frames = []
    fed = {}
    peel, machine = covers._Fo2State._peel, covers._Fo2State.machine
    minimize_labelled = covers.minimize_labelled

    def counted_peel(self, subset, left, right, b, forward, f_and_children):
        frames.append(([], []))
        out = peel(self, subset, left, right, b, forward, f_and_children)
        child_keys, calls = frames.pop()
        mul, bimg = self.mul, (1 << b, self.rho.letter_image[b])
        f_key = (subset & ~(1 << b), self.one, self.one, forward)
        assert f_and_children[0] is self._machines[f_key]
        f_delta, f_labels = self._machines[f_key]
        contexts = {mul(mul(left, x), bimg) if forward else mul(mul(bimg, x), right)
                    for x in f_labels if x is not None}
        assert len(child_keys) == len(set(child_keys)) == len(contexts)
        assert set(child_keys) == {(subset, c, right, True) if forward
                                   else (subset, left, c, False) for c in contexts}
        children = [self._machines[key] for key in child_keys]
        size, labels = calls[-1]                  # the peel's own minimization
        assert size == len(f_delta) + sum(len(delta) for delta, _ in children)
        assert labels == ([None if x is None else mul(mul(left, x), right) for x in f_labels]
                          + [x for _, c_labels in children for x in c_labels])
        fed[subset, left, right] = size
        return out

    def counted_machine(self, *key):
        if frames:
            frames[-1][0].append(key)
        return machine(self, *key)

    def counted_minimize(delta, initial, labels):
        if frames:
            frames[-1][1].append((len(delta), list(labels)))
        return minimize_labelled(delta, initial, labels)

    monkeypatch.setattr(covers._Fo2State, "_peel", counted_peel)
    monkeypatch.setattr(covers._Fo2State, "machine", counted_machine)
    monkeypatch.setattr(covers, "minimize_labelled", counted_minimize)
    totals = []
    for langs in fo2_instances():
        dec = decide_universal_covering(rm_from_multiset(langs), ClassId.FO2, target_index=0)
        fed.clear()
        fo2_cover(dec.rating_map, dec.raw_imprint)
        assert fed
        totals.append(sum(fed.values()))
    # 43:fo2: 4,314 states; with one relabelled child copy per multiplier
    # they were 25,119
    assert totals[1] <= 6000


def test_fo2_cover_of_many_node_labels_fits_the_default_caps():
    # the nodes of this cover have 2,149 distinct labels in context, summed;
    # labelled out of context they had 21,015, past the 10,000 that a cap on
    # the summed labels allowed then
    rng = random.Random(9002)
    langs = [random_nfa(rng, ABC, 3, 0.35) for _ in range(rng.randint(2, 3))]
    dec = decide_universal_covering(rm_from_multiset(langs), ClassId.FO2, target_index=0)
    rho, sat = dec.rating_map, dec.raw_imprint
    aug = augment(rho)
    cov = fo2_cover(rho, sat)
    assert len(cov.pieces) == 101
    assert (set(cover_imprint(cov, aug.tau).maximal_elements())
            == set(widen(sat, aug).maximal_elements()))
    assert includes(universal_language(ABC), union_nfa(cov, ABC))
    assert piece_images_distinct(cov, aug.tau)


@pytest.mark.parametrize("target, against", [
    ("(ab)+", "c(ac)+"),            # the worked example
    ("((a|c)bb)+", "((ac)*)*"),
])
def test_fo2_merges_once_per_group(monkeypatch, target, against):
    # every recursion node is built once and each group of words of equal
    # image comes out as one piece; the pieces are compared with the merging
    # reference as automata, and as JSON once restricted to the target as
    # the CLI prints them
    target_nfa = nfa_of(target, "abc")
    ext = rm_from_multiset([target_nfa, nfa_of(against, "abc")])
    dec = decide_universal_covering(ext, ClassId.FO2, target_index=0)
    rho = dec.rating_map
    keys = []
    peel = covers._Fo2State._peel

    def counted(self, subset, left, right, b, forward, f_and_children):
        keys.append((subset, left, right))
        return peel(self, subset, left, right, b, forward, f_and_children)

    monkeypatch.setattr(covers._Fo2State, "_peel", counted)
    cov = fo2_cover(rho, dec.raw_imprint)
    aug = augment(rho)
    assert keys and len(keys) == len(set(keys))
    assert piece_images_distinct(cov, aug.tau)
    want = reference_covers.fo2_pieces(aug.tau, widen(dec.raw_imprint, aug))
    images = [aug.tau.eval_nfa(p) for p in cov.pieces]
    assert set(images) == set(want)
    for img, piece in zip(images, cov.pieces):
        assert fa.minimize(piece) == fa.minimize(want[img])
    merged = covers.Cover(cov.class_id, [want[img] for img in images],
                          k=cov.k, optimal=cov.optimal, provenance=cov.provenance)
    assert (restrict_cover(merged, target_nfa).to_json()
            == restrict_cover(cov, target_nfa).to_json())


def test_fo2_cover_builds_no_subset_construction(monkeypatch):
    langs = [nfa_of("(ab)+", "abc"), nfa_of("c(ac)+", "abc")]
    dec = decide_universal_covering(rm_from_multiset(langs), ClassId.FO2, target_index=0)
    calls = []
    real = fa.determinize
    monkeypatch.setattr(fa, "determinize", lambda *a: calls.append(a) or real(*a))
    cov = fo2_cover(dec.rating_map, dec.raw_imprint)
    assert cov.pieces and calls == []
    fa.minimize(langs[0])
    assert len(calls) == 1          # the counter sees the calls of fa.minimize


def test_flipped_node_machine_is_minimal():
    # the label-vector conversion of a reachable machine needs no
    # minimization, and converting twice gives the machine back
    langs = [nfa_of("(a*|bc)*", "abc"), nfa_of("cc(b|c)c", "abc")]
    dec = decide_universal_covering(rm_from_multiset(langs), ClassId.FO2, target_index=0)
    state = covers._Fo2State(dec.rating_map, dec.raw_imprint, DEFAULT_CAPS)
    state.node(0b111, (0, dec.rating_map.semiring.one), (0, dec.rating_map.semiring.one))
    machines = [m for _, m in state._nodes.values()]
    assert len(machines) > 20
    for delta, labels in machines:
        flipped = state._flip((delta, labels))
        assert fa.minimize_labelled(flipped[0], 0, flipped[1]) == flipped
        assert state._flip(flipped) == (delta, labels)


def test_fo2_per_maximum_sums_equal_the_full_closure():
    # s_b sums the word images below each maximum of the saturated set; the
    # reference closes every sum of word images and keeps those in the set
    from regcov.covers import _Fo2State

    rng = random.Random(3141)
    for alphabet in (AB, ABC):
        for _ in range(12):
            langs = [random_nfa(rng, alphabet, 2, 0.35) for _ in range(rng.randint(1, 2))]
            ext = rm_from_multiset(langs)
            aug = rm_alphabet_augment(ext)
            sat = saturate_universal(ext.tau, ClassId.FO2)
            state = _Fo2State(ext.tau, sat, DEFAULT_CAPS)
            wide, width = widen(sat, aug), 1 << len(alphabet)
            for subset in range(1 << len(alphabet)):
                expected = {x for x in fo2_language_sums(aug.tau, subset) if x in wide}
                assert {widen_item(x, width) for x in state.s_b(subset)} == expected


@given(st.sampled_from([AB, ABC]).flatmap(
           lambda a: st.lists(nfas(a, 3), min_size=1, max_size=2)),
       st.data())
def test_fo2_peel_letter_matches_the_two_sided_reference(langs, data):
    # one loop set s_b·ρ(b)·s_b per letter answers the saturation test on
    # either side: the first letter at which a context is not saturated is
    # the one the reference finds through t·x·ρ(b)·s_b and s_b·ρ(b)·x·t
    ext = rm_from_multiset(langs)
    aug = rm_alphabet_augment(ext)
    rho, width = ext.tau, 1 << len(ext.tau.alphabet)
    sat = saturate_universal(rho, ClassId.FO2)
    state = covers._Fo2State(rho, sat, DEFAULT_CAPS)
    ref = reference_covers.MergingFo2(aug.tau, widen(sat, aug), DEFAULT_CAPS)
    mul = aug.tau.semiring.mul
    words = st.sampled_from(sorted(widen_item(x, width) for x in
                                   state._word_images()))
    for subset in range(1 << len(rho.alphabet)):
        sb = st.sampled_from(sorted(ref.s_b(subset)))
        contexts = st.one_of(words, st.tuples(sb, sb).map(lambda xy: mul(*xy)))
        for t in data.draw(st.lists(contexts, min_size=1, max_size=6)):
            item = narrow_item(t, width)
            assert state.peel_letter(item, subset, True) == ref.right_saturated(t, subset)
            assert state.peel_letter(item, subset, False) == ref.left_saturated(t, subset)


def test_fo2_language_sums_cap_allows_exactly_max_elements():
    # like every other closure, the sums below one maximum may number
    # max_elements, and not one more
    from regcov.covers import _Fo2State

    a_or_bb = fa.Nfa(AB, 2, {0}, {0}, {(0, "a", 0), (0, "b", 1), (1, "b", 0)})
    rho = rm_from_multiset([universal_language(AB), a_or_bb]).tau
    sat = saturate_universal(rho, ClassId.FO2)
    subset = 0b11
    words = _Fo2State(rho, sat, DEFAULT_CAPS)._word_images()
    most = max(len({functools.reduce(operator.or_, combo)
                    for n in range(1, len(below) + 1)
                    for combo in itertools.combinations(below, n)})
               for c, m in sat.maximal_elements()
               for below in [[w for d, w in words if d == c and w | m == m]])
    assert len(words) < most == 16
    full = _Fo2State(rho, sat, DEFAULT_CAPS).s_b(subset)
    assert _Fo2State(rho, sat, Caps(max_elements=most)).s_b(subset) == full
    with pytest.raises(SaturationCapError, match="fo2-language-sums"):
        _Fo2State(rho, sat, Caps(max_elements=most - 1)).s_b(subset)


def test_every_synthesizer_builds_trimmed_minimal_pieces():
    # a piece renders its automaton as it is, so each synthesizer hands in
    # the trimmed minimal DFA of the piece's language
    covs = [at_cover(A1), at_cover(ABC)]
    for text in ("a+", "ab|ba", "(ab)+"):
        covs.append(sigma1_cover(minimize(nfa_of(text, "ab")), complement_map(nfa_of(text, "ab"))))
    for langs in ([nfa_of("a+", "ab"), nfa_of("b+", "ab")],
                  [nfa_of("(ab)+", "abc"), nfa_of("c(ac)+", "abc")]):
        dec = decide_universal_covering(rm_from_multiset(langs), ClassId.BSIGMA1)
        covs.append(bsigma1_cover(dec.rating_map, dec.raw_imprint))
    for langs in fo2_instances()[:3]:
        dec = decide_universal_covering(rm_from_multiset(langs), ClassId.FO2, target_index=0)
        covs.append(fo2_cover(dec.rating_map, dec.raw_imprint))
    for cov in covs:
        assert cov.pieces
        for p in cov.pieces:
            assert trim(fa.minimize(p).as_nfa()) == p, cov.class_id


def test_fo2_cover_rejects_incompatible_map():
    ext = rm_from_multiset([nfa_of("a+", "ab")])
    sat = saturate_universal(ext.tau, ClassId.BSIGMA1)
    with pytest.raises(InputError, match="alphabet-compatible"):
        fo2_cover(ext.tau, sat)


def test_restrict_cover():
    cov = at_cover(ABC)
    same = restrict_cover(cov, universal_language(ABC))
    # restriction to the universal language only prunes nothing here
    assert len(same.pieces) == len(cov.pieces)
    target = nfa_of("(ab)+", "abc")
    restricted = restrict_cover(cov, target)
    texts = {rx.regex_to_text(fa.nfa_to_regex(p)) for p in restricted.pieces}
    assert len(restricted.pieces) == 1  # only the {a,b} atom meets (ab)+
    assert includes(target, union_nfa(restricted, ABC))


def universal_and_cut_covers(cls: ClassId, target, against: list):
    """(cover of A*, cover cut for the target) of the class, from the
    decision the CLI takes on the target and the against-languages."""
    if cls is ClassId.AT:
        return at_cover(target.alphabet), at_cover(target.alphabet, target=target)
    dec = decide_universal_covering(rm_from_multiset([target] + against), cls, target_index=0)
    synthesize = bsigma1_cover if cls is ClassId.BSIGMA1 else fo2_cover
    return (synthesize(dec.rating_map, dec.raw_imprint),
            synthesize(dec.rating_map, dec.raw_imprint, target=target))


@pytest.mark.parametrize("cls", [ClassId.AT, ClassId.BSIGMA1, ClassId.FO2],
                         ids=lambda c: c.value)
@given(data=st.data())
def test_cover_cut_for_a_target_is_the_restricted_universal_cover(cls, data):
    # the same pieces, in the same order and with the same provenance, as
    # the pieces of the cover of A* that restriction keeps
    alphabet = data.draw(st.sampled_from([AB, ABC]))
    target = data.draw(nfas(alphabet))
    against = data.draw(st.lists(nfas(alphabet), min_size=1, max_size=2))
    try:
        full, cut = universal_and_cut_covers(cls, target, against)
    except ResourceCapError:
        reject()        # both build the same machine, and stop at the same cap
    assert cut.to_json() == restrict_cover(full, target).to_json()
    assert cut.partition == full.partition
    assert all(not is_empty(p, target) for p in cut.pieces)


def trimmed_states(n) -> int:
    """The states of the trimmed minimal DFA of n's language."""
    return 0 if is_empty(n) else trim(minimize(n).as_nfa()).state_count


@pytest.mark.parametrize("cls", [ClassId.AT, ClassId.BSIGMA1, ClassId.FO2],
                         ids=lambda c: c.value)
@given(data=st.data())
def test_separate_prints_the_smaller_of_two_separating_unions(cls, data):
    # U_target unites the pieces of the cover of A* that meet the target,
    # U_miss those that miss the other language; both are built here from
    # the pieces, independently of `covers.separator`.  Half the against
    # languages are cut off the target, so that more queries are coverable
    import oracles

    alphabet = data.draw(st.sampled_from([AB, ABC]))
    target, against = data.draw(nfas(alphabet)), data.draw(nfas(alphabet))
    if data.draw(st.booleans()):
        against = minimize(nfa_intersection(against, nfa_complement(target))).as_nfa()
    inst = cli.Instance(alphabet, cls, target, [against])
    try:
        bare = cli.run_separate(inst)
        full, _ = universal_and_cut_covers(cls, target, [against])
    except ResourceCapError:
        reject()
    if not bare.coverable:
        assert bare.separator is None and "separator" not in bare.stats
        return
    unions = {}
    for name, pieces in (("meets-target", [p for p in full.pieces if not is_empty(p, target)]),
                         ("misses-against", [p for p in full.pieces if is_empty(p, against)])):
        unions[name] = nfa_union(*pieces) if pieces else fa.empty_language(alphabet)
        assert includes(target, unions[name]) and is_empty(unions[name], against)
        assert getattr(oracles, f"member_{cls.value}")(unions[name])
    assert includes(unions["meets-target"], unions["misses-against"])
    states = {name: trimmed_states(u) for name, u in unions.items()}
    smaller = min(states, key=lambda name: (states[name], name != "meets-target"))
    assert bare.stats["separator"] == {"union": smaller, "states": states[smaller]}
    assert equivalent(nfa_of(bare.separator, alphabet.symbols), unions[smaller])
    emitted = cli.run_separate(replace(inst, emit_cover=True, verify=True))
    assert emitted.separator == bare.separator
    assert emitted.stats["separator"] == bare.stats["separator"]


def test_fo2_cover_cut_for_a_target_checks_only_the_pieces_it_keeps(monkeypatch):
    # a query of the benchmark's corpus: the target meets 6 of the 73 pieces
    # of the cover of A*, and each image evaluated is that of a piece returned
    target = nfa_of("((a|c)bb)+", "abc")
    ext = rm_from_multiset([target, nfa_of("((ac)*)*", "abc")])
    dec = decide_universal_covering(ext, ClassId.FO2, target_index=0)
    full = fo2_cover(dec.rating_map, dec.raw_imprint)
    evaluated = []
    real = RatingMap.eval_nfa
    monkeypatch.setattr(RatingMap, "eval_nfa",
                        lambda self, nfa, *a: evaluated.append(nfa) or real(self, nfa, *a))
    cut = fo2_cover(dec.rating_map, dec.raw_imprint, target=target)
    assert cut.to_json() == restrict_cover(full, target).to_json()
    assert (len(cut.pieces), len(full.pieces)) == (6, 73)
    assert evaluated == cut.pieces


def union_covers(parts: list) -> Cover:
    pieces = list(itertools.chain.from_iterable(c.pieces for c in parts))
    return Cover(parts[0].class_id, pieces,
                 k=parts[0].k, optimal=all(c.optimal for c in parts),
                 provenance="union of per-element covers")


def test_union_covers():
    lang = nfa_of("a+|ab", "ab")
    alpha, acc = transition_monoid(lang)
    rho = complement_map(lang)
    per_element = [sigma1_cover(minimize(fiber_nfa(alpha, {s}, AB)), rho) for s in sorted(acc)]
    merged = union_covers(per_element)
    assert includes(lang, union_nfa(merged, AB))


def test_verify_cover_failure_modes():
    # {A*} covers a+ but cannot separate it from itself
    cov = at_cover(AB)
    target = nfa_of("a+", "ab")
    report = verify_cover(cov, target, [target])
    assert report.covers_target and not report.separating
    # a cover that misses the target
    small = restrict_cover(at_cover(AB), nfa_of("%eps", "ab"))
    report2 = verify_cover(small, target, [nfa_of("b+", "ab")])
    assert not report2.covers_target


def test_a_one_piece_cover_is_checked_without_a_union(monkeypatch):
    # a separator is checked as the one-piece cover of the target, and is its
    # own union: no copy of it is made
    unions = []
    real_union = covers.nfa_union
    monkeypatch.setattr(covers, "nfa_union", lambda *ns: unions.append(len(ns)) or real_union(*ns))
    target, against = nfa_of("a+", "ab"), nfa_of("b+", "ab")
    piece = nfa_of("(a|b)*a(a|b)*", "ab")
    report = verify_cover(Cover(ClassId.SIGMA1, [piece]), target, [against])
    assert report.covers_target and report.separating and report.class_ok
    assert not verify_cover(Cover(ClassId.SIGMA1, [against]), target, [against]).covers_target
    assert unions == []
    report = verify_cover(Cover(ClassId.SIGMA1, [piece, against]), target, [against])
    assert report.covers_target and not report.separating and unions == [2]


def test_cover_index_masks_equal_the_decision_table():
    langs = [nfa_of("a+", "ab"), nfa_of("b+", "ab")]
    ext = rm_from_multiset(langs)
    dec = decide_universal_covering(ext, ClassId.AT)
    assert cover_index_masks(at_cover(AB), ext) == dec.imprint_masks


def test_complement_pair_cover_is_optimal():
    # {A*bA*, complement} is optimal for the multiset map: its index-set
    # imprint matches the atom cover's (the finer semiring imprints differ)
    langs = [nfa_of("(ab)+", "abc"), nfa_of("b(ab)+", "abc"), nfa_of("c(ac)+", "abc")]
    ext = rm_from_multiset(langs)
    withb = nfa_of("(a|b|c)*b(a|b|c)*", "abc")
    manual = Cover(ClassId.AT, [withb, nfa_complement(withb)])
    got = cover_index_masks(manual, ext)
    atoms = cover_index_masks(at_cover(ABC), ext)
    assert got == atoms == {0b000, 0b001, 0b010, 0b011, 0b100}
    # restricting it to (ab)+ keeps only the piece containing a b
    restricted = restrict_cover(manual, nfa_of("(ab)+", "abc"))
    assert len(restricted.pieces) == 1
    assert restricted.pieces[0] is withb


def test_verify_cover_astar_bstar_witness():
    astar = nfa_of("a*", "abc")
    bstar = nfa_of("b*", "abc")
    cov = Cover(ClassId.AT, [astar, bstar])
    report = verify_cover(cov, nfa_of("a+|b+", "abc"),
                          [nfa_of("b+|c+", "abc"), nfa_of("c+|a+", "abc")])
    assert report.covers_target and report.separating
    assert report.piece_witnesses == [0, 1]  # a* misses b+|c+; b* misses c+|a+


def test_bsigma1_cover_single_letter_trivial():
    ext = rm_from_multiset([nfa_of("a*", "a")])
    goal = saturate_universal(ext.tau, ClassId.BSIGMA1)
    cov = bsigma1_cover(ext.tau, goal)
    assert cov.optimal and cov.k <= 1
    assert piece_images_distinct(cov, ext.tau)
    assert members(cover_imprint(cov, ext.tau)) == members(goal)
