"""Decide/synthesize/verify agreement per class on random instances: the
decision says coverable exactly when the synthesized optimal cover is
separating."""

import random

from hypothesis import given, strategies as st

from regcov import (Alphabet, ClassId, Nfa, at_cover, bsigma1_cover,
                    decide_universal_covering, fo2_cover, rm_alphabet_augment,
                    rm_from_multiset, saturate_universal, universal_language,
                    verify_cover)

from helpers import (cover_index_masks, multiset_ext, nfa_of, nfas, piece_images_distinct,
                     random_nfa, reverse)
from reference_semiring import validate_semiring

AB = Alphabet("ab")


def instances(count, seed, max_states=2, max_langs=2):
    rng = random.Random(seed)
    for _ in range(count):
        yield [random_nfa(rng, AB, max_states, 0.35)
               for _ in range(rng.randint(1, max_langs))]


def test_at_decide_iff_cover_separating():
    for langs in instances(15, seed=881):
        ext = rm_from_multiset(langs)
        dec = decide_universal_covering(ext, ClassId.AT)
        cover = at_cover(AB)
        report = verify_cover(cover, universal_language(AB), langs)
        assert report.covers_target and report.class_ok
        assert report.separating == dec.coverable


def test_fo2_decide_iff_cover_separating():
    for langs in instances(12, seed=882):
        ext = rm_from_multiset(langs)
        dec = decide_universal_covering(ext, ClassId.FO2)
        aug = rm_alphabet_augment(ext)
        sat = saturate_universal(ext.tau, ClassId.FO2)
        cover = fo2_cover(ext.tau, sat)
        assert piece_images_distinct(cover, aug.tau)
        report = verify_cover(cover, universal_language(AB), langs)
        assert report.covers_target
        assert report.separating == dec.coverable


def test_bsigma1_decide_iff_cover_separating():
    for langs in instances(12, seed=883):
        ext = rm_from_multiset(langs)
        dec = decide_universal_covering(ext, ClassId.BSIGMA1)
        cover = bsigma1_cover(ext.tau, dec.raw_imprint)
        assert cover.optimal
        assert piece_images_distinct(cover, ext.tau)
        report = verify_cover(cover, universal_language(AB), langs)
        assert report.covers_target and report.class_ok
        assert report.separating == dec.coverable


def test_large_semiring_sampled_axioms():
    # the product of two 3-state relation semirings is too large to sweep;
    # axioms are checked on sampled triples instead
    from regcov import ProductSemiring, RelationSemiring

    rng = random.Random(99)
    sr = ProductSemiring([RelationSemiring(3), RelationSemiring(3)])
    elems = [sr.pack((rng.randrange(1 << 9), rng.randrange(1 << 9))) for _ in range(200)]
    assert validate_semiring(sr, elems, exhaustive_limit=0, samples=10_000,
                             rng=rng) == []


def test_cli_at_matches_direct_oracle():
    from regcov.cli import Instance, run_cover, oracle_at_imprint, UNIVERSAL

    rng = random.Random(884)
    for _ in range(12):
        langs = [random_nfa(rng, AB, 2, 0.35) for _ in range(rng.randint(1, 3))]
        inst = Instance(alphabet=AB, class_id=ClassId.AT, target=UNIVERSAL,
                        against=langs)
        verdict = run_cover(inst)
        oracle = oracle_at_imprint(AB, langs)
        got = sorted([sorted(s) for s in verdict.imprint])
        assert got == sorted(oracle)
        full = list(range(len(langs)))
        assert verdict.coverable == (full not in oracle)


def test_bsigma1_engine_agrees_with_class_partition_oracle():
    # if some depth-k partition separates the pair, the engine must agree;
    # if the engine denies separability, no small depth may separate
    from regcov import ClassId, is_empty, nfa_intersection
    from regcov.pieces import pt_partition
    from helpers import partition_classes

    rng = random.Random(885)
    for _ in range(12):
        l1 = random_nfa(rng, AB, 2, 0.35)
        l2 = random_nfa(rng, AB, 2, 0.35)
        ext = rm_from_multiset([l1, l2])
        dec = decide_universal_covering(ext, ClassId.BSIGMA1, target_index=0)
        oracle_k = None
        for k in range(4):
            pa, _ = pt_partition(k, AB)
            if all(is_empty(nfa_intersection(cls, l1))
                   or is_empty(nfa_intersection(cls, l2))
                   for cls in partition_classes(pa)):
                oracle_k = k
                break
        if oracle_k is not None:
            assert dec.coverable, f"partition at k={oracle_k} separates but engine denies"
        if not dec.coverable:
            assert oracle_k is None


def test_bsigma1_three_letter_alphabet_end_to_end():
    from regcov import ClassId, universal_language
    abc = Alphabet("abc")
    rng = random.Random(886)
    for _ in range(4):
        langs = [random_nfa(rng, abc, 2, 0.3) for _ in range(2)]
        ext = rm_from_multiset(langs)
        dec = decide_universal_covering(ext, ClassId.BSIGMA1)
        cover = bsigma1_cover(ext.tau, dec.raw_imprint)
        assert cover.optimal
        assert piece_images_distinct(cover, ext.tau)
        report = verify_cover(cover, universal_language(abc), langs)
        assert report.covers_target and report.separating == dec.coverable


def test_downward_closure_oracle_semantics():
    import oracles
    from helpers import is_piece, nfa_of, words_upto
    lang = nfa_of("ab|ba", "ab")
    down = oracles.downward_closure(lang)
    for w in words_upto("ab", 4):
        want = any(is_piece(w, v) for v in ["ab", "ba"])
        assert down.accepts(w) == want


def test_sigma1_full_covering_matches_downclosure_oracle():
    # the whole per-subset verdict table agrees with the independent
    # piece-closure characterization, for multisets up to three languages
    from regcov import ClassId, decide_pointed_covering
    import oracles

    rng = random.Random(887)
    for _ in range(15):
        target = random_nfa(rng, AB, 2, 0.4)
        langs = [random_nfa(rng, AB, 2, 0.35) for _ in range(rng.randint(1, 3))]
        ext = rm_from_multiset(langs)
        dec = decide_pointed_covering(target, ext, ClassId.SIGMA1)
        n = len(langs)
        for mask in range(1, 1 << n):
            subset = [langs[i] for i in range(n) if mask >> i & 1]
            want_coverable = oracles.sigma1_coverable(target, subset)
            got_coverable = mask not in dec.imprint_masks
            assert got_coverable == want_coverable, (mask, n)
        assert dec.coverable == oracles.sigma1_coverable(target, langs)


def test_cover_mask_imprints_equal_decision_tables():
    # at the language-index level, the synthesized optimal cover's imprint
    # is exactly the decision's table, for every synthesizable class
    from regcov import ClassId

    rng = random.Random(888)
    for _ in range(8):
        langs = [random_nfa(rng, AB, 2, 0.35) for _ in range(rng.randint(1, 2))]
        ext = rm_from_multiset(langs)

        dec_at = decide_universal_covering(ext, ClassId.AT)
        assert cover_index_masks(at_cover(AB), ext) == dec_at.imprint_masks

        dec_b1 = decide_universal_covering(ext, ClassId.BSIGMA1)
        cov = bsigma1_cover(ext.tau, dec_b1.raw_imprint)
        assert cov.optimal
        assert piece_images_distinct(cov, ext.tau)
        assert cover_index_masks(cov, ext) == dec_b1.imprint_masks

        dec_f2 = decide_universal_covering(ext, ClassId.FO2)
        aug = rm_alphabet_augment(ext)
        cov = fo2_cover(ext.tau, saturate_universal(ext.tau, ClassId.FO2))
        assert piece_images_distinct(cov, aug.tau)
        assert cover_index_masks(cov, ext) == dec_f2.imprint_masks


def construction_verdicts(langs, target) -> list:
    """Per forced construction of the languages' rating maps (the relations
    of the minimal DFA, of the NFA itself, or the monoid powerset), the
    (imprint_masks, coverable) of all six classes: the universal classes
    over langs, the pointed ones for the target against langs."""
    from regcov import (decide_pointed_covering, minimize, rm_from_morphism, rm_from_nfa,
                        transition_monoid)

    out = []
    for build in (lambda l: rm_from_nfa(minimize(l).as_nfa()), rm_from_nfa,
                  lambda l: rm_from_morphism(*transition_monoid(l))):
        ext = multiset_ext([build(l) for l in langs])
        ds = [decide_universal_covering(ext, cid)
              for cid in (ClassId.AT, ClassId.BSIGMA1, ClassId.FO, ClassId.FO2)]
        ds += [decide_pointed_covering(target, ext, cid)
               for cid in (ClassId.SIGMA1, ClassId.SIGMA2)]
        out.append({d.class_id: (d.imprint_masks, d.coverable) for d in ds})
    return out


def test_decisions_independent_of_rating_construction():
    # the pulled-back tables are canonical: routing languages through the
    # relations of the minimal DFA or of the NFA itself, or through monoid
    # powersets, must produce identical verdicts
    from regcov import minimize

    rng = random.Random(889)
    cases = []
    for _ in range(8):
        langs = [random_nfa(rng, AB, 2, 0.35) for _ in range(rng.randint(1, 2))]
        cases.append((langs, random_nfa(rng, AB, 2, 0.4)))
    # minimal DFAs of 7 states: 49-bit relations
    wide = [nfa_of("(aab|bba)+", "ab"), random_nfa(random.Random(129), AB, 8, 0.3)]
    assert all(minimize(l).state_count >= 7 for l in wide)
    cases += [([wide[0]], nfa_of("a(ab)*b(ba)*a", "ab")), ([wide[1]], wide[0])]
    for langs, target in cases:
        verdicts = construction_verdicts(langs, target)
        for cid in ClassId:
            assert len({v[cid] for v in verdicts}) == 1, cid


def six_class_verdicts(target, langs):
    """Whether the target is coverable against langs, for all six classes."""
    from regcov import decide_pointed_covering

    ext = rm_from_multiset([target] + langs)
    verdicts = {cid: decide_universal_covering(ext, cid, target_index=0).coverable
                for cid in (ClassId.AT, ClassId.BSIGMA1, ClassId.FO, ClassId.FO2)}
    ext2 = rm_from_multiset(langs)
    for cid in (ClassId.SIGMA1, ClassId.SIGMA2):
        verdicts[cid] = decide_pointed_covering(target, ext2, cid).coverable
    return verdicts


def test_coverable_implies_empty_common_intersection():
    # a separating cover can exist only when the target misses the
    # intersection of the whole multiset, whatever the class
    from regcov import is_empty, nfa_intersection

    rng = random.Random(890)
    for _ in range(10):
        target = random_nfa(rng, AB, 2, 0.4)
        langs = [random_nfa(rng, AB, 2, 0.35) for _ in range(rng.randint(1, 2))]
        common = target
        for lang in langs:
            common = nfa_intersection(common, lang)
        for cid, coverable in six_class_verdicts(target, langs).items():
            if coverable:
                assert is_empty(common), cid


# (smaller, larger): coverable in the smaller class implies coverable in the larger
LATTICE = ((ClassId.AT, ClassId.BSIGMA1), (ClassId.BSIGMA1, ClassId.FO),
           (ClassId.AT, ClassId.FO2), (ClassId.FO2, ClassId.FO),
           (ClassId.SIGMA1, ClassId.BSIGMA1), (ClassId.SIGMA1, ClassId.SIGMA2),
           (ClassId.SIGMA2, ClassId.FO))


def lattice_cases():
    """The frozen-seed instances of the tests above, plus two pairs that
    some classes separate and others do not."""
    from helpers import nfa_of

    cases = [(nfa_of("ab", "ab"), [nfa_of("ba", "ab")]),
             (nfa_of("(ab)+", "ab"), [nfa_of("b(ab)+", "ab")])]
    rng = random.Random(885)
    cases += [(random_nfa(rng, AB, 2, 0.35), [random_nfa(rng, AB, 2, 0.35)]) for _ in range(12)]
    for seed, count, most in ((887, 15, 3), (890, 10, 2)):
        rng = random.Random(seed)
        for _ in range(count):
            target = random_nfa(rng, AB, 2, 0.4)
            cases.append((target, [random_nfa(rng, AB, 2, 0.35)
                                   for _ in range(rng.randint(1, most))]))
    return cases


def test_class_lattice_on_coverings():
    cases = lattice_cases()
    assert six_class_verdicts(*cases[0]) == {cid: cid is not ClassId.AT for cid in ClassId}
    assert six_class_verdicts(*cases[1]) == {
        cid: cid in (ClassId.SIGMA2, ClassId.FO2, ClassId.FO) for cid in ClassId}
    for target, langs in cases:
        verdicts = six_class_verdicts(target, langs)
        for small, large in LATTICE:
            assert not verdicts[small] or verdicts[large], (small, large)


@given(st.sampled_from([AB, Alphabet("abc")]).flatmap(
    lambda alphabet: st.tuples(nfas(alphabet, max_states=5),
                               st.lists(nfas(alphabet, max_states=5), min_size=1, max_size=2))))
def test_class_lattice_on_drawn_coverings(drawn):
    # the property form of the test above; most draws take a relation part,
    # whose star and exact-alphabet images are solved in closed form
    target, langs = drawn
    verdicts = six_class_verdicts(target, langs)
    for small, large in LATTICE:
        assert not verdicts[small] or verdicts[large], (small, large)


def check_reversal(target, langs):
    """The mirrored instance gets the same verdicts, and its fo2 cover
    verifies and separates exactly when the fo2 verdict says so."""
    from regcov import restrict_cover

    verdicts = six_class_verdicts(target, langs)
    target, langs = reverse(target), [reverse(lang) for lang in langs]
    assert six_class_verdicts(target, langs) == verdicts
    ext = rm_from_multiset([target] + langs)
    dec = decide_universal_covering(ext, ClassId.FO2, target_index=0)
    cover = restrict_cover(fo2_cover(dec.rating_map, dec.raw_imprint), target)
    report = verify_cover(cover, target, langs)
    assert report.covers_target and report.separating == verdicts[ClassId.FO2]


def test_coverings_are_invariant_under_reversal():
    # all six classes are closed under mirror image, so the mirrored
    # instance gets the same verdicts; the mirrored fo2 synthesis swaps the
    # nodes that peel on the left and on the right
    for target, langs in lattice_cases():
        check_reversal(target, langs)


@given(st.sampled_from([AB, Alphabet("abc")]).flatmap(
    lambda alphabet: st.tuples(nfas(alphabet),
                               st.lists(nfas(alphabet), min_size=1, max_size=2))))
def test_coverings_are_invariant_under_reversal_on_shrinking_nfas(drawn):
    # the property form of the test above, over two and three letters
    check_reversal(*drawn)


def renumber(nfa, perm):
    return Nfa(nfa.alphabet, nfa.state_count, frozenset(perm[q] for q in nfa.initials),
               frozenset(perm[q] for q in nfa.finals),
               frozenset((perm[q], a, perm[r]) for q, a, r in nfa.transitions))


@given(st.lists(nfas(AB), min_size=2, max_size=3), st.data())
def test_coverings_are_invariant_under_state_renumbering(langs, data):
    # a language does not depend on how its automaton numbers its states:
    # the same verdicts and imprints for all six classes, and the same
    # construction widths
    from regcov.cli import Instance, run_cover

    renumbered = [renumber(l, data.draw(st.permutations(range(l.state_count))))
                  for l in langs]

    def widths(ls):
        return [(type(p), p.nbits) for p in rm_from_multiset(ls).tau.semiring.parts]

    assert widths(renumbered) == widths(langs)
    for cid in ClassId:
        there, back = (run_cover(Instance(alphabet=AB, class_id=cid, target=ls[0],
                                          against=ls[1:]))
                       for ls in (langs, renumbered))
        assert (there.coverable, there.imprint) == (back.coverable, back.imprint), cid


@given(st.lists(nfas(AB), min_size=1, max_size=2), nfas(AB))
def test_decisions_independent_of_rating_construction_on_shrinking_nfas(langs, target):
    # the property form of the test above, on shrinking NFAs
    verdicts = construction_verdicts(langs, target)
    for cid in ClassId:
        assert len({v[cid] for v in verdicts}) == 1, cid


def test_separation_is_symmetric_for_boolean_classes():
    # a Boolean class separates L1 from L2 exactly when it separates L2
    # from L1: the complement of a separator is one
    pairs = [(target, langs[0]) for target, langs in lattice_cases() if len(langs) == 1]
    assert len(pairs) == 21
    for l1, l2 in pairs:
        check_symmetry(l1, l2)


def check_symmetry(l1, l2):
    """Each Boolean class separates l1 from l2 exactly when it separates l2
    from l1."""
    from regcov.cli import Instance, run_cover

    for cid in (ClassId.AT, ClassId.BSIGMA1, ClassId.FO2, ClassId.FO):
        there = run_cover(Instance(alphabet=l1.alphabet, class_id=cid, target=l1, against=[l2]))
        back = run_cover(Instance(alphabet=l1.alphabet, class_id=cid, target=l2, against=[l1]))
        assert there.coverable == back.coverable, (cid, l1, l2)


@given(st.sampled_from([AB, Alphabet("abc")]).flatmap(
    lambda alphabet: st.tuples(nfas(alphabet), nfas(alphabet))))
def test_separation_is_symmetric_for_boolean_classes_on_shrinking_nfas(drawn):
    # the property form of the test above, over two and three letters
    check_symmetry(*drawn)
