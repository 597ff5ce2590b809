"""Fixpoint engines: class rules, invariants, determinism, decisions."""

import random

import pytest
from hypothesis import given, reject, strategies as st

from regcov import (Alphabet, ClassId, ImprintSet, InputError, ResourceCapError, at_imprint,
                    alphabet_exact, decide_pointed_covering, decide_universal_covering,
                    is_empty, minimize, nfa_concat, nfa_intersection, regex_to_nfa,
                    rm_alphabet_augment, rm_from_multiset, saturate_pointed,
                    saturate_universal, transition_monoid, upward_closure)
from regcov import saturation
import explicit_engine as explicit
import reference_saturation as reference
from explicit_engine import downset, members, same_imprint
from helpers import (LifoImprintSet, cayley, eval_word, is_submonoid, leq, nfa_of, nfas,
                     random_nfa, random_regex, rm_trivial_imprint, strip_content, widen)

AB = Alphabet("ab")
ABC = Alphabet("abc")
A1 = Alphabet("a")


def small_instances(count, seed, states=2, langs=2, symbols="ab"):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nfas = [random_nfa(rng, Alphabet(symbols), states) for _ in range(rng.randint(1, langs))]
        out.append(nfas)
    return out


def test_single_letter_all_classes_full_lattice():
    ext = rm_from_multiset([nfa_of("a*", "a")])
    tau = ext.tau
    triv = rm_trivial_imprint(tau)
    star = tau.image_of_star(0b1)
    want = members(triv)
    want.update(downset(tau.semiring, star))
    for cid in (ClassId.BSIGMA1, ClassId.FO):
        got = saturate_universal(tau, cid)
        assert members(got) == want, cid
    got2 = saturate_universal(tau, ClassId.FO2)
    assert members(strip_content(got2, tau.semiring)) == want


def test_bsigma1_rule_fires_for_every_subalphabet():
    ext = rm_from_multiset([nfa_of("(ab)+", "ab"), nfa_of("a+", "ab")])
    tau = ext.tau
    got = saturate_universal(tau, ClassId.BSIGMA1)
    sr = tau.semiring
    for mask in range(4):
        exact = tau.image_of_exact(mask)
        assert sr.idempotent_power(exact) in got


def test_pointed_engines_refuse_a_pointer_over_another_alphabet():
    ext = rm_from_multiset([nfa_of("a+", "abc")])
    target = nfa_of("a+", "ab")
    with pytest.raises(InputError, match="alphabets differ"):
        saturate_pointed(minimize(target), ext.tau, ClassId.SIGMA1)
    alpha, _ = transition_monoid(target)
    with pytest.raises(InputError, match="alphabets differ"):
        saturate_pointed(alpha, ext.tau, ClassId.SIGMA2)


def test_engine_class_routing():
    ext = rm_from_multiset([nfa_of("a+", "ab")])
    alpha, _ = transition_monoid(nfa_of("a+", "ab"))
    with pytest.raises(InputError):
        saturate_universal(ext.tau, ClassId.SIGMA1)
    with pytest.raises(InputError):
        saturate_pointed(alpha, ext.tau, ClassId.FO)


def test_structural_invariants_universal():
    for nfas in small_instances(8, seed=101):
        ext = rm_from_multiset(nfas)
        triv = rm_trivial_imprint(ext.tau)
        for cid in (ClassId.BSIGMA1, ClassId.FO):
            got = saturate_universal(ext.tau, cid)
            assert same_imprint(explicit.saturate_universal(ext.tau, cid), got)
            assert is_submonoid(got)
            assert all(x in got for x in members(triv))
        aug = rm_alphabet_augment(ext)
        got = widen(saturate_universal(ext.tau, ClassId.FO2), aug)
        assert same_imprint(explicit.saturate_universal(aug.tau, ClassId.FO2), got)
        assert is_submonoid(got)
        assert all(x in got for x in members(rm_trivial_imprint(aug.tau)))


def test_structural_invariants_pointed():
    rng = random.Random(55)
    for nfas in small_instances(6, seed=77):
        target = random_nfa(rng, AB, 2)
        alpha, _ = transition_monoid(target)
        ext = rm_from_multiset(nfas)
        p1 = saturate_pointed(cayley(alpha, AB), ext.tau, ClassId.SIGMA1)
        assert same_imprint(explicit.saturate_pointed(alpha, ext.tau, ClassId.SIGMA1), p1)
        assert is_submonoid(p1, alpha)
        assert all(x in p1 for x in members(rm_trivial_imprint(ext.tau, alpha)))
        aug = rm_alphabet_augment(ext)
        p2 = widen(saturate_pointed(alpha, ext.tau, ClassId.SIGMA2), aug)
        assert same_imprint(explicit.saturate_pointed(alpha, aug.tau, ClassId.SIGMA2), p2)
        assert is_submonoid(p2, alpha)


def test_sigma1_rule_element_present():
    ext = rm_from_multiset([nfa_of("b+", "ab")])
    alpha, _ = transition_monoid(nfa_of("a+", "ab"))
    got = saturate_pointed(cayley(alpha, AB), ext.tau, ClassId.SIGMA1)
    assert (alpha.identity, ext.tau.image_of_star(0b11)) in got


def test_determinism_under_reversed_worklist(monkeypatch):
    def both_orders(*args):
        fifo = saturate_universal(*args)
        with monkeypatch.context() as m:
            m.setattr(saturation, "ImprintSet", LifoImprintSet)
            lifo = saturate_universal(*args)
        assert type(fifo) is ImprintSet and type(lifo) is LifoImprintSet
        return members(fifo), members(lifo)

    for nfas in small_instances(5, seed=5):
        ext = rm_from_multiset(nfas)
        a, b = both_orders(ext.tau, ClassId.BSIGMA1)
        assert a == b
        a2, b2 = both_orders(ext.tau, ClassId.FO2)
        assert a2 == b2


def test_class_chain_monotone():
    for nfas in small_instances(10, seed=23):
        ext = rm_from_multiset(nfas)
        tau = ext.tau
        i_at = at_imprint(tau)
        i_fo = saturate_universal(tau, ClassId.FO)
        i_bs1 = saturate_universal(tau, ClassId.BSIGMA1)
        i_fo2 = strip_content(saturate_universal(tau, ClassId.FO2), tau.semiring)
        assert members(i_fo) <= members(i_fo2)
        assert members(i_fo) <= members(i_bs1)
        assert members(i_fo2) <= members(i_at)
        assert members(i_bs1) <= members(i_at)


def test_pointed_chain_sigma2_below_sigma1():
    rng = random.Random(31)
    for nfas in small_instances(6, seed=41):
        target = random_nfa(rng, AB, 2)
        alpha, _ = transition_monoid(target)
        ext = rm_from_multiset(nfas)
        p1 = saturate_pointed(cayley(alpha, AB), ext.tau, ClassId.SIGMA1)
        p2 = strip_content(saturate_pointed(alpha, ext.tau, ClassId.SIGMA2), ext.tau.semiring)
        assert members(p2) <= members(p1)


def test_fixpoint_minimality_small_instance():
    ext = rm_from_multiset([nfa_of("a+", "ab")])
    tau = ext.tau
    sr = tau.semiring
    got = saturate_universal(tau, ClassId.BSIGMA1)
    members_got = members(got)
    assert len(members_got) <= 30
    seeds = members(rm_trivial_imprint(tau))
    for mask in range(4):
        seeds.add(sr.idempotent_power(tau.image_of_exact(mask)))
    for x in members_got - seeds:
        derivable = False
        rest = members_got - {x}
        for y in rest:
            if leq(x, y):
                derivable = True
                break
        if not derivable:
            for a in rest:
                for b in rest:
                    if sr.mul(a, b) == x:
                        derivable = True
                        break
                if derivable:
                    break
        assert derivable, f"{x} is not derivable: fixpoint not minimal"


def scoped_at_imprint(rho, scope):
    """The alphabet-testable imprint of a language: the images of the atoms
    that meet it, and zero."""
    out = ImprintSet(rho.semiring)
    out.insert(rho.semiring.zero)
    for mask in range(1 << len(rho.alphabet)):
        syms = rho.alphabet.from_mask(mask)
        if not is_empty(nfa_intersection(alphabet_exact(rho.alphabet, syms), scope)):
            out.insert(rho.image_of_exact(mask))
    return out


def test_at_imprint_scopes():
    langs = [nfa_of("(ab)+", "abc"), nfa_of("b(ab)+", "abc"), nfa_of("c(ac)+", "abc")]
    ext = rm_from_multiset(langs)
    universal = at_imprint(ext.tau)
    masks = {ext.index_set(r) for r in universal.maximal_elements()}
    closed = set()
    for m in masks:
        sub = m
        while True:
            closed.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    assert closed == {0b000, 0b001, 0b010, 0b011, 0b100}
    scoped = scoped_at_imprint(ext.tau, nfa_of("%empty", "abc"))
    assert members(scoped) == {ext.tau.semiring.zero}
    # language scope is contained in the universal imprint
    scoped2 = scoped_at_imprint(ext.tau, nfa_of("(ab)+", "abc"))
    assert members(scoped2) <= members(universal)


def test_concatenation_compatibility_via_at():
    rng = random.Random(63)
    ext = rm_from_multiset([nfa_of("a+", "ab"), nfa_of("(ab)+", "ab")])
    tau = ext.tau
    sr = tau.semiring
    for _ in range(10):
        l1 = regex_to_nfa(random_regex(rng, "ab", 2), AB)
        l2 = regex_to_nfa(random_regex(rng, "ab", 2), AB)
        i1 = scoped_at_imprint(tau, l1)
        i2 = scoped_at_imprint(tau, l2)
        i12 = scoped_at_imprint(tau, nfa_concat(l1, l2))
        for r1 in i1.maximal_elements():
            for r2 in i2.maximal_elements():
                assert sr.mul(r1, r2) in i12


def test_decide_universal_examples():
    # a multiset containing the empty language is always coverable
    ext = rm_from_multiset([nfa_of("%empty", "ab")])
    dec = decide_universal_covering(ext, ClassId.AT)
    assert dec.coverable
    # target meeting the whole multiset is never coverable
    items = [nfa_of("a+", "ab"), nfa_of("a+|b+", "ab")]
    ext = rm_from_multiset(items)
    dec = decide_universal_covering(ext, ClassId.AT, target_index=0)
    assert not dec.coverable
    for cid in (ClassId.BSIGMA1, ClassId.FO, ClassId.FO2):
        assert not decide_universal_covering(ext, cid, target_index=0).coverable


def test_decide_remark_instances():
    l, l1, l2 = nfa_of("a+|b+", "abc"), nfa_of("b+|c+", "abc"), nfa_of("c+|a+", "abc")
    ok = decide_universal_covering(rm_from_multiset([l, l1, l2]), ClassId.AT, target_index=0)
    assert ok.coverable
    bad1 = decide_universal_covering(rm_from_multiset([l, l1]), ClassId.AT, target_index=0)
    bad2 = decide_universal_covering(rm_from_multiset([l, l2]), ClassId.AT, target_index=0)
    assert not bad1.coverable and not bad2.coverable
    assert 0b1 in bad1.imprint_masks


def test_decide_pointed_examples():
    # empty target is vacuously coverable
    empty = nfa_of("%empty", "ab")
    alpha, acc = transition_monoid(empty)
    assert acc == frozenset()
    ext = rm_from_multiset([nfa_of("a+", "ab")])
    dec = decide_pointed_covering(empty, ext, ClassId.SIGMA1)
    assert dec.coverable
    # a+ vs b+ separable; a+ vs its superword closure not
    ext = rm_from_multiset([nfa_of("b+", "ab")])
    assert decide_pointed_covering(nfa_of("a+", "ab"), ext, ClassId.SIGMA1).coverable
    ext = rm_from_multiset([nfa_of("(a|b)*a(a|b)*", "ab")])
    assert not decide_pointed_covering(nfa_of("a+", "ab"), ext, ClassId.SIGMA1).coverable


def test_sigma1_matches_upward_oracle_on_random_pairs():
    rng = random.Random(2024)
    for _ in range(25):
        l1 = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        l2 = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        ext = rm_from_multiset([l2])
        got = decide_pointed_covering(l1, ext, ClassId.SIGMA1).coverable
        want = is_empty(nfa_intersection(upward_closure(l1), l2))
        assert got == want


def test_separation_as_covering_consistency():
    # singleton multiset decisions are exactly two-language separability (AT)
    rng = random.Random(99)
    for _ in range(10):
        l1 = regex_to_nfa(random_regex(rng, "ab", 2), AB)
        l2 = regex_to_nfa(random_regex(rng, "ab", 2), AB)
        ext = rm_from_multiset([l1, l2])
        dec = decide_universal_covering(ext, ClassId.AT, target_index=0)
        # oracle: separable in AT iff no atom meets both languages
        sep = True
        for mask in range(4):
            from regcov import alphabet_exact
            atom = alphabet_exact(AB, AB.from_mask(mask))
            if not is_empty(nfa_intersection(atom, l1)) and \
               not is_empty(nfa_intersection(atom, l2)):
                sep = False
        assert dec.coverable == sep


def test_at_imprint_single_letter_atoms():
    ext = rm_from_multiset([nfa_of("(aa)*", "a")])
    tau = ext.tau
    imp = at_imprint(tau)
    sr = tau.semiring
    want = {sr.zero}
    for image in (eval_word(tau, ""), tau.image_of_exact(0b1)):
        want.update(downset(sr, image))
    assert members(imp) == want


def _engine_pairs(target, other):
    """(antichain imprint, explicit oracle imprint) for all six classes of
    the pair, built the way the CLI decides it."""
    ext = rm_from_multiset([target, other])
    tau = ext.tau
    aug = rm_alphabet_augment(ext)
    pointed_ext = rm_from_multiset([other])
    pointed_tau = pointed_ext.tau
    pointed_aug = rm_alphabet_augment(pointed_ext)
    alpha, _ = transition_monoid(target)
    yield at_imprint(tau), explicit.at_imprint(tau)
    for cid in (ClassId.BSIGMA1, ClassId.FO):
        yield saturate_universal(tau, cid), explicit.saturate_universal(tau, cid)
    yield (widen(saturate_universal(tau, ClassId.FO2), aug),
           explicit.saturate_universal(aug.tau, ClassId.FO2))
    yield (saturate_pointed(cayley(alpha, target.alphabet), pointed_tau, ClassId.SIGMA1),
           explicit.saturate_pointed(alpha, pointed_tau, ClassId.SIGMA1))
    yield (widen(saturate_pointed(alpha, pointed_tau, ClassId.SIGMA2), pointed_aug),
           explicit.saturate_pointed(alpha, pointed_aug.tau, ClassId.SIGMA2))


def test_antichain_engine_matches_explicit_engine():
    """Antichain and explicit engines give equal imprints on random pairs of
    NFAs with at most four states.  The acceptance corpus is compared in
    criteria 4-6.  The explicit engine is exponential in the rating width,
    so pairs wider than 16 bits are skipped to keep the oracle cheap."""
    rng = random.Random(4)
    checked = 0
    while checked < 40:
        target, other = random_nfa(rng, AB, 4), random_nfa(rng, AB, 4)
        if rm_from_multiset([target, other]).tau.semiring.log2_size() > 16:
            continue
        checked += 1
        for new, old in _engine_pairs(target, other):
            assert same_imprint(old, new), (target, other, new.label)


def test_generator_loop_matches_all_pairs_reference(monkeypatch):
    """The generator loop and the all-pairs loop it replaced give the same
    antichain and the same number of rule rounds, for the five saturated
    classes in both worklist orders, on random pairs of NFAs over abc whose
    rating sets are wider than the explicit engine's 16 bits."""
    rng = random.Random(8)
    checked = 0
    while checked < 16:
        target, other = random_nfa(rng, ABC, 4), random_nfa(rng, ABC, 4)
        ext = rm_from_multiset([target, other])
        tau = ext.tau
        if tau.semiring.log2_size() <= 16:
            continue
        checked += 1
        aug = rm_alphabet_augment(ext)
        pointed_ext = rm_from_multiset([other])
        pointed_tau = pointed_ext.tau
        pointed_aug = rm_alphabet_augment(pointed_ext)
        alpha, _ = transition_monoid(target)
        # (engine, its arguments, the wide form it is compared in, all-pairs
        # reference, its arguments)
        runs = [(saturate_universal, (tau, ClassId.BSIGMA1), None,
                 reference.saturate_universal, (tau, ClassId.BSIGMA1)),
                (saturate_universal, (tau, ClassId.FO), None,
                 reference.saturate_universal, (tau, ClassId.FO)),
                (saturate_universal, (tau, ClassId.FO2), aug,
                 reference.saturate_universal, (aug.tau, ClassId.FO2)),
                (saturate_pointed, (cayley(alpha, ABC), pointed_tau, ClassId.SIGMA1), None,
                 reference.saturate_pointed, (alpha, pointed_tau, ClassId.SIGMA1)),
                (saturate_pointed, (alpha, pointed_tau, ClassId.SIGMA2), pointed_aug,
                 reference.saturate_pointed, (alpha, pointed_aug.tau, ClassId.SIGMA2))]
        for engine, args, wide, all_pairs, ref_args in runs:
            for lifo in (False, True):
                with monkeypatch.context() as m:
                    if lifo:
                        m.setattr(saturation, "ImprintSet", LifoImprintSet)
                        m.setattr(reference, "ImprintSet", LifoImprintSet)
                    got, want = engine(*args), all_pairs(*ref_args)
                assert type(got) is type(want) is (LifoImprintSet if lifo else ImprintSet)
                if wide is not None:
                    got = widen(got, wide)
                assert set(got.maximal_elements()) == set(want.maximal_elements()), \
                    (target, other, got.label, lifo)
                assert got.sweeps == want.sweeps, (target, other, got.label, lifo)


def test_rule_outputs_dominated_later_in_their_round_do_not_join(monkeypatch):
    """A rule output that is maximal when inserted but dominated by a later
    output of the same round stays out of the generators, and the fixpoint
    is unchanged: the same antichain as the all-pairs reference and, where
    the rating set is narrow enough, the explicit engine."""
    dropped = []
    real = saturation._saturate

    def recording(out, one, gens, mul, rule):
        def recorded(maxima):
            kept = []
            for h in rule(maxima):
                before = out.is_maximal(h)
                yield h                     # _saturate inserts h here
                if not before and out.is_maximal(h):
                    kept.append(h)
            dropped.extend(h for h in kept if not out.is_maximal(h))
        return real(out, one, gens, mul, rule and recorded)

    monkeypatch.setattr(saturation, "_saturate", recording)

    def draw(seed, index, symbols):
        rng = random.Random(seed)
        for _ in range(index + 1):
            pair = random_nfa(rng, symbols, 4), random_nfa(rng, symbols, 4)
        return pair

    # which output of a round comes first follows the order of the rule's
    # candidates; this draw drops one in the order of the content-keyed rule
    target, other = draw(31, 2, AB)
    ext = rm_from_multiset([target, other])
    aug = rm_alphabet_augment(ext)
    assert aug.tau.semiring.log2_size() <= 16
    got = widen(saturate_universal(ext.tau, ClassId.FO2), aug)
    assert dropped
    assert same_imprint(explicit.saturate_universal(aug.tau, ClassId.FO2), got)
    want = reference.saturate_universal(aug.tau, ClassId.FO2)
    assert set(got.maximal_elements()) == set(want.maximal_elements())
    assert got.sweeps == want.sweeps

    target, other = draw(7, 2, AB)
    ext = rm_from_multiset([other])
    aug = rm_alphabet_augment(ext)
    alpha, _ = transition_monoid(target)
    dropped.clear()
    got = widen(saturate_pointed(alpha, ext.tau, ClassId.SIGMA2), aug)
    assert dropped
    want = reference.saturate_pointed(alpha, aug.tau, ClassId.SIGMA2)
    assert set(got.maximal_elements()) == set(want.maximal_elements())
    assert got.sweeps == want.sweeps


@given(st.sampled_from([AB, ABC]).flatmap(
    lambda a: st.tuples(nfas(a, 6, 2), st.lists(nfas(a, 6, 2), min_size=1, max_size=2))))
def test_keyed_engines_decide_as_the_wide_engines(drawn):
    # Σ1 keyed by the state of the target's minimal DFA, FO2 by content and
    # Σ2 by (monoid element, content) give the imprint masks and verdicts of
    # the engines they replaced: Σ1 pointed by the transition monoid, FO2
    # and Σ2 over the alphabet augmentation
    target, against = drawn
    try:
        for cid in (ClassId.FO2, ClassId.SIGMA1, ClassId.SIGMA2):
            if cid is ClassId.FO2:
                dec = decide_universal_covering(rm_from_multiset([target] + against), cid,
                                                target_index=0)
            else:
                dec = decide_pointed_covering(target, rm_from_multiset(against), cid)
            want = reference.decide_wide(cid, target, against)
            assert (dec.imprint_masks, dec.coverable) == want, cid
    except ResourceCapError:
        reject()        # both sides build the same transition monoid
