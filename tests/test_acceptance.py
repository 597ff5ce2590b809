"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every random corpus is generated from a frozen seed; the time budgets are
asserted alongside the functional checks.
"""

import json
import random
import time

from regcov import (Alphabet, ClassId, at_imprint, bsigma1_cover,
                    decide_universal_covering, fo2_cover, includes, is_empty,
                    nfa_intersection, regex_to_nfa, rm_alphabet_augment,
                    rm_from_multiset, saturate_pointed, saturate_universal,
                    transition_monoid, universal_language, upward_closure,
                    verify_cover)
from regcov.cli import Instance, main, run_separate
from regcov.fa import alphabet_exact

import explicit_engine as explicit
from explicit_engine import members, same_imprint, submasks
from helpers import (cayley, cover_imprint, imprint_pullback, is_submonoid, piece_images_distinct,
                     random_nfa, random_regex, rm_trivial_imprint, strip_content, union_nfa,
                     widen)
from templates import bsigma1_template_witness, template_unambiguous

AB = Alphabet("ab")
ABC = Alphabet("abc")
SEED = 20240809


def report(criterion: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def corpus_multisets(count: int, max_states: int = 3, max_langs: int = 3,
                     prob: float = 0.28):
    """Shared corpus for criteria 4-6: (target, multiset) instances."""
    rng = random.Random(SEED)
    out = []
    for _ in range(count):
        langs = [random_nfa(rng, AB, max_states, prob)
                 for _ in range(rng.randint(1, max_langs))]
        target = random_nfa(rng, AB, 2, 0.4)
        out.append((target, langs))
    return out


# -- criterion 1: worked-example atom imprint ------------------------------------------

def test_criterion_1_worked_example_imprint(capsys):
    t0 = time.perf_counter()
    code = main(["imprint", "--class", "at", "--alphabet", "abc",
                 "--against", "(ab)+", "--against", "b(ab)+", "--against", "c(ac)+",
                 "--json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    doc = json.loads(out)
    got = {tuple(s) for s in doc["imprint"]}
    want = {(), (0,), (1,), (0, 1), (2,)}
    with capsys.disabled():
        report(1, code == 0 and got == want and elapsed < 1.0,
               f"atom imprint == expected five subsets in {elapsed:.3f}s")


# -- criterion 2: pairwise non-coverable, jointly coverable ----------------------------

def test_criterion_2_pairwise_vs_joint(capsys):
    t0 = time.perf_counter()
    results = {}
    for name, against in [("l1", ["b+|c+"]), ("l2", ["c+|a+"]),
                          ("both", ["b+|c+", "c+|a+"])]:
        code = main(["cover", "--class", "at", "--alphabet", "abc",
                     "--target", "a+|b+"] +
                    sum((["--against", x] for x in against), []) +
                    ["--emit-cover", "--verify", "--json"])
        results[name] = (code, json.loads(capsys.readouterr().out))
    elapsed = time.perf_counter() - t0
    ok = all(code == 0 for code, _ in results.values())
    ok = ok and not results["l1"][1]["coverable"]
    ok = ok and not results["l2"][1]["coverable"]
    joint = results["both"][1]
    ok = ok and joint["coverable"]
    ok = ok and joint["verified"]["separating"] and joint["verified"]["covers_target"]
    ok = ok and joint["verified"]["class_ok"]
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report(2, ok, f"pairwise not coverable, jointly coverable with verified cover "
                      f"in {elapsed:.3f}s")


# -- criterion 3: sigma1 against the superword-closure oracle --------------------------

def test_criterion_3_sigma1_oracle_equivalence(capsys):
    rng = random.Random(SEED + 3)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(50):
        l1 = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        l2 = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        inst = Instance(alphabet=AB, class_id=ClassId.SIGMA1, target=l1, against=[l2])
        verdict = run_separate(inst)
        oracle = is_empty(nfa_intersection(upward_closure(l1), l2))
        if verdict.coverable != oracle:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(3, mismatches == 0 and elapsed < 30.0,
               f"50 random pairs, {mismatches} oracle mismatches, {elapsed:.2f}s")


# -- criteria 4-6 share one corpus ------------------------------------------------------

def _imprint_invariants_ok(imprint, oracle, trivial, mon=None) -> bool:
    """Equal to the explicit engine's imprint, a submonoid (of pairs of the
    monoid `mon` and the rating set, for a keyed imprint), and above the
    trivial imprint."""
    return (same_imprint(oracle, imprint)
            and is_submonoid(imprint, mon)
            and all(x in imprint for x in trivial))


def test_criteria_4_5_6_piecewise_corpus(capsys):
    t0 = time.perf_counter()
    instances = corpus_multisets(30)
    c4_fail = 0
    c5_viol = 0
    c6_viol = 0
    for (target, langs) in instances:
        ext = rm_from_multiset(langs)
        tau = ext.tau
        triv = members(rm_trivial_imprint(tau))

        dec = decide_universal_covering(ext, ClassId.BSIGMA1)
        if not _imprint_invariants_ok(dec.raw_imprint,
                                      explicit.saturate_universal(tau, ClassId.BSIGMA1), triv):
            c6_viol += 1
        cover = bsigma1_cover(tau, dec.raw_imprint)
        if not cover.optimal:
            c4_fail += 1
        else:
            rep = verify_cover(cover, universal_language(AB), langs)
            if dec.coverable:
                if not (rep.covers_target and rep.separating and rep.class_ok):
                    c4_fail += 1
            else:
                # the optimal cover is provably non-separating
                if not (rep.covers_target and rep.class_ok and not rep.separating):
                    c4_fail += 1

        i_at = at_imprint(tau)
        i_fo = saturate_universal(tau, ClassId.FO)
        aug = rm_alphabet_augment(ext)
        keyed_fo2 = saturate_universal(tau, ClassId.FO2)
        s_fo2 = widen(keyed_fo2, aug)
        i_fo2 = strip_content(keyed_fo2, tau.semiring)
        i_b1 = dec.raw_imprint
        if not (members(i_fo) <= members(i_fo2) <= members(i_at)):
            c5_viol += 1
        if not (members(i_fo) <= members(i_b1) <= members(i_at)):
            c5_viol += 1
        if not (_imprint_invariants_ok(i_fo, explicit.saturate_universal(tau, ClassId.FO), triv)
                and _imprint_invariants_ok(i_at, explicit.at_imprint(tau), triv)
                and _imprint_invariants_ok(s_fo2,
                                           explicit.saturate_universal(aug.tau, ClassId.FO2),
                                           members(rm_trivial_imprint(aug.tau)))):
            c6_viol += 1

        alpha, _ = transition_monoid(target)
        p1 = saturate_pointed(cayley(alpha, AB), tau, ClassId.SIGMA1)
        keyed_p2 = saturate_pointed(alpha, tau, ClassId.SIGMA2)
        p2raw = widen(keyed_p2, aug)
        p2 = strip_content(keyed_p2, tau.semiring)
        if not (members(p2) <= members(p1)):
            c5_viol += 1
        ptriv = members(rm_trivial_imprint(tau, alpha))
        if not _imprint_invariants_ok(p1, explicit.saturate_pointed(alpha, tau, ClassId.SIGMA1),
                                      ptriv, alpha):
            c6_viol += 1
        if not (same_imprint(explicit.saturate_pointed(alpha, aug.tau, ClassId.SIGMA2), p2raw)
                and is_submonoid(p2raw, alpha)):
            c6_viol += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(4, c4_fail == 0 and elapsed < 300.0,
               f"30 instances, {c4_fail} constructiveness failures, {elapsed:.2f}s")
        report(5, c5_viol == 0,
               f"imprint chain inclusions on 30 instances, {c5_viol} violations")
        report(6, c6_viol == 0,
               f"explicit-engine equality/submonoid/trivial-inclusion on all runs, "
               f"{c6_viol} violations")


# -- criterion 7: fo2 cover optimality ---------------------------------------------------

def test_criterion_7_fo2_cover_optimality(capsys):
    rng = random.Random(SEED + 7)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(15):
        langs = [random_nfa(rng, AB, 2, 0.35) for _ in range(rng.randint(1, 2))]
        ext = rm_from_multiset(langs)
        aug = rm_alphabet_augment(ext)
        assert aug.tau.semiring.log2_size() <= 12.3  # |R_augmented| <= 5000
        sat = saturate_universal(ext.tau, ClassId.FO2)
        cover = fo2_cover(ext.tau, sat)
        if members(cover_imprint(cover, aug.tau)) != members(widen(sat, aug)):
            failures += 1
        if not includes(universal_language(AB), union_nfa(cover, AB)):
            failures += 1
        if not piece_images_distinct(cover, aug.tau):
            failures += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(7, failures == 0 and elapsed < 300.0,
               f"15 instances, prin(cover) == saturation, {elapsed:.2f}s")


# -- criterion 8: extension soundness ----------------------------------------------------

def test_criterion_8_extension_soundness(capsys):
    rng = random.Random(SEED + 8)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(20):
        langs = [regex_to_nfa(random_regex(rng, "ab", 3), AB)
                 for _ in range(rng.randint(1, 3))]
        ext = rm_from_multiset(langs)
        pulled = imprint_pullback(ext, at_imprint(ext.tau))
        # direct oracle over the subset lattice, no rating maps involved
        want = set()
        for mask in range(4):
            atom = alphabet_exact(AB, AB.from_mask(mask))
            hit = 0
            for i, lang in enumerate(langs):
                if not is_empty(nfa_intersection(atom, lang)):
                    hit |= 1 << i
            want.update(submasks(hit))
        if members(pulled) != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(8, mismatches == 0,
               f"20 random multisets, pullback == direct atom imprint, {elapsed:.2f}s")


# -- criterion 9: template witnesses -----------------------------------------------------

def test_criterion_9_template_witnesses(capsys):
    rng = random.Random(SEED + 9)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(100):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 20)))
        n = rng.randint(1, 3)
        template, reg = bsigma1_template_witness(w, n, AB)
        ok = template_unambiguous(template)
        ok = ok and len(template) <= (n + 2) ** len(set(w)) - 1
        ok = ok and regex_to_nfa(reg, AB).accepts(w)
        if not ok:
            violations += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(9, violations == 0,
               f"100 seeded words, {violations} violations, {elapsed:.2f}s")
