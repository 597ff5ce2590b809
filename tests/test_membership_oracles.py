"""Membership decisions cross-validated against classical algebraic
characterizations of each class (computed on the syntactic monoid,
independently of the semiring engines)."""

import json
import random

import pytest

from regcov import (Alphabet, ClassId, equivalent, minimize, regex_to_nfa,
                    upward_closure)
from regcov.cli import Instance, main, run_member

from helpers import nfa_of, nfa_to_json, random_nfa, random_regex
import oracles

AB = Alphabet("ab")
ABC = Alphabet("abc")

ORACLES = {
    ClassId.AT: oracles.member_at,
    ClassId.SIGMA1: oracles.member_sigma1,
    ClassId.BSIGMA1: oracles.member_bsigma1,
    ClassId.SIGMA2: oracles.member_sigma2,
    ClassId.FO2: oracles.member_fo2,
    ClassId.FO: oracles.member_fo,
}


def engine_member(class_id: ClassId, nfa) -> bool:
    inst = Instance(alphabet=nfa.alphabet, class_id=class_id, target=nfa, against=[])
    return run_member(inst).member


KNOWN = [
    # text, at, sigma1, bsigma1, sigma2, fo2, fo
    ("(a|b)*a(a|b)*", True, True, True, True, True, True),
    ("a*", True, False, True, True, True, True),
    ("%eps", True, False, True, True, True, True),
    ("%empty", True, True, True, True, True, True),
    ("(a|b)*", True, True, True, True, True, True),
    ("b(a|b)*", False, False, False, True, True, True),
    ("(ab)*", False, False, False, False, False, True),
    ("a+", True, False, True, True, True, True),  # a+ is the {a}-atom
    ("ab(a|b)*", False, False, False, True, True, True),
]


@pytest.mark.parametrize("text,at,s1,bs1,s2,fo2,fo", KNOWN)
def test_known_memberships(text, at, s1, bs1, s2, fo2, fo):
    nfa = nfa_of(text, "ab")
    want = {ClassId.AT: at, ClassId.SIGMA1: s1, ClassId.BSIGMA1: bs1,
            ClassId.SIGMA2: s2, ClassId.FO2: fo2, ClassId.FO: fo}
    for cid, expected in want.items():
        assert engine_member(cid, nfa) == expected, (text, cid)
        assert ORACLES[cid](nfa) == expected, (text, cid)


def test_sigma1_oracle_is_upward_closedness():
    rng = random.Random(314)
    for _ in range(25):
        nfa = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        assert oracles.member_sigma1(nfa) == equivalent(upward_closure(nfa), nfa)


@pytest.mark.parametrize("class_id", list(ORACLES))
def test_engine_member_matches_algebraic_oracle(class_id):
    rng = random.Random(1000 + sum(map(ord, class_id.value)))
    checked = 0
    for _ in range(40):
        nfa = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        alpha, _ = oracles.syntactic(nfa)
        if alpha.size > 24:  # keep the O(n^4) order computation cheap
            continue
        assert engine_member(class_id, nfa) == ORACLES[class_id](nfa)
        checked += 1
    assert checked >= 20


def test_residual_order_matches_context_order():
    """The residual order agrees with the O(|M|⁴) context order on every
    pair of elements of small syntactic monoids."""
    rng = random.Random(77)
    nfas = [nfa_of(row[0], "ab") for row in KNOWN]
    nfas += [regex_to_nfa(random_regex(rng, "ab", 3), AB) for _ in range(30)]
    nfas += [random_nfa(rng, ABC, 3, 0.3) for _ in range(10)]
    for nfa in nfas:
        alpha, acc = oracles.syntactic(nfa)
        if alpha.size > 30:
            continue
        slow = oracles.syntactic_order(alpha, acc)
        fast = oracles.residual_order(nfa, alpha)
        assert all(fast(s, t) == slow[s][t] for s in range(alpha.size)
                   for t in range(alpha.size)), nfa


def test_class_hierarchy_on_memberships():
    # memberships respect the class inclusions on a random batch
    rng = random.Random(606)
    for _ in range(15):
        nfa = regex_to_nfa(random_regex(rng, "ab", 3), AB)
        member = {cid: ORACLES[cid](nfa) for cid in ORACLES}
        if member[ClassId.AT]:
            assert member[ClassId.BSIGMA1] and member[ClassId.FO2]
        if member[ClassId.SIGMA1]:
            assert member[ClassId.BSIGMA1] and member[ClassId.SIGMA2]
        if member[ClassId.BSIGMA1] or member[ClassId.FO2]:
            assert member[ClassId.FO]


# Minimal DFAs of 7 to 16 states with transition monoids of 25 to 44
# elements: no relation or powerset encoding is refused for its width, so
# each of these must decide.
WIDE_REGEXES = [(ClassId.SIGMA1, "a(ab)*b(ba)*a"), (ClassId.FO2, "(aab|ba)*abb"),
                (ClassId.BSIGMA1, "(aab|bba)+"), (ClassId.SIGMA2, "(a|b)*a(a|b)(a|b)(a|b)")]
WIDE_NFA_SEEDS = (17, 129, 132)  # random_nfa(Random(seed), ab, 8, 0.3)


def cli_member(capsys, tmp_path, class_id, nfa) -> bool:
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"alphabet": "ab", "target": nfa_to_json(nfa)}))
    code = main(["member", "--class", class_id.value, "--instance", str(path), "--json"])
    out = capsys.readouterr()
    assert code == 0, out.err
    return json.loads(out.out)["member"]


def test_member_decides_wide_encodings(capsys, tmp_path):
    cases = [(cid, nfa_of(text, "ab")) for cid, text in WIDE_REGEXES]
    for seed in WIDE_NFA_SEEDS:
        nfa = random_nfa(random.Random(seed), AB, 8, 0.3)
        cases += [(cid, nfa) for cid in ORACLES]
    for cid, nfa in cases:
        assert minimize(nfa).state_count > 6
        assert cli_member(capsys, tmp_path, cid, nfa) == ORACLES[cid](nfa), cid


def sweep_draws() -> dict:
    """(n, i) -> the i-th of the first 8 draws of random_nfa(Random(1000 + n),
    abc, n, 0.3), for n = 5, 7, 9: the NFAs of the membership sweep whose
    large monoids once ran past the all-pairs saturation's time."""
    draws = {}
    for n in (5, 7, 9):
        rng = random.Random(1000 + n)
        for i in range(8):
            draws[n, i] = random_nfa(rng, ABC, n, 0.3)
    return draws


def test_member_decides_large_sweep_monoids():
    """`fo` on the 811- and 1,101-element monoids of draws (7, 1) and (7, 6),
    and `sigma1` on (7, 1), each against its algebraic oracle."""
    draws = sweep_draws()
    cases = [((7, 1), 811, ClassId.FO, False), ((7, 6), 1101, ClassId.FO, True),
             ((7, 1), 811, ClassId.SIGMA1, False)]
    for key, size, cid, want in cases:
        nfa = draws[key]
        assert oracles.syntactic(nfa)[0].size == size
        assert ORACLES[cid](nfa) == want, (key, cid)
        assert engine_member(cid, nfa) == want, (key, cid)


@pytest.mark.parametrize("key", [(7, 6), (9, 7)])
def test_member_decides_fo2_on_large_sweep_draws(key):
    """`fo2` on the 1,101-element monoid of draw (7, 6) and on draw (9, 7),
    whose saturations offer the same items to `ImprintSet.insert` many
    times over; it refuses a repeat at once."""
    nfa = sweep_draws()[key]
    assert oracles.member_fo2(nfa) is False
    assert engine_member(ClassId.FO2, nfa) is False


def test_member_matches_oracles_on_sweep_draws():
    """All six classes on the sweep draws whose monoids have at most 150
    elements."""
    checked = 0
    for key, nfa in sweep_draws().items():
        if oracles.syntactic(nfa)[0].size > 150:
            continue
        checked += 1
        for cid, oracle in ORACLES.items():
            assert engine_member(cid, nfa) == oracle(nfa), (key, cid)
    assert checked == 19
