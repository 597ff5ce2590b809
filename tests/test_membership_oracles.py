"""Membership decisions cross-validated against classical algebraic
characterizations of each class (computed on the syntactic monoid,
independently of the semiring engines)."""

import json
import random

import pytest

from regcov import (Alphabet, ClassId, equivalent, minimize, nfa_to_json,
                    regex_to_nfa, upward_closure)
from regcov.cli import Instance, main, run_member

from helpers import nfa_of, random_nfa, random_regex
import oracles

AB = Alphabet("ab")

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
