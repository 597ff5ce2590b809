"""CLI subcommands, verdict serialization and exit codes."""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import resource
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from regcov import (DEFAULT_CAPS, Alphabet, ClassId, ResourceCapError, equivalent, includes,
                    is_empty, nfa_union, upward_closure)
from regcov import cli, covers, pieces, rx
from regcov.cli import Instance, Verdict, _masks_to_lists, main
from regcov.fa import empty_language
from regcov.pieces import pt_partition

import reference_cli
from helpers import nfa_of, random_nfa


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cover_remark_instance(capsys):
    code, out, _ = run(capsys, [
        "cover", "--class", "at", "--alphabet", "abc",
        "--target", "a+|b+", "--against", "b+|c+", "--against", "c+|a+",
        "--emit-cover", "--verify", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coverable"] is True
    pieces = {p["regex"] for p in doc["cover"]["pieces"]}
    assert pieces == {"aa*", "bb*"}
    assert doc["verified"]["separating"] is True
    assert doc["verified"]["class_ok"] is True


def test_cover_not_coverable(capsys):
    code, out, _ = run(capsys, [
        "cover", "--class", "at", "--alphabet", "abc",
        "--target", "a+|b+", "--against", "b+|c+", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coverable"] is False
    assert [0] in doc["imprint"]
    assert doc["cover"] is None


def test_separate_sigma1(capsys):
    code, out, _ = run(capsys, [
        "separate", "--class", "sigma1", "--alphabet", "ab",
        "--target", "a+", "--against", "b+", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coverable"] is True
    assert doc["separator"] is not None
    # separator is a verified upward-closed language containing a+
    from regcov import Alphabet, includes, is_empty, nfa_intersection, regex_to_nfa, regex_parse
    sep = regex_to_nfa(regex_parse(doc["separator"], "ab"), Alphabet("ab"))
    assert includes(regex_to_nfa(regex_parse("a+", "ab"), Alphabet("ab")), sep)
    assert is_empty(nfa_intersection(sep, regex_to_nfa(regex_parse("b+", "ab"), Alphabet("ab"))))


def test_separate_self_never(capsys):
    code, out, _ = run(capsys, [
        "separate", "--class", "at", "--alphabet", "ab",
        "--target", "a+", "--against", "a+", "--json"])
    assert code == 0
    assert json.loads(out)["coverable"] is False


def test_consecutive_calls_get_their_own_lists(capsys):
    # the parser is built once per process; repeated flags must not leak
    # from one call into the next
    base = ["cover", "--class", "at", "--alphabet", "ab", "--target", "%universal", "--json"]
    code, out, _ = run(capsys, base + ["--against", "a+", "--against", "b+"])
    assert code == 0
    assert json.loads(out)["imprint"] == [[], [0], [1]]
    code, out, _ = run(capsys, base + ["--against", "a+"])
    assert code == 0
    assert json.loads(out)["imprint"] == [[], [0]]


def test_member_examples(capsys):
    code, out, _ = run(capsys, [
        "member", "--class", "sigma1", "--alphabet", "ab",
        "--target", "(a|b)*a(a|b)*", "--json"])
    assert code == 0
    assert json.loads(out)["member"] is True

    code, out, _ = run(capsys, [
        "member", "--class", "bsigma1", "--alphabet", "a",
        "--target", "(aa)*", "--json"])
    assert code == 0
    assert json.loads(out)["member"] is False

    code, out, _ = run(capsys, [
        "member", "--class", "at", "--alphabet", "ab",
        "--target", "(a|b)*", "--json"])
    assert code == 0
    assert json.loads(out)["member"] is True


def test_imprint_worked_example(capsys):
    code, out, _ = run(capsys, [
        "imprint", "--class", "at", "--alphabet", "abc",
        "--against", "(ab)+", "--against", "b(ab)+", "--against", "c(ac)+",
        "--json"])
    assert code == 0
    doc = json.loads(out)
    got = {tuple(s) for s in doc["imprint"]}
    assert got == {(), (0,), (1,), (0, 1), (2,)}


def test_imprint_rejects_empty_multiset(capsys):
    code, _, err = run(capsys, [
        "imprint", "--class", "at", "--alphabet", "ab"])
    assert code == 2
    assert "at least one language" in err


def test_imprint_chain(capsys):
    code, out, _ = run(capsys, [
        "imprint", "--class", "chain", "--alphabet", "ab",
        "--against", "a+", "--against", "(ab)+"])
    assert code == 0
    doc = json.loads(out)
    assert all(doc["inclusions"].values())


def test_oracle_sigma1_sep(capsys):
    code, out, _ = run(capsys, [
        "oracle", "--which", "sigma1-sep",
        "--alphabet", "ab", "--target", "a+", "--against", "b+", "--json"])
    assert code == 0
    assert json.loads(out)["separable"] is True


def test_oracle_sigma1_sep_takes_the_universal_target(capsys):
    # the superword closure of all words meets every nonempty language
    code, out, _ = run(capsys, [
        "oracle", "--which", "sigma1-sep",
        "--alphabet", "ab", "--target", "%universal", "--against", "b+", "--json"])
    assert code == 0
    assert json.loads(out)["separable"] is False


def test_oracle_pt_k(capsys):
    code, out, _ = run(capsys, [
        "oracle", "--which", "pt-k",
        "--alphabet", "ab", "--max-k", "1", "--json"])
    assert code == 0
    assert json.loads(out)["classes"] == 4


def test_oracle_pt_k_reads_the_bound_of_an_instance_file(tmp_path, capsys):
    # the piece bound comes from --max-k or the max_k option, as the caps do
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"alphabet": "ab", "options": {"max_k": 1}}))
    argv = ["oracle", "--which", "pt-k", "--instance", str(path), "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["classes"] == 4
    code, out, _ = run(capsys, argv + ["--max-k", "2"])
    assert code == 0 and json.loads(out)["classes"] == 16
    path.write_text(json.dumps({"alphabet": "ab"}))
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err == "input error: pt-k needs --max-k (the piece bound)\n"


def count_partitions(monkeypatch) -> list:
    """Patch every module's `pt_partition` to record the depth of each
    partition built; returns the list of depths."""
    built = []

    def counted(k, alphabet, caps=DEFAULT_CAPS, open=None):
        built.append(k)
        return pt_partition(k, alphabet, caps, open)

    for module in (pieces, covers, cli):
        monkeypatch.setattr(module, "pt_partition", counted)
    return built


def test_oracle_pt_k_builds_its_partition_once(monkeypatch, capsys):
    built = count_partitions(monkeypatch)
    code, out, _ = run(capsys, [
        "oracle", "--which", "pt-k", "--alphabet", "ab", "--target", "a+b+",
        "--max-k", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == 16 and doc["target_is_ptk"] is True
    assert built == [2]


def test_bsigma1_builds_one_partition_per_depth_and_none_to_verify(monkeypatch, capsys):
    built = count_partitions(monkeypatch)
    code, out, _ = run(capsys, [
        "separate", "--class", "bsigma1", "--alphabet", "abc", "--target", "a+",
        "--against", "(ba|bc)b+c*", "--emit-cover", "--verify", "--json"])
    assert code == 0
    cover = json.loads(out)["cover"]
    assert cover["k"] == 4 and cover["optimal"] is True
    assert cover["verified"]["class_ok"] is True
    # one partition per level, and verification reuses the last
    assert built == [0, 1, 2, 3, 4]


def test_oracle_at(capsys):
    code, out, _ = run(capsys, [
        "oracle", "--which", "at", "--alphabet", "abc",
        "--against", "(ab)+", "--against", "b(ab)+", "--against", "c(ac)+",
        "--json"])
    assert code == 0
    got = {tuple(s) for s in json.loads(out)["imprint"]}
    assert got == {(), (0,), (1,), (0, 1), (2,)}


README_ORACLES = [shlex.split(line)[1:] for line in
                  (Path(__file__).parent.parent / "README.md").read_text().splitlines()
                  if line.startswith("regcov oracle")]


@pytest.mark.parametrize("argv, code", [
    (["imprint", "--class", "at", "--alphabet", "ab", "--against", "a+", "--emit-cover"], 2),
    (["imprint", "--class", "at", "--alphabet", "ab", "--against", "a+", "--verify"], 2),
    (["oracle", "--which", "at", "--alphabet", "ab", "--against", "a+", "--emit-cover"], 2),
    (["oracle", "--which", "at", "--alphabet", "ab", "--against", "a+", "--verify"], 2),
    (["oracle", "--which", "at", "--alphabet", "ab", "--against", "a+", "--class", "fo"], 2),
] + [(argv, 0) for argv in README_ORACLES] + [
    (["member", "--class", "at", "--alphabet", "ab", "--target", "a+", "--against", "b+"], 2),
])
def test_flags_a_command_ignores_are_usage_errors(capsys, argv, code):
    # a flag that a command would not read is refused, not ignored
    assert main(argv) == code
    err = capsys.readouterr().err
    assert (code == 2) == ("unrecognized arguments" in err) == err.startswith("usage:")


@pytest.mark.parametrize("option, command", [
    ("emit_cover", "imprint"), ("emit_cover", "oracle"), ("verify", "imprint"),
    ("verify", "oracle"), ("against", "member")])
def test_instance_options_a_command_ignores_are_input_errors(tmp_path, capsys, option, command):
    # the instance-file form of the flags above is refused the same way
    doc = {"alphabet": "ab", "class": "at", "target": "a+", "against": ["a+"], "options": {}}
    if command != "member":
        doc["options"][option] = True
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--instance", str(path)]
    if command == "oracle":
        argv += ["--which", "at"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    kind = "field" if command == "member" else "option"
    assert err == f"input error: {command} takes no {option} {kind}\n"
    if command == "member":
        del doc["against"]
    else:
        doc["options"][option] = False
    path.write_text(json.dumps(doc))
    assert run(capsys, argv)[0] == 0


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, ["cover", "--class", "at", "--alphabet", "ab",
                                "--target", "a(", "--against", "b"])
    assert code == 2 and "syntax" in err


def test_unknown_class_exit_code(capsys):
    code, _, err = run(capsys, ["cover", "--class", "nope", "--alphabet", "ab",
                                "--target", "a", "--against", "b"])
    assert code == 2 and "unknown class" in err


def test_resource_cap_exit_code(capsys):
    code, _, err = run(capsys, [
        "cover", "--class", "sigma1", "--alphabet", "ab",
        "--target", "a+", "--against", "b+", "--max-elements", "2"])
    assert code == 3 and "cap" in err


def test_instance_file(tmp_path, capsys):
    doc = {
        "alphabet": "abc",
        "class": "at",
        "target": "a+|b+",
        "against": ["b+|c+", "c+|a+"],
        "options": {"emit_cover": True, "json": True},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["cover", "--instance", str(path)])
    assert code == 0
    parsed = json.loads(out)
    assert parsed["coverable"] is True and parsed["cover"] is not None


def test_instance_file_nfa_target(tmp_path, capsys):
    nfa_doc = {"alphabet": "ab", "states": 2, "initials": [0], "finals": [1],
               "transitions": [[0, "a", 1], [1, "a", 1]]}
    doc = {"alphabet": "ab", "class": "sigma1", "target": nfa_doc,
           "against": ["b+"], "options": {"json": True}}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["cover", "--instance", str(path)])
    assert code == 0
    assert json.loads(out)["coverable"] is True


@pytest.mark.parametrize("cls", ["at", "sigma1", "fo2"])
@pytest.mark.parametrize("symbol", ["", "ab"])
def test_nfa_json_transition_on_no_single_letter_is_an_input_error(tmp_path, capsys, cls,
                                                                  symbol):
    # "" and "ab" are substrings of the alphabet text "ab", not letters of it;
    # taken as symbols, synthesis ended in a KeyError
    nfa_doc = {"alphabet": "ab", "states": 2, "initials": [0], "finals": [1],
               "transitions": [[0, "a", 1], [0, symbol, 1]]}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"alphabet": "ab", "class": cls, "target": nfa_doc,
                                "against": ["b+"]}))
    code, _, err = run(capsys, ["cover", "--instance", str(path), "--emit-cover"])
    assert code == 2 and err == f"input error: transition symbol {symbol!r} not in alphabet\n"


def test_nfa_json_negative_state_count_is_an_input_error(tmp_path, capsys):
    nfa_doc = {"alphabet": "ab", "states": -1, "initials": [], "finals": [], "transitions": []}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"alphabet": "ab", "class": "at", "target": nfa_doc,
                                "against": ["b+"]}))
    code, _, err = run(capsys, ["cover", "--instance", str(path)])
    assert code == 2 and "state count -1 is negative" in err


def test_nfa_json_state_ids_that_are_no_integers_are_input_errors(tmp_path, capsys):
    # int() read 0.5 as state 0, 1.9 as 1, true as 1 and "0" as 0, and the
    # cover was decided on the truncated automata with exit 0
    target = {"alphabet": "ab", "states": 2, "initials": [0.5], "finals": [True],
              "transitions": [[0, "a", 1.9]]}
    against = {"alphabet": "ab", "states": 1, "initials": ["0"], "finals": [0],
               "transitions": []}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"alphabet": "ab", "class": "at", "target": target,
                                "against": [against]}))
    code, out, err = run(capsys, ["cover", "--instance", str(path)])
    assert code == 2 and out == "" and err == "input error: bad NFA JSON: 0.5 is not an integer\n"


IS_RESERVED = "is reserved by the regex grammar"


def test_alphabet_of_grammar_characters_is_an_input_error(tmp_path, capsys):
    # over the letters of %eps the word %eps was printed as the separator
    # %eps, which reparses as the empty word
    word = {"alphabet": "%eps", "states": 5, "initials": [0], "finals": [4],
            "transitions": [[i, a, i + 1] for i, a in enumerate("%eps")]}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"alphabet": "%eps", "class": "bsigma1", "target": word,
                                "against": ["%empty"]}))
    code, _, err = run(capsys, ["separate", "--instance", str(path)])
    assert code == 2 and err == f"input error: alphabet symbol '%' {IS_RESERVED}\n"
    # over a and + the separator +*a(+|a)* did not parse back
    code, _, err = run(capsys, ["separate", "--class", "sigma1", "--alphabet", "a+",
                                "--target", "a", "--against", "%eps"])
    assert code == 2 and err == f"input error: alphabet symbol '+' {IS_RESERVED}\n"


def test_universal_target(capsys):
    code, out, _ = run(capsys, [
        "cover", "--class", "at", "--alphabet", "ab",
        "--target", "%universal", "--against", "a+", "--against", "b+",
        "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coverable"] is True  # atoms separate a+ from b+


def test_verdict_json_roundtrip(capsys):
    code, out, _ = run(capsys, [
        "cover", "--class", "at", "--alphabet", "abc",
        "--target", "a+|b+", "--against", "b+|c+", "--against", "c+|a+",
        "--emit-cover", "--verify", "--json"])
    assert code == 0
    doc = json.loads(out)
    verdict = Verdict(class_name=doc["class"], coverable=doc["coverable"],
                      imprint=[list(m) for m in doc["imprint"]], cover=doc["cover"],
                      verified=doc["verified"], separator=doc["separator"],
                      member=doc["member"], stats=doc["stats"])
    assert verdict.to_json() == doc


def test_sigma2_decision_only(capsys):
    code, out, _ = run(capsys, [
        "cover", "--class", "sigma2", "--alphabet", "ab",
        "--target", "b(a|b)*", "--against", "a(a|b)*|%eps",
        "--emit-cover", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coverable"] is True
    assert doc["cover"] is None  # decision-only class


def test_fo_decision_only(capsys):
    code, out, _ = run(capsys, [
        "cover", "--class", "fo", "--alphabet", "a",
        "--target", "(aa)*", "--against", "a(aa)*", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coverable"] is False
    assert doc["cover"] is None


@pytest.mark.parametrize("cls", ["fo", "sigma2"])
def test_a_class_without_synthesizer_says_why_it_gives_no_cover(capsys, cls):
    query = ["--class", cls, "--alphabet", "ab", "--target", "b(a|b)*", "--json"]
    for argv in (["cover", "--against", "a(a|b)*|%eps", "--emit-cover"],
                 ["separate", "--against", "a(a|b)*|%eps"],
                 ["member", "--emit-cover"]):
        code, out, _ = run(capsys, argv + query)
        assert code == 0
        doc = json.loads(out)
        assert doc["coverable"] is True
        assert doc["cover"] is None and doc["separator"] is None
        assert doc["stats"]["synthesis"] == {"skipped": "no synthesizer"}
    # no cover asked for, or none to give: no reason either
    for argv in (["cover", "--against", "a(a|b)*|%eps"],
                 ["separate", "--against", "b+"],
                 ["member"]):
        code, out, _ = run(capsys, argv + query)
        assert code == 0
        assert "synthesis" not in json.loads(out)["stats"]


def wide_alphabet_instance(path, letters: str = "abcdefghij") -> None:
    """A target and an against language of 4 states over ten letters (or
    the letters given), each transition drawn in (state, letter, state)
    order."""
    rng = random.Random(185)

    def lang(p):
        return {"alphabet": letters, "states": 4, "initials": [0], "finals": [3],
                "transitions": [[q, a, r] for q in range(4) for a in letters for r in range(4)
                                if rng.random() < p]}

    target = lang(0.3)
    path.write_text(json.dumps({"alphabet": letters, "target": target,
                                "against": [lang(0.2)]}))


def test_relation_parts_over_ten_letters_decide(tmp_path, capsys):
    # the raw-NFA relation parts of this instance have transition monoids
    # past max_elements; their star and exact-alphabet images are solved
    # without enumerating them
    path = tmp_path / "wide.json"
    wide_alphabet_instance(path)
    imprints = {}
    for cls in ("at", "bsigma1", "fo"):
        code, out, err = run(capsys, ["cover", "--class", cls, "--instance", str(path), "--json"])
        assert code == 0, err
        imprints[cls] = {tuple(s) for s in json.loads(out)["imprint"]}
    code, out, _ = run(capsys, ["oracle", "--which", "at", "--instance", str(path), "--json"])
    assert code == 0
    assert imprints["at"] == {tuple(s) for s in json.loads(out)["imprint"]} == {()}
    assert imprints["fo"] <= imprints["bsigma1"] <= imprints["at"]


@pytest.mark.parametrize("letters, coverable", [("abcdefghij", True),
                                                  ("abcdefghijklmnop", False)])
def test_sigma1_over_wide_alphabets_decides_as_the_oracle(tmp_path, capsys, letters, coverable):
    # the target's minimal DFA has 15 states over ten letters, and its
    # transition monoid more than max_monoid elements: pointed by the
    # monoid, both exited 3
    path = tmp_path / "wide.json"
    wide_alphabet_instance(path, letters)
    code, out, err = run(capsys, ["cover", "--class", "sigma1", "--instance", str(path), "--json"])
    assert code == 0, err
    assert json.loads(out)["coverable"] is coverable
    code, out, _ = run(capsys, ["oracle", "--which", "sigma1-sep", "--instance", str(path),
                                "--json"])
    assert code == 0 and json.loads(out)["separable"] is coverable


def test_fo2_and_sigma2_over_ten_letters_decide(tmp_path, capsys):
    # over the alphabet augmentation, 2^10 bits per element, both exited 3
    # on max_alphabet_sets
    path = tmp_path / "wide.json"
    wide_alphabet_instance(path)
    code, out, err = run(capsys, ["cover", "--class", "fo2", "--instance", str(path), "--json"])
    assert code == 0, err
    assert json.loads(out)["coverable"] is True
    code, out, err = run(capsys, ["cover", "--class", "sigma2", "--alphabet", "abcdefghij",
                                  "--target", "ab", "--against", "ba", "--json"])
    assert code == 0, err
    assert json.loads(out)["coverable"] is True


def test_no_query_builds_the_wide_forms(monkeypatch, capsys):
    # fo2 and sigma2 key their items by content and build no alphabet-set
    # semiring; sigma1 points by the target's minimal DFA and builds no
    # transition monoid of the target
    from regcov import fa, rating, saturation

    def wide(*args, **kwargs):
        raise AssertionError("an alphabet-set semiring was built")

    def monoid(*args, **kwargs):
        raise AssertionError("a transition monoid was built")

    monkeypatch.setattr(rating.AlphabetSemiring, "__init__", wide)
    query = ["--alphabet", "abc", "--target", "(ab)+", "--against", "c(ac)+", "--json"]
    argvs = [["cover", "--class", cls.value] + query for cls in ClassId]
    argvs += [["cover", "--class", cls, "--emit-cover", "--verify"] + query
              for cls in ("at", "sigma1", "bsigma1", "fo2")]
    argvs.append(["separate", "--class", "fo2"] + query)
    for argv in argvs:
        with monkeypatch.context() as m:
            if argv[2] == "sigma1":
                m.setattr(fa, "transition_monoid", monoid)
                m.setattr(saturation, "transition_monoid", monoid)
            code, out, err = run(capsys, argv)
        assert code == 0 and json.loads(out)["coverable"], (argv, err)
    assert json.loads(out)["separator"]


def test_a_decision_never_spells_out_a_sub_alphabet(monkeypatch, capsys):
    # below the parser a sub-alphabet is its bitmask: with the conversion to
    # text gone, every class decides, and every synthesizer builds and
    # verifies its cover
    def spelled(self, mask):
        raise AssertionError(f"sub-alphabet {mask:#b} spelled out")

    monkeypatch.setattr(Alphabet, "from_mask", spelled)
    query = ["--alphabet", "abc", "--target", "(ab)+", "--against", "c(ac)+", "--json"]
    for cls in ClassId:
        code, out, err = run(capsys, ["cover", "--class", cls.value] + query)
        assert code == 0 and json.loads(out)["coverable"], (cls, err)
    for cls in ("at", "sigma1", "bsigma1", "fo2"):
        code, out, err = run(capsys, ["cover", "--class", cls, "--emit-cover", "--verify"] + query)
        assert code == 0, (cls, err)
        doc = json.loads(out)
        assert doc["cover"]["pieces"] and doc["verified"]["separating"], cls


def test_rating_set_log2_is_the_width_saturated_over(capsys):
    # fo2 and sigma2 key their items by content, so they saturate over the
    # base map, as the other classes do (over the alphabet augmentation they
    # took 2^|A| = 4 more bits, and 2 more for a^170+); a+, b+ and the
    # complement of a+ each take a 3-element monoid.  A universal member
    # query shares one part between the target and its complement: (ab)+
    # takes its 6-element monoid once, a^170+ its 171-element one.  Two
    # languages with one 2,048-state minimal DFA but raw NFAs of 24 and 44
    # states keep a relation part each: 24² + 44² = 2,512 bits
    tail = "(a|b)" * 10
    for argv, bits in (
            (["member", "--class", "bsigma1", "--alphabet", "ab", "--target", "(ab)+"], 6.0),
            (["member", "--class", "fo2", "--alphabet", "a", "--target", "a" * 170 + "+"],
             171.0),
            (["separate", "--class", "at", "--alphabet", "ab", "--target", "(a|b)*a" + tail,
              "--against", "(a|b)*b" + tail + "|" + "(a|b|%eps)" * 10], 2512.0),
            (["separate", "--class", "fo2", "--alphabet", "ab", "--target", "a+",
              "--against", "b+"], 6.0),
            (["separate", "--class", "fo", "--alphabet", "ab", "--target", "a+",
              "--against", "b+"], 6.0),
            (["member", "--class", "sigma2", "--alphabet", "ab", "--target", "a+"], 3.0),
            (["member", "--class", "sigma1", "--alphabet", "ab", "--target", "a+"], 3.0)):
        code, out, _ = run(capsys, argv + ["--json"])
        assert code == 0
        assert json.loads(out)["stats"]["rating_set_log2"] == bits, argv


def test_universal_target_sigma1(capsys):
    # the full word set meets every nonempty language: never coverable
    code, out, _ = run(capsys, [
        "cover", "--class", "sigma1", "--alphabet", "ab",
        "--target", "%universal", "--against", "a+", "--json"])
    assert code == 0
    assert json.loads(out)["coverable"] is False


def test_imprint_pointed_needs_target(capsys):
    code, _, err = run(capsys, [
        "imprint", "--class", "sigma1", "--alphabet", "ab", "--against", "b+"])
    assert code == 2 and "target" in err
    code, out, _ = run(capsys, [
        "imprint", "--class", "sigma1", "--alphabet", "ab",
        "--target", "a+", "--against", "b+", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coverable"] is True


def test_cover_doc_carries_verification(capsys):
    code, out, _ = run(capsys, [
        "cover", "--class", "bsigma1", "--alphabet", "ab",
        "--target", "%universal", "--against", "a+", "--against", "b+",
        "--emit-cover", "--verify", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["cover"]["k"] is not None
    assert doc["cover"]["verified"]["separating"] is True


@pytest.mark.parametrize("command", ["separate", "member"])
def test_a_capped_unasked_separator_keeps_the_one_decision(monkeypatch, capsys, command):
    # max_det_states=3 passes the decision but makes the opportunistic
    # separator synthesis hit its cap; the decision made before it stands
    # and is not made again; member builds no separator unasked
    decisions = []
    real_decide = cli.decide_universal_covering

    def timed_decide(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real_decide(*args, **kwargs)
        finally:
            decisions.append(time.perf_counter() - t0)

    monkeypatch.setattr(cli, "decide_universal_covering", timed_decide)
    inst = Instance(alphabet=Alphabet("ab"), class_id=ClassId.FO2, target=nfa_of("a+", "ab"),
                    against=[nfa_of("b+", "ab")] if command == "separate" else [],
                    caps=DEFAULT_CAPS.with_overrides(max_det_states=3))
    run = cli.run_separate if command == "separate" else cli.run_member
    verdict = run(inst)
    assert verdict.coverable and verdict.separator is None
    assert len(decisions) == 1
    assert verdict.stats["wall_ms"] >= round(decisions[0] * 1000.0, 3) - 0.001
    if command == "separate":
        assert verdict.stats["synthesis"] == {"skipped": "max_det_states"}
        return
    assert "synthesis" not in verdict.stats
    # a cover that was asked for is not skipped: the cap is the answer
    with pytest.raises(ResourceCapError):
        cli.run_member(replace(inst, emit_cover=True))
    assert main(["member", "--class", "fo2", "--alphabet", "ab", "--target", "a+",
                 "--emit-cover", "--max-states", "3"]) == 3
    assert "max_det_states" in capsys.readouterr().err


@pytest.mark.parametrize("cls", ["at", "sigma1", "bsigma1", "fo2"])
def test_member_synthesizes_only_when_the_cover_is_asked_for(monkeypatch, capsys, cls):
    argv = ["member", "--class", cls, "--alphabet", "ab", "--target", "(a|b)*a(a|b)*", "--json"]

    def refuse(*args, **kwargs):
        raise AssertionError("member synthesized a cover it was not asked for")

    with monkeypatch.context() as patch:
        for synthesizer in ("at_cover", "sigma1_cover", "bsigma1_cover", "fo2_cover"):
            patch.setattr(cli, synthesizer, refuse)
        code, out, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["member"] is True and doc["separator"] is None and doc["cover"] is None
    code, out, _ = run(capsys, argv + ["--emit-cover"])
    assert code == 0
    doc = json.loads(out)
    assert doc["member"] is True and doc["cover"]["pieces"]
    assert equivalent(nfa_of(doc["separator"], "ab"), nfa_of("(a|b)*a(a|b)*", "ab"))


def test_dropped_cover_says_why(capsys):
    # at k = 1 the piece partition cannot tell ab from ba, and the depth cap
    # stops the deepening there: the non-optimal cover fails verification
    for command in (["cover", "--emit-cover"], ["separate"]):
        code, out, _ = run(capsys, command + [
            "--class", "bsigma1", "--alphabet", "ab", "--target", "ab",
            "--against", "ba", "--max-k", "1", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["coverable"] is True and doc["cover"] is None and doc["separator"] is None
        assert doc["stats"]["synthesis"] == {"dropped": "not optimal"}


WORKED = ["--class", "fo2", "--alphabet", "abc", "--target", "(ab)+", "--against", "c(ac)+"]


def test_fo2_worked_example_cover_is_verified_optimal(capsys):
    # the fo2 worked example used to stop on max_pieces (exit 3)
    code, out, _ = run(capsys, ["cover"] + WORKED + ["--emit-cover", "--verify", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coverable"] is True
    assert doc["cover"]["optimal"] is True and doc["cover"]["pieces"]
    verified = doc["cover"]["verified"]
    assert verified["covers_target"] and verified["separating"]


@pytest.mark.parametrize("argv", [
    ["separate"] + WORKED,
    ["member", "--class", "fo2", "--alphabet", "abc", "--target", "a*", "--emit-cover"],
])
def test_fo2_separators_are_synthesized(capsys, argv):
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coverable"] is True and doc["separator"]
    assert "synthesis" not in doc["stats"]


@pytest.mark.parametrize("cls, flags", [
    pytest.param("bsigma1", [], id="bsigma1"),
    pytest.param("fo2", [], id="fo2"),
    pytest.param("bsigma1", ["--emit-cover", "--verify"], id="bsigma1-emit-cover"),
    pytest.param("fo2", ["--emit-cover", "--verify"], id="fo2-emit-cover"),
])
def test_a_corrupted_label_fails_the_separator_image_check(monkeypatch, capsys, cls, flags):
    # the separator's image, evaluated on its compiled text, must be the sum
    # of the labels it unites, so a label that is not its piece's image is
    # caught: on a bare separate, which builds no piece to evaluate, and on
    # a separator read off a cover whose pieces were built.  A bare separate
    # takes the machine from the cli, a cover cut from it from `covers`
    argv = ["separate", "--class", cls, "--alphabet", "abc", "--target", "(ab)+",
            "--against", "c(ac)+"] + flags
    name = f"{cls}_machine"
    module = covers if flags else cli
    build = getattr(module, name)
    built = []

    def record(*args):
        built.append((args, build(*args)))
        return built[-1][1]

    monkeypatch.setattr(module, name, record)
    assert main(argv) == 0
    capsys.readouterr()
    (rho, *_), cover = built[0]
    machine, zero = cover.machine, rho.semiring.zero
    sep = covers.separator(cover, nfa_of("(ab)+", "abc"), nfa_of("c(ac)+", "abc"))
    add = rho.semiring.add
    # an fo2 label is a (content, image) pair, summed per content; its image
    # is the part corrupted
    keyed = cls == "fo2"
    content = (lambda label: label[0]) if keyed else (lambda label: None)
    value = (lambda label: label[1]) if keyed else (lambda label: label)

    def image(labels, key):
        return functools.reduce(add, [value(y) for y in labels if content(y) == key], zero)

    # a label that the others' sum does not absorb, set to zero
    x = next(x for x in sorted(sep.labels)
             if image(sep.labels - {x}, content(x)) != image(sep.labels, content(x)))
    bad = (x[0], zero) if keyed else zero
    wrong = [bad if label == x else label for label in machine.labels]
    monkeypatch.setattr(module, name,
                        lambda *args: replace(cover, machine=machine._replace(labels=wrong)))
    with pytest.raises(AssertionError, match="image is not the sum of its labels"):
        main(argv)


@pytest.mark.parametrize("cls, alphabet, target, against, make, message", [
    pytest.param("at", "abc", "(ab)+", "c(ac)+", lambda t, o: empty_language(t.alphabet),
                 "separator does not contain the first language", id="misses-target"),
    pytest.param("at", "abc", "(ab)+", "c(ac)+", nfa_union,
                 "separator meets the second language", id="meets-against"),
    pytest.param("at", "abc", "(ab)+", "c(ac)+", lambda t, o: t,
                 "separator is not in the class", id="at-outside-class"),
    pytest.param("sigma1", "ab", "a+", "b+", lambda t, o: t,
                 "separator is not in the class", id="sigma1-outside-class"),
])
def test_a_wrong_separator_fails_its_check(monkeypatch, cls, alphabet, target, against, make,
                                           message):
    # the printed separator is parsed again and checked to include the
    # target, miss the other language and lie in the class, in that order;
    # each check names itself when a separator fails it
    nfa = make(nfa_of(target, alphabet), nfa_of(against, alphabet))
    monkeypatch.setattr(cli, "separator",
                        lambda *args: covers.Separator(nfa, "meets-target", frozenset()))
    with pytest.raises(AssertionError, match=message):
        main(["separate", "--class", cls, "--alphabet", alphabet, "--target", target,
              "--against", against])


@pytest.mark.parametrize("argv", [
    ["cover", "--class", "at", "--alphabet", "ab", "--target", "a*", "--against", "b"],
    ["member", "--class", "at", "--alphabet", "ab", "--target", "(a|b)*"],
    ["member", "--class", "sigma1", "--alphabet", "ab", "--target", "(a|b)*a(a|b)*"],
    ["cover", "--class", "bsigma1", "--alphabet", "abc", "--target", "(ab)+",
     "--against", "c(ac)+"],
])
def test_verify_without_emit_cover_verifies_the_cover(capsys, argv):
    # --verify asks for the cover's verification on every command; only
    # --emit-cover prints the cover itself
    code, out, _ = run(capsys, argv + ["--verify", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coverable"] is True and doc["cover"] is None
    verified = doc["verified"]
    assert verified["covers_target"] is verified["separating"] is verified["class_ok"] is True
    assert verified["piece_witnesses"] and None not in verified["piece_witnesses"]
    assert "synthesis" not in doc["stats"]


def regcov_env(**extra) -> dict:
    """Environment for a `python -m regcov` subprocess on this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.mark.parametrize("argv", [
    ["separate"] + WORKED,
    # many merged pieces: their order shows in the separator
    ["member", "--class", "fo2", "--alphabet", "abc", "--target", "(a|b)*c(a|b)*",
     "--emit-cover"],
    # the state elimination must read the automaton's edges in a fixed order
    ["separate", "--class", "bsigma1", "--alphabet", "abc", "--target", "c+(c|b)+",
     "--against", "b"],
])
def test_fo2_separator_does_not_follow_the_hash_seed(argv):
    # piece order must come from insertion order, never from set order
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-m", "regcov"] + argv + ["--json"],
                              env=regcov_env(PYTHONHASHSEED=seed),
                              capture_output=True, text=True, check=True)
        doc = json.loads(proc.stdout)
        del doc["stats"]["wall_ms"]
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["separator"]


# every decide, synth and plain query of the benchmark corpus at seed 1
# through `main`, in qid order, one line each with its exit status, stdout
# with wall_ms masked and stderr; the corpus module is imported from
# perfbench/ and writes nothing there, only the decide instances to argv[2]
CORPUS_OUTPUTS = """
import contextlib, io, re, sys
sys.path.insert(0, sys.argv[1])
import workloads
from regcov import cli
for workload in ("decide", "synth", "plain"):
    for q in sorted(workloads.corpus(workload, 1, sys.argv[2]), key=lambda q: q.qid):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(q.argv)
        stdout = re.sub(r'"wall_ms": [^,}]+', '"wall_ms": 0', out.getvalue())
        print(workload, q.qid, code, repr(stdout), repr(err.getvalue()))
"""

# sha256 of what CORPUS_OUTPUTS prints.  A change that means to change what
# the program prints updates it.
CORPUS_DIGEST = "930f057005c0236fb4a4d0952c5cc1a3569ada38ac81fdc0736c8b56239e851b"


def test_corpus_outputs_do_not_follow_the_hash_seed(tmp_path):
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    outs = [subprocess.run([sys.executable, "-c", CORPUS_OUTPUTS, perfbench, str(tmp_path)],
                           env=regcov_env(PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1"),
                           capture_output=True, text=True, check=True, timeout=120).stdout
            for seed in ("1", "2")]
    assert outs[0].count("\n") == 364 and outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode()).hexdigest() == CORPUS_DIGEST


@pytest.mark.parametrize("flags", [[], ["--emit-cover", "--verify"]], ids=["bare", "emit-cover"])
def test_sigma1_minimizes_its_target_once(monkeypatch, capsys, flags):
    # the synthesis builds on the minimal DFA that the decision pointed by
    from regcov import fa, rating, saturation

    minimized = []
    minimize = fa.minimize

    def counted(nfa, *args):
        minimized.append(nfa)
        return minimize(nfa, *args)

    for module in (fa, pieces, rating, saturation, covers):
        monkeypatch.setattr(module, "minimize", counted)
    code, out, _ = run(capsys, ["separate", "--class", "sigma1", "--alphabet", "ab",
                                "--target", "(ab)+", "--against", "b+"] + flags)
    assert code == 0 and "separator: " in out
    assert minimized.count(nfa_of("(ab)+", "ab")) == 1
    assert len(set(minimized)) == len(minimized)


def test_a_closed_stdout_is_not_a_traceback():
    # the reader leaves before the verdict is printed, as `| head -1` may
    with subprocess.Popen([sys.executable, "-m", "regcov", "imprint", "--class", "chain",
                           "--alphabet", "ab", "--against", "a+"],
                          env=regcov_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


def run_limited(argv, mib: int = 384):
    """Run the CLI in a subprocess whose address space is capped at `mib`
    MiB, so that a blow-up ends in MemoryError instead of exhausting the
    machine."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))
    return subprocess.run([sys.executable, "-m", "regcov"] + argv + ["--json"],
                          env=regcov_env(), preexec_fn=limit,
                          capture_output=True, text=True, timeout=120)


def test_ten_letter_at_separator_builds_no_piece(tmp_path):
    # the restricted cover has 1,020 pieces and 59,040 states; checking the
    # separator as their joined text ran out of a gigabyte (exit 1, a
    # MemoryError traceback)
    path = tmp_path / "wide.json"
    wide_alphabet_instance(path)
    proc = run_limited(["separate", "--class", "at", "--instance", str(path)], mib=1024)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["coverable"] is True and doc["separator"] and doc["cover"] is None


def test_ten_letter_at_cover_out_of_memory_exits_3(tmp_path):
    # verifying the 1,020 pieces of the restricted cover runs out of a
    # gigabyte in the subset tables of `fa.includes`; the last resort
    # names the phase instead of printing a traceback (exit 1)
    path = tmp_path / "wide.json"
    wide_alphabet_instance(path)
    proc = run_limited(["separate", "--class", "at", "--instance", str(path), "--emit-cover",
                        "--verify"], mib=1024)
    assert proc.returncode == 3 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.splitlines() == ["resource cap: cap 'memory' exceeded during verify"]


def test_dense_fo2_separator_is_short():
    # the separator joined from the pieces printed 222,112 characters and
    # took 2.0 GB to check
    proc = run_limited(["separate", "--class", "fo2", "--alphabet", "abc",
                        "--target", "(((a|b)(b|c))*(c|(c*)+))+", "--against", "b"])
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["coverable"] is True and 0 < len(doc["separator"]) <= 40


def test_bsigma1_member_on_a_large_partition():
    # k=3 over abc has 5,312 piece classes; one automaton per class ran out of memory
    proc = run_limited(["member", "--class", "bsigma1", "--alphabet", "abc",
                        "--target", "b|ac|a(a|c)", "--emit-cover"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["coverable"] is True and doc["separator"]


def test_bsigma1_cover_on_a_large_partition_is_verified():
    # the uniform partition has 334,202 classes at k=4, past max_pt_states;
    # deepening only the classes that miss the goal reaches the optimal
    # cover at k=4 under the default caps and under --max-k 4
    for extra in ([], ["--max-k", "4"]):
        proc = run_limited(["separate", "--class", "bsigma1", "--alphabet", "abc",
                            "--target", "a+", "--against", "(ba|bc)b+c*",
                            "--emit-cover", "--verify"] + extra)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["coverable"] is True and doc["separator"]
        assert doc["cover"]["k"] == 4 and doc["cover"]["optimal"] is True
        assert doc["cover"]["pieces"]
        verified = doc["cover"]["verified"]
        assert verified["covers_target"] and verified["separating"] and verified["class_ok"]


def test_bsigma1_cover_over_five_letters_is_verified():
    # the uniform 2-piece partition over five letters passes max_pt_states
    proc = run_limited(["separate", "--class", "bsigma1", "--alphabet", "abcde",
                        "--target", "((a|b)e+)+", "--against", "(bd|ae)(ab)+",
                        "--emit-cover", "--verify"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["coverable"] is True and doc["separator"] and doc["cover"]["pieces"]
    assert doc["cover"]["k"] == 3 and doc["cover"]["optimal"] is True
    verified = doc["cover"]["verified"]
    assert verified["covers_target"] and verified["separating"] and verified["class_ok"]
    verified = doc["cover"]["verified"]
    assert verified["covers_target"] and verified["separating"] and verified["class_ok"]


def regexes(symbols: str):
    """Regex texts over the letters, with at most eight leaves; a star
    stands only under a concatenation, so that the empty word is rare and
    the pairs drawn are often disjoint."""
    factors = st.deferred(lambda: st.one_of(terms.map(rx.Star), terms))
    terms = st.recursive(st.sampled_from(symbols).map(rx.Letter), lambda inner: st.one_of(
        inner.map(rx.Plus), st.builds(rx.Union, inner, inner),
        st.builds(rx.Concat, inner, factors), st.builds(rx.Concat, factors, inner)),
        max_leaves=8)
    return terms.map(rx.regex_to_text)


@given(st.sampled_from(["abcde", "abcd", "abc", "ab", "a"])
       .flatmap(lambda symbols: st.tuples(st.just(symbols), regexes(symbols), regexes(symbols))))
def test_bsigma1_separation_with_a_cover_decides_or_names_a_cap(drawn):
    symbols, target, against = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["separate", "--class", "bsigma1", "--alphabet", symbols,
                     "--target", target, "--against", against,
                     "--emit-cover", "--verify", "--json"])
    assert code in (0, 3) and "Traceback" not in err.getvalue(), err.getvalue()
    if code == 0:
        cover = json.loads(out.getvalue())["cover"]
        assert cover is None or cover["verified"]["class_ok"] is True
    else:
        assert err.getvalue().startswith("resource cap: ")


FUZZ_COMMANDS = [["cover"], ["separate"], ["member"], ["imprint"],
                 ["oracle", "--which", "sigma1-sep"], ["oracle", "--which", "pt-k"],
                 ["oracle", "--which", "at"]]


# spliced into regex text, each makes it malformed or, for "d", out of every
# fuzzed alphabet; "|" at either end is a leading or trailing bar
FUZZ_JUNK = ["(", ")", "**", "|", "%e", "d", "()"]


@st.composite
def spliced(draw, texts):
    text = draw(texts)
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(FUZZ_JUNK)) + text[at:]


def fuzz_regexes(symbols: str):
    """Unions of up to three words of letters, groups and the empty word,
    each bare, starred or plussed: cheaper to draw than `regexes`.  Also
    such unions nested in up to 40 groups, each bare, starred or plussed,
    and malformed text: one of `FUZZ_JUNK` spliced into either kind."""
    atoms = [atom + op for atom in (*symbols, f"({'|'.join(symbols)})", f"({symbols})", "%eps")
             for op in ("", "*", "+")]
    words = st.lists(st.sampled_from(atoms), min_size=1, max_size=3).map("".join)
    flat = st.lists(words, min_size=1, max_size=3).map("|".join)
    nested = st.tuples(flat, st.integers(1, 40), st.sampled_from(["", "*", "+"])).map(
        lambda t: "(" * t[1] + t[0] + (")" + t[2]) * t[1])
    return flat | nested | spliced(flat | nested)


FUZZ_REGEXES = {symbols: fuzz_regexes(symbols) for symbols in ("a", "ab", "abc")}

@st.composite
def fuzz_nfa_docs(draw, symbols: str):
    """(doc, defective): NFA JSON on up to three states, valid or with one
    defect drawn in: a transition symbol that is empty, two letters, a
    reserved character or a letter outside the alphabet (the first two are
    substrings of the alphabet's text), a state out of range or negative, a
    state count that is negative or no integer, or a state id that is no
    integer (1.9 and True name a state once truncated)."""
    n = draw(st.integers(1, 3))
    state, letter = st.integers(0, n - 1), st.sampled_from(symbols)
    doc = {"alphabet": symbols, "states": n, "initials": [draw(state)],
           "finals": draw(st.lists(state, max_size=2)),
           "transitions": draw(st.lists(st.tuples(state, letter, state).map(list), max_size=5))}
    edge = [draw(state), draw(letter), draw(state)]
    defect = draw(st.sampled_from([None, "symbol", "count", "state", "id"]))
    if defect == "symbol":
        edge[1] = draw(st.sampled_from(["", (symbols * 2)[:2], "d"]) | st.sampled_from("|()*+% "))
    elif defect == "count":
        doc["states"] = draw(st.sampled_from([-2, -1, n + 0.0, str(n)]))
    elif defect is not None:
        bad = draw(st.sampled_from([n, n + 7, -1] if defect == "state"
                                   else ["x", "0", 0.5, 1.9, None, True, [0]]))
        field = draw(st.sampled_from(["initials", "finals", "transitions"]))
        if field == "transitions":
            edge[draw(st.sampled_from([0, 2]))] = bad
        else:
            doc[field].append(bad)
    doc["transitions"].append(edge)
    return doc, defect is not None


@st.composite
def fuzz_argvs(draw, command, path):
    """(argv, defective): an argv for the command whose fields come as flags
    or from the instance file at path, with small caps; defective when one
    of its NFA JSON objects has a defect drawn in."""
    symbols = draw(st.sampled_from(sorted(FUZZ_REGEXES)))
    lang = FUZZ_REGEXES[symbols].map(lambda text: (text, False)) | fuzz_nfa_docs(symbols)
    target = draw(lang | st.sampled_from([None, cli.UNIVERSAL, "a("]).map(lambda t: (t, False)))
    # member decides its target against the complement and takes no against
    against = draw(st.lists(lang, min_size=1, max_size=2)) if command[0] != "member" else []
    defective = any(bad for _, bad in [target] + against)
    fields = {"alphabet": symbols,
              "class": draw(st.sampled_from([c.value for c in ClassId] + ["chain", "x"])),
              "target": target[0]}
    if against:
        fields["against"] = [spec for spec, _ in against]
    flags = ("json",) if command[0] in ("imprint", "oracle") else ("emit_cover", "verify", "json")
    options = draw(st.sets(st.sampled_from(flags)))
    in_file = draw(st.sets(st.sampled_from(sorted(fields) + sorted(options))))
    # NFA JSON comes in instance files only
    specs = {"target": [fields["target"]], "against": fields.get("against", [])}
    in_file |= {key for key, values in specs.items() if any(isinstance(x, dict) for x in values)}
    argv = list(command)
    for key, value in fields.items():
        if key not in in_file and value is not None and (key, command[0]) != ("class", "oracle"):
            for item in value if key == "against" else [value]:
                argv += ["--" + key, item]
    argv += ["--" + key.replace("_", "-") for key in options if key not in in_file]
    for flag, most in (("--max-elements", 40), ("--max-states", 40), ("--max-k", 3)):
        cap = draw(st.none() | st.integers(0, most))
        if cap is not None:
            argv += [flag, str(cap)]
    if in_file:
        doc = {key: fields[key] for key in in_file if key in fields}
        doc["options"] = {key: True for key in in_file if key in options}
        path.write_text(json.dumps(doc))
        argv += ["--instance", str(path)]
    return argv, defective


@pytest.mark.parametrize("command", FUZZ_COMMANDS, ids=lambda argv: argv[-1])
@given(data=st.data())
def test_any_argv_exits_0_2_or_3(tmp_path_factory, command, data):
    # a verdict, an input error or a resource cap, and no exception; the flag
    # table refuses an argv it cannot read with exit 2, and a defective NFA
    # JSON object is an input error
    argv, defective = data.draw(fuzz_argvs(command,
                                           tmp_path_factory.getbasetemp() / "instance.json"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2 if defective else code in (0, 2, 3), (argv, err.getvalue())


# groups of words that mangle a drawn argv: flags a command ignores, an
# unknown flag, a stray word, values that are no integer or no oracle, and
# values that begin with "-" yet are no flag
FUZZ_EXTRA_FLAGS = [["--against", "a"], ["--class", "at"], ["--which", "at"], ["--which", "x"],
                    ["--emit-cover"], ["--verify"], ["--json"], ["--max-k", "x"],
                    ["--max-states", "1.5"], ["--max-elements", "-1"], ["--target", "-"],
                    ["--bogus"], ["stray"]]


@st.composite
def mangled_argvs(draw, command, path):
    """An argv of `fuzz_argvs` with flags added, repeated and reordered,
    some values joined to their flag with `=` or left out, and now and then
    an unknown or missing command."""
    argv, _ = draw(fuzz_argvs(command, path))
    groups = []
    for word in argv[1:]:
        if word.startswith("--"):
            groups.append([word])
        else:
            groups[-1].append(word)
    groups += draw(st.lists(st.sampled_from(FUZZ_EXTRA_FLAGS), max_size=2))
    groups += draw(st.lists(st.sampled_from(groups), max_size=2)) if groups else []
    words = []
    for group in draw(st.permutations(groups)):
        form = draw(st.sampled_from(["apart"] * 6 + ["joined"] * 3 + ["bare"]))
        if len(group) == 2 and form == "joined":
            words.append("=".join(group))
        else:
            words += group[:1] if form == "bare" else group
    head = draw(st.sampled_from([argv[:1]] * 8 + [[], ["covers"], ["Cover"]]))
    return head + words


@pytest.mark.parametrize("command", FUZZ_COMMANDS, ids=lambda argv: argv[-1])
@given(data=st.data())
def test_the_flag_table_reads_what_argparse_read(tmp_path_factory, command, data):
    # where the argparse parser accepts an argv, the flag table reads the same
    # fields and leaves the rest unset; where it refuses one, main exits 2 with
    # the usage.  member's --against, once ignored, is refused.
    argv = data.draw(mangled_argvs(command, tmp_path_factory.getbasetemp() / "flags.json"))
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            ref = vars(reference_cli._build_parser().parse_args(argv))
        except SystemExit as exc:
            assert exc.code == 2
            ref = None
    dropped = argv[:1] == ["member"] and any(w.partition("=")[0] == "--against" for w in argv)
    if ref is not None and not dropped:
        got = vars(cli._read_argv(argv))
        assert {key: got[key] for key in ref} == ref, argv
        assert all(got[key] is None for key in got.keys() - ref.keys()), argv
    else:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 2, argv
        assert err.getvalue().startswith("usage: regcov"), argv


def test_a_flag_prefix_is_no_flag(capsys):
    # argparse read --emit as --emit-cover; the flag table takes full names only
    argv = ["cover", "--class", "at", "--alphabet", "ab", "--target", "a", "--against", "b"]
    assert vars(reference_cli._build_parser().parse_args(argv + ["--emit"]))["emit_cover"]
    assert main(argv + ["--emit"]) == 2
    assert "unrecognized arguments: --emit" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    (None, ["cover", "separate", "member", "imprint", "oracle"]),
    ("cover", ["--class", "--alphabet", "--target", "--against", "--instance", "--emit-cover",
               "--verify", "--json", "--max-elements", "--max-k", "--max-states"]),
    ("member", ["--class", "--alphabet", "--target", "--instance", "--emit-cover", "--verify",
                "--json", "--max-elements", "--max-k", "--max-states"]),
    ("imprint", ["--class", "--alphabet", "--target", "--against", "--instance", "--json",
                 "--max-elements", "--max-k", "--max-states"]),
    ("oracle", ["--which", "sigma1-sep,pt-k,at", "--alphabet", "--target", "--against",
                "--instance", "--json", "--max-elements", "--max-k", "--max-states"])])
@pytest.mark.parametrize("help_flag", ["-h", "--help"])
def test_help_lists_the_flags_of_a_command(capsys, command, flags, help_flag):
    assert main(([command] if command else []) + [help_flag]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: regcov") and err == ""
    usage = out.split("\n\n")[0]
    listed = usage.replace("[", " ").replace("]", " ").replace("{", " ").replace("}", " ").split()
    assert all(flag in listed for flag in flags)
    if command == "member":
        assert "--against" not in listed


@pytest.mark.parametrize("argv, message", [
    ([], "a command is required"),
    (["decide", "--alphabet", "ab"], "invalid command 'decide'"),
    (["oracle", "--alphabet", "ab", "--against", "a"], "required: --which"),
    (["oracle", "--which", "all", "--alphabet", "ab"], "invalid choice: 'all'"),
    (["cover", "--alphabet"], "--alphabet: expected one argument"),
    (["cover", "--target", "--json"], "--target: expected one argument"),
    (["cover", "--max-k=two"], "--max-k: invalid int value: 'two'")])
def test_usage_errors_exit_2_with_the_usage(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: regcov") and message in err


def test_bsigma1_cover_over_twelve_letters_fits_the_address_space():
    # a level's piece sets are bitmasks over 22,621 pieces at k = 4; tables
    # of their extensions per byte of them took 1.1 GB
    proc = run_limited(["separate", "--class", "bsigma1", "--alphabet", "abcdefghijkl",
                        "--target", "a+", "--against", "(ba|bc)b+c*", "--emit-cover", "--verify"])
    assert proc.returncode == 0, proc.stderr
    cover = json.loads(proc.stdout)["cover"]
    assert cover["k"] == 4 and cover["optimal"] is True and cover["verified"]["class_ok"]


def test_bsigma1_cover_of_an_eleven_state_sweep_draw_is_optimal():
    # the first draw of the member sweep for n = 11: the parent stopped at
    # the three-letter depth bound k = 3 and dropped the cover
    abc = Alphabet("abc")
    nfa = random_nfa(random.Random(1011), abc, 11, 0.3)
    verdict = cli.run_member(Instance(abc, ClassId.BSIGMA1, nfa, [], emit_cover=True,
                                      verify=True))
    assert verdict.member is True
    assert verdict.cover["k"] == 4 and verdict.cover["optimal"] is True
    verified = verdict.cover["verified"]
    assert verified["covers_target"] and verified["separating"] and verified["class_ok"]


def test_bsigma1_universal_cover_renders_from_the_minimal_dfa():
    # the unrestricted cover keeps the piece that unites most of the
    # partition's classes; state elimination on all 5,312 classes of the
    # uniform partition at k=3 nested too deeply to print
    proc = run_limited(["cover", "--class", "bsigma1", "--alphabet", "abc",
                        "--target", "%universal", "--against", "a+",
                        "--against", "(ba|bc)b+c*", "--emit-cover", "--verify"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["coverable"] is True and doc["cover"]["k"] == 4
    assert doc["cover"]["optimal"] is True
    verified = doc["cover"]["verified"]
    assert verified["covers_target"] and verified["separating"] and verified["class_ok"]


def test_fo2_universal_cover_renders_every_piece():
    # every fo2 piece is printed from its trimmed minimal DFA; the union of
    # the members' regexes of a merged piece nested too deeply to print
    proc = run_limited(["cover", "--class", "fo2", "--alphabet", "abc",
                        "--target", "%universal", "--against", "((a|c)bb)+",
                        "--against", "((ac)*)*", "--emit-cover", "--verify"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["coverable"] is True and doc["cover"]["optimal"] is True
    assert len(doc["cover"]["pieces"]) == 73
    verified = doc["cover"]["verified"]
    assert verified["covers_target"] and verified["separating"]


def test_fo2_cover_text_stays_short(capsys):
    # states are eliminated by weight: the cover and separator of this
    # instance printed 24,925 characters in all when eliminated by degree;
    # the separator is no longer the pieces joined by "|" (6,236
    # characters) but the 9-state union of the pieces that miss the
    # against language, which holds the 44-state union of the pieces
    code, out, _ = run(capsys, ["separate", "--class", "fo2", "--alphabet", "abc",
                                "--target", "((a|c)bb)+", "--against", "((ac)*)*",
                                "--emit-cover", "--verify", "--json"])
    assert code == 0
    doc = json.loads(out)
    texts = [p["regex"] for p in doc["cover"]["pieces"]]
    assert sum(map(len, texts)) <= 7_000 and len(doc["separator"]) <= 120
    assert doc["stats"]["separator"] == {"union": "misses-against", "states": 9}
    assert includes(nfa_of("|".join(texts), "abc"), nfa_of(doc["separator"], "abc"))
    assert doc["cover"]["verified"]["covers_target"] and doc["cover"]["verified"]["separating"]


@pytest.mark.parametrize("target", ["(" * 1200 + "a" + ")" * 1200, "(" * 2000 + "a" + ")" * 2000])
def test_deeply_nested_regex_is_an_input_error(capsys, target):
    code, out, err = run(capsys, ["member", "--class", "at", "--alphabet", "ab",
                                  "--target", target])
    assert code == 2 and out == ""
    assert err.startswith("input error: regex nested too deeply") and "Traceback" not in err


def test_a_long_chain_of_unions_is_no_input_error(capsys):
    # compiling and printing follow a chain of one operator with a loop, so
    # 1,500 alternatives are as flat as their text
    argv = ["member", "--class", "at", "--alphabet", "ab", "--json", "--target"]
    code, out, err = run(capsys, argv + ["|".join(["ab"] * 1500)])
    assert code == 0, err
    code, once, _ = run(capsys, argv + ["ab"])
    docs = [json.loads(text) for text in (out, once)]
    for doc in docs:
        del doc["stats"]["wall_ms"]
    assert docs[0] == docs[1] and docs[0]["member"] is False


@pytest.mark.parametrize("argv, piece", [
    (["member", "--alphabet", "abc", "--target", "(a|b|c)*a(a|b|c)*b(a|b|c)*c(a|b|c)*"],
     "(b|c)*a(a|c)*b(a|b)*c(a|b|c)*"),
    (["separate", "--alphabet", "ab", "--target", "a(ab)*b(ba)*a", "--against", "b+"],
     "b*aa*bb*a(a|b)*"),
    # the printed separator, 601 factors long, is parsed and compiled again
    (["member", "--alphabet", "a", "--target", "a" * 600 + "+"], "a" * 600 + "a*"),
    # min(L) is all 3^14 words of length 14, of one image
    (["member", "--alphabet", "abc", "--target", "(a|b|c)" * 14 + "(a|b|c)*"],
     "(a|b|c)" * 14 + "(a|b|c)*"),
], ids=["superwords-of-abc", "aba-against-b+", "600-letters", "3^14-minimal-words"])
def test_sigma1_covers_from_the_minimal_words(capsys, argv, piece):
    # the first two stopped on a word enumeration budget (exit 3), the
    # third in a RecursionError (exit 1), the last on max_pieces (exit 3)
    code, out, err = run(capsys, argv[:1] + ["--class", "sigma1"] + argv[1:]
                         + ["--emit-cover", "--verify", "--json"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["cover"]["optimal"] is True
    assert [p["regex"] for p in doc["cover"]["pieces"]] == [piece] and doc["separator"] == piece
    # one piece, the superword closure of the target
    assert equivalent(nfa_of(piece, argv[2]), upward_closure(nfa_of(argv[4], argv[2])))
    verified = doc["cover"]["verified"]
    assert verified["covers_target"] and verified["separating"] and verified["class_ok"]


def test_sigma1_cover_has_one_piece_per_image(capsys):
    # the 3^9 minimal words of (a|b|c)^9(a|b|c)* fall into three images
    # against (a|b)* and c*: those with no c, those with no a or b, and the
    # rest; one piece per word would make 3^9 pieces
    code, out, err = run(capsys, ["cover", "--class", "sigma1", "--alphabet", "abc",
                                  "--target", "(a|b|c)" * 9 + "(a|b|c)*",
                                  "--against", "(a|b)*", "--against", "c*",
                                  "--emit-cover", "--verify", "--json"])
    assert code == 0, err
    cover = json.loads(out)["cover"]
    assert cover["optimal"] is True and len(cover["pieces"]) == 3
    verified = cover["verified"]
    assert verified["covers_target"] and verified["separating"] and verified["class_ok"]
    assert verified["piece_witnesses"] == [1, 0, 0]


# a^200 a*, and the words of length at most 199 written as 199 optional letters
A200 = ["--alphabet", "a", "--target", "a" * 200 + "+"]
DENSE = A200 + ["--against", "(a|%eps)" * 199]


def test_sigma1_separates_a_dense_automaton(capsys):
    # the separator is re-checked against the 200-state automaton of DENSE
    # by a walk over state pairs; building their product took 8-10 s
    code, out, err = run(capsys, ["separate", "--class", "sigma1"] + DENSE + ["--json"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["coverable"] is True and doc["separator"] == "a" * 200 + "a*"


def test_bsigma1_member_of_a_long_power(capsys):
    # a 601-element monoid: its powerset products reuse the rows of each
    # right factor (21 s before)
    code, out, err = run(capsys, ["member", "--class", "bsigma1", "--alphabet", "a",
                                  "--target", "a" * 600 + "+", "--json"])
    assert code == 0, err
    assert json.loads(out)["member"] is True


def test_bsigma1_cover_of_a_long_power_stops_at_the_depth_bound(capsys):
    # each level leaves a^k a* open until k = 600; the cover at the depth
    # bound k = 4 is not optimal, fails to separate, and is dropped
    code, out, err = run(capsys, ["member", "--class", "bsigma1", "--alphabet", "a",
                                  "--target", "a" * 600 + "+", "--emit-cover", "--verify",
                                  "--json"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["member"] is True and doc["cover"] is None and doc["separator"] is None
    assert doc["stats"]["synthesis"] == {"dropped": "not optimal"}


@pytest.mark.parametrize("argv", [
    ["member", "--class", "fo2", "--alphabet", "a", "--target", "a" * 170 + "+",
     "--emit-cover", "--verify"],
    ["separate", "--class", "fo2"] + DENSE,
    ["member", "--class", "fo2", "--alphabet", "a", "--target", "a" * 150 + "+",
     "--emit-cover", "--verify"],
], ids=["member-emit-cover", "separate", "member-emit-cover-150"])
def test_fo2_synthesis_over_many_contexts_keeps_a_shallow_stack(argv):
    # a^n+ gives one child context per power of a within one sub-alphabet;
    # a recursion per context ended in a RecursionError (exit 1) from n = 170;
    # a cap on the labels summed over the contexts then stopped every n from
    # 150 (exit 3) and skipped the separator of DENSE, though each cover has
    # one piece
    proc = subprocess.run([sys.executable, "-m", "regcov"] + argv + ["--json"],
                          env=regcov_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["coverable"] is True and "synthesis" not in doc["stats"]
    target = nfa_of(argv[argv.index("--target") + 1], "a")
    if argv[0] == "member":                # the cover of a^n+ is a^n+ itself
        pieces = doc["cover"]["pieces"]
        assert len(pieces) == 1 and equivalent(nfa_of(pieces[0]["regex"], "a"), target)
        verified = doc["cover"]["verified"]
        assert verified["covers_target"] and verified["separating"]
    else:                                  # the separator, checked here once more
        separator = nfa_of(doc["separator"], "a")
        against = nfa_of(argv[argv.index("--against") + 1], "a")
        assert includes(target, separator) and is_empty(separator, against)


GOOD_INSTANCE = {"alphabet": "ab", "class": "at", "target": "a+", "against": ["b+"]}
FLAGS = ["--class", "bsigma1", "--alphabet", "ab", "--target", "a+", "--against", "b+"]


@pytest.mark.parametrize("instance, flags", [
    ("missing", []),
    ("not json", []),
    ([1, 2], []),
    ({**GOOD_INSTANCE, "options": 5}, []),
    ({**GOOD_INSTANCE, "options": {"max_elements": "x"}}, []),
    ({**GOOD_INSTANCE, "against": "ab"}, []),
    (None, FLAGS + ["--emit-cover", "--max-k", "-3"]),
    (None, FLAGS + ["--max-elements", "0"]),
    # a misspelt option or field is refused, not dropped: without its cap
    # the first would decide (exit 0) where --max-elements 1 exits 3
    ({**GOOD_INSTANCE, "options": {"max_elemnts": 1}}, []),
    ({**GOOD_INSTANCE, "targett": "a+"}, []),
    ({**GOOD_INSTANCE, "options": {"max_states": 1, "emit": True}}, []),
    # a switch is a JSON Boolean, not a truthy value
    ({**GOOD_INSTANCE, "options": {"emit_cover": "no"}}, []),
    ({**GOOD_INSTANCE, "options": {"verify": 1}}, []),
    ({**GOOD_INSTANCE, "options": {"json": None}}, []),
])
def test_bad_input_is_an_input_error(tmp_path, capsys, instance, flags):
    argv = ["cover"] + flags
    if instance is not None:
        path = tmp_path / "instance.json"
        if instance != "missing":
            path.write_text(instance if isinstance(instance, str) else json.dumps(instance))
        argv += ["--instance", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and "Traceback" not in err


def test_masks_to_lists_keeps_high_indices():
    assert _masks_to_lists([1 << 70 | 1, 0b10, 0]) == [[], [1], [0, 70]]


def test_wall_ms_covers_parsing_the_instance(monkeypatch, capsys):
    real_load = cli.load_instance

    def slow_load(args):
        time.sleep(0.05)
        return real_load(args)

    monkeypatch.setattr(cli, "load_instance", slow_load)
    code, out, _ = run(capsys, ["member", "--class", "at", "--alphabet", "ab",
                                "--target", "a*", "--json"])
    assert code == 0
    assert json.loads(out)["stats"]["wall_ms"] >= 50.0


def test_cap_messages_name_the_closure_or_the_class(capsys):
    # a closure is named as it is, a saturation engine by its class
    code, _, err = run(capsys, ["cover", "--class", "at", "--alphabet", "ab", "--target", "a",
                                "--against", "b", "--max-elements", "1"])
    assert (code, err) == (3, "resource cap: cap 'max_elements' exceeded (limit 1): "
                              "word-image closure\n")
    code, _, err = run(capsys, ["cover", "--class", "fo2", "--alphabet", "ab", "--target",
                                "a(a|b)*", "--against", "b(a|b)*", "--max-elements", "3"])
    assert code == 3
    assert err.startswith("resource cap: cap 'max_elements' exceeded (limit 3): class fo2: ")
