"""Seeded query streams for the three workloads, plus the named instances.

A query is the argv a user would type at the `regcov` command.  A pass
poses the named instances and a fixed number of groups of a frozen random
corpus, in an order that the seed shuffles.  Every seed thus poses the same
queries, so that runs with different seeds stay comparable: the query
costs are heavy-tailed, and a fresh random sample per seed would move every
timing by more than any bound worth having.  Renaming the letters of each
input per seed moved single queries between a verdict, a cap and
`MemoryError`, which moved the p90 of `synth` by a quarter between seeds.
Group `i` is generated from its own `random.Random`.

Regexes are rendered here, not by the program's printer, so that the inputs
do not change when the program does.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

CLASSES = ("at", "sigma1", "bsigma1", "sigma2", "fo2", "fo")
SYNTH_CLASSES = ("at", "sigma1", "bsigma1", "fo2")
WORKLOADS = ("decide", "synth", "plain")

# Seed of the frozen corpus; the run's --seed only shuffles it.
CORPUS_SEED = "corpus-1"


@dataclass
class Query:
    qid: str
    group: str                 # queries of one decide instance share a group
    command: str               # cover / separate / member
    cls: str
    alphabet: str
    target: object             # regex text or NFA JSON object
    against: list              # regex texts or NFA JSON objects
    argv: list
    emit_cover: bool = False
    json_out: bool = False


# -- random inputs ------------------------------------------------------------------

def random_nfa(rng: random.Random, symbols: str, max_states: int) -> dict:
    """Sparse random NFA as regcov's JSON form, one initial state; each
    possible transition is present with probability 0.3."""
    n = rng.randint(1, max_states)
    trans = [[q, a, r] for q in range(n) for a in symbols for r in range(n)
             if rng.random() < 0.3]
    finals = [q for q in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
    return {"alphabet": symbols, "states": n, "initials": [rng.randrange(n)],
            "finals": finals, "transitions": trans}


def random_regex(rng: random.Random, symbols: str, depth: int) -> tuple:
    """Random regex AST of height at most `depth`, as nested tuples."""
    if depth <= 0:
        return ("eps",) if rng.random() < 0.1 else ("sym", rng.choice(symbols))
    op = rng.choice(("union", "concat", "star", "plus", "leaf"))
    if op == "leaf":
        return random_regex(rng, symbols, 0)
    if op in ("star", "plus"):
        return (op, random_regex(rng, symbols, depth - 1))
    return (op, random_regex(rng, symbols, depth - 1), random_regex(rng, symbols, depth - 1))


_PREC = {"union": 0, "concat": 1, "star": 2, "plus": 2, "sym": 3, "eps": 3}


def regex_text(node: tuple, ctx: int = 0) -> str:
    """Render in regcov's surface grammar (a postfix operator takes an atom)."""
    op = node[0]
    if op == "sym":
        s = node[1]
    elif op == "eps":
        s = "%eps"
    elif op == "union":
        s = regex_text(node[1], 0) + "|" + regex_text(node[2], 0)
    elif op == "concat":
        s = regex_text(node[1], 1) + regex_text(node[2], 1)
    else:
        s = regex_text(node[1], 3) + ("*" if op == "star" else "+")
    return "(" + s + ")" if _PREC[op] < ctx else s


# -- query construction -------------------------------------------------------------

def text_query(qid: str, group: str, command: str, cls: str, alphabet: str,
               target: str, against: list, flags: tuple) -> Query:
    argv = [command, "--class", cls, "--alphabet", alphabet, "--target", target]
    for a in against:
        argv += ["--against", a]
    argv += list(flags)
    return Query(qid, group, command, cls, alphabet, target, list(against), argv,
                 emit_cover="--emit-cover" in flags, json_out="--json" in flags)


SYNTH_FLAGS = ("--emit-cover", "--verify", "--json")

# Every instance that ROADMAP.md or README.md names, in the workload whose
# command it uses.  Their outcomes are recorded as they are.
NAMED = {
    "decide": [],
    "synth": [
        # README: the three-language at cover; with the two pairs below it is
        # the pairwise-inseparable, jointly coverable triple.
        ("readme-at-cover", "cover", "at", "abc", "a+|b+", ["b+|c+", "c+|a+"]),
        ("triple-pair-1", "cover", "at", "abc", "a+|b+", ["b+|c+"]),
        ("triple-pair-2", "cover", "at", "abc", "a+|b+", ["c+|a+"]),
        # ROADMAP: the fo2 worked-example cover (stops on max_pieces).
        ("fo2-worked-cover", "cover", "fo2", "abc", "(ab)+", ["c(ac)+"]),
    ],
    "plain": [
        ("fo2-member-wall-ms", "member", "fo2", "abc", "(a|b)*c(a|b)*", []),
        ("fo2-separate-no-separator", "separate", "fo2", "abc", "(ab)+", ["c(ac)+"]),
        ("bsigma1-member-blowup", "member", "bsigma1", "abc", "b|ac|a(a|c)", []),
        ("readme-at-separate", "separate", "at", "abc", "(ab)+", ["c(ac)+"]),
        ("readme-at-inseparable", "separate", "at", "abc", "(ab)+", ["b(ab)+"]),
        ("readme-sigma1-separate", "separate", "sigma1", "ab", "a+", ["b+"]),
        ("readme-bsigma1-member", "member", "bsigma1", "a", "(aa)*", []),
    ],
}


def named_queries(workload: str) -> list:
    flags = SYNTH_FLAGS if workload == "synth" else ()
    return [text_query(f"named:{label}", f"named:{label}", cmd, cls, ab, t, against, flags)
            for (label, cmd, cls, ab, t, against) in NAMED[workload]]


def decide_group(i: int, workdir: str) -> list:
    """One random instance (target plus one or two against NFAs over ab,
    at most five states each) posed to all six classes."""
    rng = random.Random(f"decide:{CORPUS_SEED}:{i}")
    n_against = 1 + i % 2
    langs = [random_nfa(rng, "ab", 5) for _ in range(n_against + 1)]
    group = str(i)
    path = os.path.join(workdir, f"decide-{i}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"alphabet": "ab", "target": langs[0], "against": langs[1:]}, fh)
    return [Query(f"{group}:{cls}", group, "cover", cls, "ab", langs[0], langs[1:],
                  ["cover", "--instance", path, "--class", cls, "--json"], json_out=True)
            for cls in CLASSES]


# (command, class, alphabet) strata, cycled so that every run has the same mix.
SYNTH_STRATA = [(cmd, cls, ab) for ab in ("ab", "abc")
                for cmd in ("cover", "separate", "member") for cls in SYNTH_CLASSES]
PLAIN_STRATA = [(cmd, cls, ab) for ab in ("ab", "abc")
                for cmd in ("member", "separate") for cls in CLASSES]


def text_group(workload: str, i: int) -> list:
    """One random regex query of the synth or plain workload."""
    strata = SYNTH_STRATA if workload == "synth" else PLAIN_STRATA
    cmd, cls, ab = strata[i % len(strata)]
    rng = random.Random(f"{workload}:{CORPUS_SEED}:{i}")
    n_against = {"member": 0, "separate": 1, "cover": 1 + rng.randrange(2)}[cmd]
    target, *against = [regex_text(random_regex(rng, ab, 3)) for _ in range(n_against + 1)]
    flags = SYNTH_FLAGS if workload == "synth" else ()
    return [text_query(f"{i}:{cls}", str(i), cmd, cls, ab, target, against, flags)]


# Queries in one pass, named instances included: 20-65 s at the seed
# commit on a shared 2-core machine, and at least 100 so that ten lie beyond
# the p90.  A decide pass is a whole number of six-class groups.
PASS_QUERIES = {"decide": 144, "synth": 100, "plain": 120}


def corpus(workload: str, seed: int, workdir: str) -> list:
    """The queries of one pass: the named instances and the frozen corpus,
    in the seed's order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    queries = named_queries(workload)
    i = 0
    while len(queries) < PASS_QUERIES[workload]:
        if workload == "decide":
            queries += decide_group(i, workdir)
        else:
            queries += text_group(workload, i)
        i += 1
    random.Random(f"order:{workload}:{seed}").shuffle(queries)
    return queries
