"""Earlier automaton algorithms: the references for the faster ones in
`regcov.fa`, which must give identical results.

`determinize` keeps subsets as frozensets of states; `nfa_to_regex`
renders every edge and recomputes every state's weight from the full edge
list at each elimination (it reads the edges in the same sorted order as
`regcov.fa`); `includes` intersects lhs with the complement of rhs, built
by the whole subset construction; `transition_monoid` composes and hashes
the two transformations of every product in its table; `pt_partition`
keeps piece sets as frozensets of strings, and `is_refined_partition`
checks a partition of mixed depths with them; `partition_piece` trims the
whole partition DFA with the given finals.
"""

from __future__ import annotations

from dataclasses import replace

from regcov import rx
from regcov.fa import (Alphabet, Dfa, MonoidMorphism, Nfa, is_empty, minimize,
                       nfa_complement, nfa_intersection)

from helpers import concat, star, trim, union


def determinize(n: Nfa) -> Dfa:
    step: dict = {}
    for (q, a, r) in n.transitions:
        step.setdefault((q, a), set()).add(r)
    init = frozenset(n.initials)
    ids = {init: 0}
    order = [init]
    rows = []
    i = 0
    while i < len(order):
        subset = order[i]
        row = []
        for a in n.alphabet.symbols:
            nxt = frozenset().union(*(step.get((q, a), ()) for q in subset)) if subset else frozenset()
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            row.append(ids[nxt])
        rows.append(tuple(row))
        i += 1
    finals = frozenset(i for i, subset in enumerate(order) if subset & n.finals)
    return Dfa(n.alphabet, len(order), 0, finals, tuple(rows))


def nfa_to_regex(n: Nfa) -> rx.Regex:
    start, end = n.state_count, n.state_count + 1
    edges: dict = {}

    def add(q, r, e):
        if isinstance(e, rx.Empty):
            return
        edges[(q, r)] = union(edges.get((q, r), rx.EMPTY), e)

    for (q, a, r) in sorted(n.transitions):
        add(q, r, rx.Letter(a))
    for q in sorted(n.initials):
        add(start, q, rx.EPSILON)
    for q in sorted(n.finals):
        add(q, end, rx.EPSILON)
    states = list(range(n.state_count))
    while states:
        size = {qr: len(rx.regex_to_text(e)) for qr, e in edges.items()}
        weight = {}
        for s in states:
            ins = [q for (q, r) in edges if r == s and q != s]
            outs = [r for (q, r) in edges if q == s and r != s]
            weight[s] = (sum(size[q, s] for q in ins) * (len(outs) - 1)
                         + sum(size[s, r] for r in outs) * (len(ins) - 1)
                         + size.get((s, s), 0) * (len(ins) * len(outs) - 1))
        s = min(states, key=lambda x: (weight[x], x))
        states.remove(s)
        loop = edges.pop((s, s), rx.EMPTY)
        loopstar = star(loop) if not isinstance(loop, rx.Empty) else rx.EPSILON
        incoming = [(q, e) for (q, r), e in edges.items() if r == s]
        outgoing = [(r, e) for (q, r), e in edges.items() if q == s]
        for (q, _) in incoming:
            edges.pop((q, s))
        for (r, _) in outgoing:
            edges.pop((s, r))
        for (q, ein) in incoming:
            for (r, eout) in outgoing:
                add(q, r, concat(concat(ein, loopstar), eout))
    return edges.get((start, end), rx.EMPTY)


def includes(lhs: Nfa, rhs: Nfa) -> bool:
    return is_empty(nfa_intersection(lhs, nfa_complement(rhs)))


def transition_monoid(n: Nfa):
    dfa = minimize(n)
    m = dfa.state_count
    ident = tuple(range(m))
    letter_tf = {a: tuple(dfa.delta[q][i] for q in range(m))
                 for i, a in enumerate(dfa.alphabet.symbols)}
    ids = {ident: 0}
    order = [ident]
    i = 0
    while i < len(order):
        t = order[i]
        for a in dfa.alphabet.symbols:
            ta = letter_tf[a]
            nt = tuple(ta[q] for q in t)  # apply t, then a
            if nt not in ids:
                ids[nt] = len(order)
                order.append(nt)
        i += 1
    size = len(order)
    mul = [[0] * size for _ in range(size)]
    for i, t in enumerate(order):
        for j, u in enumerate(order):
            tu = tuple(u[q] for q in t)  # apply t, then u
            mul[i][j] = ids[tu]
    letter_image = {a: ids[letter_tf[a]] for a in dfa.alphabet.symbols}
    morphism = MonoidMorphism(size, 0, tuple(tuple(r) for r in mul), letter_image)
    accepting = frozenset(i for i, t in enumerate(order) if t[dfa.initial] in dfa.finals)
    return morphism, accepting


def piece_order(k: int, alphabet: Alphabet) -> list:
    """The pieces of length at most k, shortest first and in alphabet order
    within a length: the bit order of `regcov.pieces.pt_partition`."""
    pieces = [""]
    for u in pieces:
        if len(u) < k:
            pieces.extend(u + a for a in alphabet)
    return pieces


def _grow(cur: frozenset, a: str, k: int) -> frozenset:
    """The k-piece set after reading a, from the set `cur` before it."""
    return frozenset(cur | {u + a for u in cur if len(u) < k})


def piece_sets(k: int, alphabet: Alphabet) -> tuple:
    """(the k-piece partition, the piece set of each of its states)."""
    start = frozenset([""])
    ids = {start: 0}
    order = [start]
    rows = []
    i = 0
    while i < len(order):
        cur = order[i]
        row = []
        for a in alphabet:
            nxt = _grow(cur, a, k)
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            row.append(ids[nxt])
        rows.append(tuple(row))
        i += 1
    return Dfa(alphabet, len(order), 0, frozenset(), tuple(rows)), order


def pt_partition(k: int, alphabet: Alphabet) -> Dfa:
    return piece_sets(k, alphabet)[0]


def is_refined_partition(pa: Dfa, classes: list, k: int) -> bool:
    """True iff every state of the partition, labelled (j, S) with j <= k
    and S a bitmask in `piece_order`, is exactly the j-class of S.

    By induction on words, the state after w then has the label (j, S_j(w))
    when the initial label holds only the empty piece and each letter leads
    from (j, S) to a label (j', S') with j' <= j and S' the j'-truncation of
    S grown by the letter.  A word lies in one state, so every state (j, S)
    is the whole j-class of S iff no two labels (j, S), (j', S') with
    j <= j' have S as the j-truncation of S'."""
    order = piece_order(k, pa.alphabet)
    sets = [(j, frozenset(u for i, u in enumerate(order) if s >> i & 1)) for j, s in classes]
    if any(j > k or any(len(u) > j for u in s) for j, s in sets) or sets[pa.initial][1] != {""}:
        return False
    for (j, s), row in zip(sets, pa.delta):
        for a, r in zip(pa.alphabet, row):
            j2, s2 = sets[r]
            if j2 > j or s2 != {u for u in _grow(s, a, j) if len(u) <= j2}:
                return False
    truncations: dict = {}
    for q, (j, s) in enumerate(sets):
        for i in range(j + 1):
            truncations.setdefault((i, frozenset(u for u in s if len(u) <= i)), set()).add(q)
    return all(truncations[label] == {q} for q, label in enumerate(sets))


def partition_piece(pa: Dfa, finals) -> Nfa:
    return trim(replace(pa, finals=frozenset(finals)).as_nfa())
