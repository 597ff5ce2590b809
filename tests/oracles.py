"""Independent membership oracles based on classical algebraic
characterizations over the syntactic monoid.

These never touch the semiring/saturation machinery: they work on the
transition monoid of the minimal automaton (which is the syntactic monoid)
and, where needed, the syntactic order, read off residual inclusion in the
minimal automaton.
"""

from __future__ import annotations

from regcov import Alphabet, MonoidMorphism, Nfa, minimize, transition_monoid


def syntactic(nfa: Nfa):
    """(syntactic monoid, accepting set) of the language."""
    return transition_monoid(nfa)


def monoid_omega(alpha: MonoidMorphism, s: int) -> int:
    seen = {}
    powers = []
    cur = s
    while cur not in seen:
        seen[cur] = len(powers)
        powers.append(cur)
        cur = alpha.mul[cur][s]
    for e in powers[seen[cur]:]:
        if alpha.mul[e][e] == e:
            return e
    raise AssertionError("no idempotent power")


def syntactic_order(alpha: MonoidMorphism, accepting) -> list:
    """leq[s][t] iff every accepting context of s also accepts t.

    O(|M|⁴): the cross-check of `residual_order` on small monoids.
    """
    n = alpha.size
    mul = alpha.mul
    acc = set(accepting)
    leq = [[True] * n for _ in range(n)]
    for s in range(n):
        for t in range(n):
            ok = True
            for p in range(n):
                ps, pt = mul[p][s], mul[p][t]
                for q in range(n):
                    if mul[ps][q] in acc and mul[pt][q] not in acc:
                        ok = False
                        break
                if not ok:
                    break
            leq[s][t] = ok
    return leq


def residual_order(nfa: Nfa, alpha: MonoidMorphism):
    """The syntactic order of `syntactic_order` as a test leq(s, t), read off
    the minimal DFA, whose transition monoid `alpha` is.

    Every state of the minimal DFA is reachable, so p·s·q is accepted iff q
    lies in the residual at (initial·p)·s: s <= t iff for every state i the
    residual at i·s is contained in the residual at i·t.  Residual
    inclusion is one greatest fixpoint over state pairs; each test then
    costs one pass over the states.
    """
    dfa = minimize(nfa)
    n, delta = dfa.state_count, dfa.delta
    sub = [[p not in dfa.finals or q in dfa.finals for q in range(n)] for p in range(n)]
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(n):
                if sub[p][q] and not all(sub[p2][q2] for p2, q2 in zip(delta[p], delta[q])):
                    sub[p][q] = False
                    changed = True
    # the state map of every element, from a word reaching it
    maps = {alpha.identity: tuple(range(n))}
    work = [alpha.identity]
    while work:
        m = work.pop()
        for k, a in enumerate(dfa.alphabet.symbols):
            m2 = alpha.mul[m][alpha.letter_image[a]]
            if m2 not in maps:
                maps[m2] = tuple(delta[q][k] for q in maps[m])
                work.append(m2)
    assert len(maps) == alpha.size

    def leq(s: int, t: int) -> bool:
        return all(sub[p][q] for p, q in zip(maps[s], maps[t]))

    return leq


def element_alphabets(alpha: MonoidMorphism, alphabet: Alphabet):
    """Reachable (element, exact word alphabet mask) pairs."""
    gens = [(alpha.letter_image[a], 1 << alphabet.index(a)) for a in alphabet]
    seen = {(alpha.identity, 0)}
    work = [(alpha.identity, 0)]
    while work:
        (m, mask) = work.pop()
        for (g, gmask) in gens:
            nxt = (alpha.mul[m][g], mask | gmask)
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def member_fo(nfa: Nfa) -> bool:
    """Star-freeness: the syntactic monoid is aperiodic."""
    alpha, _ = syntactic(nfa)
    for s in range(alpha.size):
        e = monoid_omega(alpha, s)
        if alpha.mul[e][s] != e:
            return False
    return True


def member_fo2(nfa: Nfa) -> bool:
    """Two-variable definability: the syntactic monoid satisfies the DA
    identity (xy)^ω x (xy)^ω = (xy)^ω."""
    alpha, _ = syntactic(nfa)
    mul = alpha.mul
    for x in range(alpha.size):
        for y in range(alpha.size):
            e = monoid_omega(alpha, mul[x][y])
            if mul[mul[e][x]][e] != e:
                return False
    return True


def member_bsigma1(nfa: Nfa) -> bool:
    """Piecewise testability: the syntactic monoid is J-trivial."""
    alpha, _ = syntactic(nfa)
    n = alpha.size
    mul = alpha.mul
    ideals = []
    for s in range(n):
        ideal = frozenset(mul[mul[p][s]][q] for p in range(n) for q in range(n))
        ideals.append(ideal)
    for s in range(n):
        for t in range(s + 1, n):
            if ideals[s] == ideals[t]:
                return False
    return True


def member_sigma1(nfa: Nfa) -> bool:
    """Upward closure: the syntactic order satisfies 1 <= x for all x."""
    alpha, _ = syntactic(nfa)
    leq = residual_order(nfa, alpha)
    one = alpha.identity
    return all(leq(one, x) for x in range(alpha.size))


def member_sigma2(nfa: Nfa) -> bool:
    """Half-level two: the syntactic order satisfies x^ω <= x^ω y x^ω for
    all x, y with some preimage words u, v such that alph(v) ⊆ alph(u)."""
    alpha, _ = syntactic(nfa)
    leq = residual_order(nfa, alpha)
    mul = alpha.mul
    pairs = element_alphabets(alpha, nfa.alphabet)
    for (x, bx) in pairs:
        e = monoid_omega(alpha, x)
        for (y, by) in pairs:
            if by | bx != bx:
                continue
            if not leq(e, mul[mul[e][y]][e]):
                return False
    return True


def member_at(nfa: Nfa) -> bool:
    """Alphabet testability: acceptance depends only on the word alphabet."""
    alpha, acc = syntactic(nfa)
    accept_by_mask: dict = {}
    for (m, mask) in element_alphabets(alpha, nfa.alphabet):
        inside = m in acc
        if mask in accept_by_mask and accept_by_mask[mask] != inside:
            return False
        accept_by_mask[mask] = inside
    return True


def downward_closure(nfa: Nfa) -> Nfa:
    """All pieces of accepted words: transitions may be skipped.

    p -a-> s is allowed whenever some q with a transition q -a-> r is
    label-reachable from p and s is label-reachable from r.
    """
    reach = [{q} for q in range(nfa.state_count)]
    edges = {}
    for (q, _, r) in nfa.transitions:
        edges.setdefault(q, set()).add(r)
    changed = True
    while changed:
        changed = False
        for q in range(nfa.state_count):
            new = set()
            for r in reach[q]:
                new |= edges.get(r, set())
            if not new <= reach[q]:
                reach[q] |= new
                changed = True
    trans = set()
    for (q, a, r) in nfa.transitions:
        for p in range(nfa.state_count):
            if q in reach[p]:
                trans.add((p, a, r))
    finals = frozenset(p for p in range(nfa.state_count)
                       if reach[p] & set(nfa.finals))
    return Nfa(nfa.alphabet, nfa.state_count, nfa.initials, finals,
               frozenset(trans))


def sigma1_coverable(target: Nfa, langs: list) -> bool:
    """(target, langs) coverable with upward-closed pieces iff the target
    misses the intersection of the piece-closures of the inputs."""
    from regcov import is_empty, nfa_intersection

    acc = target
    for lang in langs:
        acc = nfa_intersection(acc, downward_closure(lang))
    return is_empty(acc)
