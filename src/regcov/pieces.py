"""Pieces (scattered subwords) and the piece-equivalence partition for
piecewise-testable covers.

Two words are k-equivalent when they contain the same pieces of length at
most k; the partition DFA tracks the reachable piece sets.
"""

from __future__ import annotations

from .errors import Caps, DEFAULT_CAPS, PtStateCapError
from .fa import Alphabet, Dfa, Nfa, determinize, explore


def is_piece(u: str, v: str) -> bool:
    """True iff u is a scattered subword of v."""
    it = iter(v)
    return all(c in it for c in u)


def pt_partition(k: int, alphabet: Alphabet, caps: Caps = DEFAULT_CAPS) -> Dfa:
    """Partition of all words into k-piece-equivalence classes: the complete
    DFA of reachable piece sets, without finals, one state per class.

    A piece set is a bitmask over the pieces of length at most k, shortest
    first.  Reading a letter a adds u·a for every member u shorter than k;
    those members fill the low bits, and per-byte tables map each byte of
    them to the bits of their extensions.
    """
    pieces = [""]
    for u in pieces:
        if len(u) < k:
            pieces.extend(u + a for a in alphabet)
    bit = {u: 1 << i for i, u in enumerate(pieces)}
    short = sum(1 for u in pieces if len(u) < k)
    tables = []
    for a in alphabet:
        per_byte = []
        for lo in range(0, short, 8):
            ext = [bit[u + a] for u in pieces[lo:min(lo + 8, short)]]
            table = [0] * (1 << len(ext))
            for v in range(1, len(table)):
                low = v & -v
                table[v] = table[v ^ low] | ext[low.bit_length() - 1]
            per_byte.append((lo, (1 << len(ext)) - 1, table))
        tables.append(per_byte)

    def successors(cur):
        row = []
        for per_byte in tables:
            nxt = cur
            for lo, mask, table in per_byte:
                nxt |= table[cur >> lo & mask]
            row.append(nxt)
        return row

    found = explore(1, successors, caps.max_pt_states)   # bit 0 is the empty piece
    if found is None:
        raise PtStateCapError("max_pt_states", caps.max_pt_states, f"piece automaton at k={k}")
    order, rows = found
    return Dfa(alphabet, len(order), 0, frozenset(), tuple(rows))


def is_union_of_classes(nfa: Nfa, partition: Dfa, caps: Caps = DEFAULT_CAPS) -> bool:
    """True iff the language is a union of the partition's classes.

    One product of the partition with the language's DFA: every class lies
    inside the language or misses it exactly when all reachable pairs that
    share a partition state agree on acceptance.
    """
    dfa = determinize(nfa, caps)
    accepts = {partition.initial: dfa.initial in dfa.finals}
    seen = {(partition.initial, dfa.initial)}
    work = list(seen)
    while work:
        p, d = work.pop()
        for p2, d2 in zip(partition.delta[p], dfa.delta[d]):
            if (p2, d2) not in seen:
                if accepts.setdefault(p2, d2 in dfa.finals) != (d2 in dfa.finals):
                    return False
                seen.add((p2, d2))
                work.append((p2, d2))
    return True


def is_k_piecewise_testable(nfa: Nfa, k: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """True iff the language is a union of k-equivalence classes."""
    return is_union_of_classes(nfa, pt_partition(k, nfa.alphabet, caps), caps)
