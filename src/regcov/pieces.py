"""Pieces (scattered subwords) and the piece-equivalence partition for
piecewise-testable covers.

Two words are k-equivalent when they contain the same pieces of length at
most k; the partition DFA tracks the reachable piece sets.
"""

from __future__ import annotations

from .errors import Caps, DEFAULT_CAPS, PtStateCapError
from .fa import Alphabet, Dfa, explore, minimize


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


def are_unions_of_classes(nfas: list, partition: Dfa, caps: Caps = DEFAULT_CAPS) -> bool:
    """True iff every language is a union of the partition's classes, the
    sets of words that lead to one of its states.

    A language L is a union of classes iff its minimal DFA is a quotient of
    the partition, that is iff the minimal DFA's state after a word is a
    function of the word's class.  If it is, acceptance is too.  If L is a
    union of classes and the words u, v lead to one state, then u·w and v·w
    lead to one state for every w, so L holds both or neither, and u, v
    reach one state of the minimal DFA (Myhill–Nerode).

    So the languages are minimized and the partition is walked once, each
    class carrying the tuple of the minimal DFAs' states after its words:
    each class reached is expanded once, and the walk fails at the first
    class reached with two different tuples.  A walk that ends has followed
    every letter from every class, from its tuple to the tuple of the next
    class, so each minimal DFA's state is a function of the class.  That is
    |P|·|A| steps for all the languages together, not per language.

    The tuples are numbered first, as the states of the product of the
    minimal DFAs (`fa.explore`), so that a step of the walk builds no tuple.
    Every state of the product is the tuple of some word, so a product with
    more states than the partition has classes fails at once.
    """
    dfas = [minimize(n, caps) for n in nfas]
    found = explore(tuple(d.initial for d in dfas),
                    lambda qs: list(zip(*(d.delta[q] for d, q in zip(dfas, qs)))),
                    partition.state_count)
    if found is None:
        return False
    product = found[1]
    tuple_of = {partition.initial: 0}       # class -> the number of its tuple
    work = [partition.initial]
    while work:
        p = work.pop()
        for p2, t2 in zip(partition.delta[p], product[tuple_of[p]]):
            if p2 not in tuple_of:
                tuple_of[p2] = t2
                work.append(p2)
            elif tuple_of[p2] != t2:
                return False
    return True
