"""Pieces (scattered subwords) and the piece-equivalence partition for
piecewise-testable covers.

Two words are j-equivalent when they contain the same pieces of length at
most j; the partition DFA tracks the reachable piece sets, each to the
depth that its open classes call for.
"""

from __future__ import annotations

from .errors import Caps, DEFAULT_CAPS, ResourceCapError
from .fa import Alphabet, Dfa, explore, minimize


def pt_partition(k: int, alphabet: Alphabet, caps: Caps = DEFAULT_CAPS, open=None):
    """(partition, classes): a partition of all words into piece-equivalence
    classes of depth at most k, as a complete DFA without finals, and the
    class (j, S) of each of its states, the words whose pieces of length at
    most j are the set S.

    A piece set is a bitmask over the pieces of length at most k, shortest
    first and in alphabet order within a length, so the j-truncation of S,
    its pieces of length at most j, is a low-bit mask.

    `open` holds the open classes (i, S) of depths i < k; None opens every
    class, which gives the uniform k-piece partition.  A word's class is
    tracked at depth j only while, for every i < j, the i-truncation of its
    piece set lies bitwise below some open i-class.  A piece set only grows
    along a word, so once the i-truncation is below no open i-class it
    never is again: the depth drops to i for good, and the word's class is
    the i-class of its i-truncation.  Whether a word is tracked at depth j
    is so a function of its j-class, and every state (j, S) is exactly the
    j-class S, a union of k-classes.

    Reading a letter a at depth j adds u·a for every member u shorter than
    j.  Numbered shortest first, the pieces form the complete |A|-ary tree
    in breadth-first order, so u·a has the number |A|·i + 1 + (the
    position of a) when u has the number i: the members shorter than j,
    the low bits, spread |A| apart by a per-byte table and shifted by
    1 + (the position of a), are the bits of their extensions.

    More states than `max_pt_states`, or more pieces of length at most k,
    raise a ResourceCapError on `max_pt_states`.
    """
    n = len(alphabet)
    short = [sum(n ** i for i in range(j)) for j in range(k + 2)]   # pieces shorter than j
    # kept: without it the pt-k oracle at k = 6 over ab runs 4.5x slower
    spread = [0] * (1 << min(8, short[k]))   # the bits t of a byte moved to n·t
    for v in range(1, len(spread)):
        low = v & -v
        spread[v] = spread[v ^ low] | 1 << n * (low.bit_length() - 1)
    # a state is the int S << shift | j
    shift = k.bit_length()
    opens = None
    if open is not None:
        opens = [[] for _ in range(k)]
        for j, s in open:
            if j < k:
                opens[j].append(s)
    fits: dict = {}                        # (i, truncation) -> below an open i-class

    def settle(j, s):
        """The state of a piece set s of depth j, the depth dropped to the
        first i whose truncation is below no open i-class."""
        if opens is not None:
            for i in range(j):
                t = s & ((1 << short[i + 1]) - 1)
                key = (i, t)
                if key not in fits:
                    fits[key] = any(t | o == o for o in opens[i])
                if not fits[key]:
                    return t << shift | i
        return s << shift | j

    depth_mask = (1 << shift) - 1

    def successors(state):
        j, cur = state & depth_mask, state >> shift
        members = cur & ((1 << short[j]) - 1)
        wide = 0
        for b, v in enumerate(members.to_bytes((short[j] + 7) // 8, "little")):
            if v:
                wide |= spread[v] << 8 * n * b
        row = []
        for a in range(n):
            nxt = cur | wide << 1 + a
            row.append(state if nxt == cur else settle(j, nxt))
        return row

    # a piece set is as wide as there are pieces of length at most k, and
    # the uniform partition has at least as many states (a word of length
    # at most k is its own longest piece), so the cap bounds the width of a
    # refined level too
    found = None
    if short[k + 1] <= caps.max_pt_states:
        found = explore(settle(k, 1), successors, caps.max_pt_states)   # bit 0: the empty piece
    if found is None:
        raise ResourceCapError("max_pt_states", caps.max_pt_states, f"piece automaton at k={k}")
    order, rows = found
    return (Dfa(alphabet, len(order), 0, frozenset(), tuple(rows)),
            [(s & depth_mask, s >> shift) for s in order])


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
