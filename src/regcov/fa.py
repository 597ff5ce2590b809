"""Finite automata over small ordered alphabets.

All automata are epsilon-free; regex compilation uses the position
(Glushkov) construction, so no epsilon elimination pass is ever needed.
Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import Caps, DEFAULT_CAPS, InputError, ResourceCapError
from . import rx
from .rx import Regex


# characters of the regex grammar, which no symbol may be (whitespace neither)
_RESERVED = "|()*+%"


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet of distinct single-character symbols (size 1..16),
    none of them reserved by the regex grammar, so that every regex printed
    over it parses back."""

    symbols: str

    def __post_init__(self):
        if not (1 <= len(self.symbols) <= 16):
            raise InputError(f"alphabet size must be 1..16, got {len(self.symbols)}")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError(f"alphabet symbols must be distinct: {self.symbols!r}")
        if any(len(s) != 1 for s in self.symbols):
            raise InputError("alphabet symbols must be single characters")
        for s in self.symbols:
            if s in _RESERVED or s.isspace():
                raise InputError(f"alphabet symbol {s!r} is reserved by the regex grammar")
        object.__setattr__(self, "symbols", "".join(sorted(self.symbols)))

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, sym: str) -> bool:
        return isinstance(sym, str) and len(sym) == 1 and sym in self.symbols

    def index(self, sym: str) -> int:
        if sym not in self:
            raise InputError(f"symbol {sym!r} not in alphabet {self.symbols!r}")
        return self.symbols.index(sym)

    def from_mask(self, mask: int) -> str:
        return "".join(s for i, s in enumerate(self.symbols) if mask >> i & 1)


@dataclass(frozen=True)
class Nfa:
    """Epsilon-free NFA.  States are 0..state_count-1."""

    alphabet: Alphabet
    state_count: int
    initials: frozenset
    finals: frozenset
    transitions: frozenset  # of (state, symbol, state)

    def __post_init__(self):
        object.__setattr__(self, "initials", frozenset(self.initials))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        if self.state_count < 0:
            raise InputError(f"state count {self.state_count} is negative")
        for q in itertools.chain(self.initials, self.finals):
            if not (0 <= q < self.state_count):
                raise InputError(f"state {q} out of range (count {self.state_count})")
        for (q, a, r) in self.transitions:
            if not (0 <= q < self.state_count and 0 <= r < self.state_count):
                raise InputError(f"transition ({q},{a!r},{r}) out of range")
            if a not in self.alphabet:
                raise InputError(f"transition symbol {a!r} not in alphabet")

    def step_map(self) -> dict:
        """dict (state, symbol) -> set of successor states, built anew on
        every call, so the caller may keep or change it."""
        out: dict = {}
        for (q, a, r) in self.transitions:
            out.setdefault((q, a), set()).add(r)
        return out

    def accepts(self, word: str) -> bool:
        step = self.step_map()
        current = set(self.initials)
        for a in word:
            if a not in self.alphabet:
                raise InputError(f"word symbol {a!r} not in alphabet")
            current = set().union(*(step.get((q, a), ()) for q in current)) if current else set()
            if not current:
                break
        return bool(current & self.finals)


# -- constructions from regexes ------------------------------------------------

def regex_to_nfa(node: Regex, alphabet: Alphabet) -> Nfa:
    """Position-automaton compilation; the result has no epsilon moves."""

    positions: list = []  # position index -> symbol
    follow: list = []     # (p, q): position q may follow position p

    def walk(n: Regex):
        """returns (nullable, first, last) and adds n's follow pairs; a
        chain of one operator is walked operand by operand (`rx.chain`),
        in order, so that positions stay numbered left to right"""
        if isinstance(n, rx.Empty):
            return False, frozenset(), frozenset()
        if isinstance(n, rx.Epsilon):
            return True, frozenset(), frozenset()
        if isinstance(n, rx.Letter):
            if n.symbol not in alphabet:
                raise InputError(f"symbol {n.symbol!r} not in alphabet {alphabet.symbols!r}")
            p = len(positions)
            positions.append(n.symbol)
            return False, frozenset([p]), frozenset([p])
        if isinstance(n, (rx.Union, rx.Concat)):
            first, *rest = rx.chain(n)
            n1, f1, l1 = walk(first)
            for n2, f2, l2 in map(walk, rest):
                if isinstance(n, rx.Union):
                    n1, f1, l1 = n1 or n2, f1 | f2, l1 | l2
                else:
                    follow.extend([(p, q) for p in l1 for q in f2])
                    n1, f1, l1 = n1 and n2, f1 | f2 if n1 else f1, l1 | l2 if n2 else l2
            return n1, f1, l1
        if isinstance(n, (rx.Star, rx.Plus)):
            n1, f1, l1 = walk(n.inner)
            follow.extend([(p, q) for p in l1 for q in f1])
            return isinstance(n, rx.Star) or n1, f1, l1
        raise TypeError(f"not a regex node: {n!r}")

    nullable, first, last = walk(node)
    # state 0 is the start; positions shift by one
    transitions = {(0, positions[p], p + 1) for p in first}
    transitions |= {(p + 1, positions[q], q + 1) for (p, q) in follow}
    finals = {p + 1 for p in last} | ({0} if nullable else set())
    return Nfa(alphabet, len(positions) + 1, frozenset([0]), frozenset(finals), frozenset(transitions))


def empty_language(alphabet: Alphabet) -> Nfa:
    return Nfa(alphabet, 1, frozenset([0]), frozenset(), frozenset())


def universal_language(alphabet: Alphabet) -> Nfa:
    trans = {(0, a, 0) for a in alphabet}
    return Nfa(alphabet, 1, frozenset([0]), frozenset([0]), frozenset(trans))


# -- boolean combinations -------------------------------------------------------

def _check_same_alphabet(lhs: Nfa, rhs: Nfa):
    if lhs.alphabet != rhs.alphabet:
        raise InputError("alphabet mismatch between automata")


def nfa_union(first: Nfa, *rest: Nfa) -> Nfa:
    """Disjoint union of one or more automata."""
    trans = set(first.transitions)
    initials, finals = set(first.initials), set(first.finals)
    off = first.state_count
    for n in rest:
        _check_same_alphabet(first, n)
        trans |= {(q + off, a, r + off) for (q, a, r) in n.transitions}
        initials |= {q + off for q in n.initials}
        finals |= {q + off for q in n.finals}
        off += n.state_count
    return Nfa(first.alphabet, off, frozenset(initials), frozenset(finals), frozenset(trans))


def nfa_intersection(lhs: Nfa, rhs: Nfa) -> Nfa:
    _check_same_alphabet(lhs, rhs)
    pairs: dict = {}
    order: list = []

    def pid(p):
        if p not in pairs:
            pairs[p] = len(order)
            order.append(p)
        return pairs[p]

    lstep, rstep = lhs.step_map(), rhs.step_map()
    work = [(q, r) for q in lhs.initials for r in rhs.initials]
    initials = {pid(p) for p in work}
    trans = set()
    seen = set(work)
    while work:
        (q, r) = work.pop()
        for a in lhs.alphabet:
            for q2 in lstep.get((q, a), ()):
                for r2 in rstep.get((r, a), ()):
                    trans.add((pid((q, r)), a, pid((q2, r2))))
                    if (q2, r2) not in seen:
                        seen.add((q2, r2))
                        work.append((q2, r2))
    finals = {i for p, i in pairs.items() if p[0] in lhs.finals and p[1] in rhs.finals}
    if not order:
        return empty_language(lhs.alphabet)
    return Nfa(lhs.alphabet, len(order), frozenset(initials), frozenset(finals), frozenset(trans))


def nfa_concat(lhs: Nfa, rhs: Nfa) -> Nfa:
    _check_same_alphabet(lhs, rhs)
    off = lhs.state_count
    trans = set(lhs.transitions) | {(q + off, a, r + off) for (q, a, r) in rhs.transitions}
    # bridge: from lhs finals, mimic the moves available from rhs initials
    for (q, a, r) in rhs.transitions:
        if q in rhs.initials:
            trans |= {(f, a, r + off) for f in lhs.finals}
    rhs_accepts_eps = bool(rhs.initials & rhs.finals)
    lhs_accepts_eps = bool(lhs.initials & lhs.finals)
    finals = {q + off for q in rhs.finals} | (set(lhs.finals) if rhs_accepts_eps else set())
    initials = set(lhs.initials) | ({q + off for q in rhs.initials} if lhs_accepts_eps else set())
    return Nfa(lhs.alphabet, lhs.state_count + rhs.state_count,
               frozenset(initials), frozenset(finals), frozenset(trans))


# -- determinization and friends ------------------------------------------------

@dataclass(frozen=True)
class Dfa:
    """Complete DFA; delta[q][i] indexes by alphabet position."""

    alphabet: Alphabet
    state_count: int
    initial: int
    finals: frozenset
    delta: tuple  # tuple of tuples, one row per state

    def accepts(self, word: str) -> bool:
        q = self.initial
        for a in word:
            q = self.delta[q][self.alphabet.index(a)]
        return q in self.finals

    def as_nfa(self) -> Nfa:
        trans = {(q, self.alphabet.symbols[i], row[i])
                 for q, row in enumerate(self.delta) for i in range(len(self.alphabet))}
        return Nfa(self.alphabet, self.state_count, frozenset([self.initial]),
                   frozenset(self.finals), frozenset(trans))


def explore(start, successors, cap: int):
    """Number the states reachable from `start` in BFS order.

    `successors(state)` lists a state's successors in a fixed order, one per
    letter.  Returns (states, rows): states[i] is state i, `start` being
    state 0, and rows[i] the tuple of the numbers of its successors.  A state
    is numbered on its first appearance in the rows, so every state j > 0
    first appears in a row i < j.  Returns None as soon as more than `cap`
    states are found.
    """
    ids = {start: 0}
    states = [start]
    rows = []
    for state in states:                   # states grows while it is read
        row = []
        for nxt in successors(state):
            j = ids.get(nxt)
            if j is None:
                if len(states) >= cap:
                    return None
                j = ids[nxt] = len(states)
                states.append(nxt)
            row.append(j)
        rows.append(tuple(row))
    return states, rows


def _bits(states) -> int:
    """The bitmask of a set of states."""
    mask = 0
    for q in states:
        mask |= 1 << q
    return mask


def _positions(mask: int) -> list:
    """The positions of the set bits of a mask, lowest first: the inverse
    of `_bits`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _subset_successors(n: Nfa):
    """The step of n's subset construction: a function from a bitmask of
    states to the list of its successors, one per letter in alphabet
    order."""
    succ = {a: [0] * n.state_count for a in n.alphabet.symbols}
    for (q, a, r) in n.transitions:
        succ[a][q] |= 1 << r
    tables = [succ[a] for a in n.alphabet.symbols]

    def successors(subset):
        members = _positions(subset)
        row = []
        for table in tables:
            nxt = 0
            for q in members:
                nxt |= table[q]
            row.append(nxt)
        return row

    return successors


def determinize(n: Nfa, caps: Caps = DEFAULT_CAPS) -> Dfa:
    """Subset construction, completed (the empty subset is the sink).

    Subsets are bitmasks of NFA states, numbered in order of discovery.
    """
    found = explore(_bits(n.initials), _subset_successors(n), caps.max_det_states)
    if found is None:
        raise ResourceCapError("max_det_states", caps.max_det_states,
                               f"subset construction on {n.state_count}-state NFA")
    order, rows = found
    final_mask = _bits(n.finals)
    finals = frozenset(i for i, subset in enumerate(order) if subset & final_mask)
    return Dfa(n.alphabet, len(order), 0, finals, tuple(rows))


def minimize(n: Nfa, caps: Caps = DEFAULT_CAPS) -> Dfa:
    """Minimal complete DFA with canonical (BFS) state numbering."""
    dfa = determinize(n, caps)
    delta, finals = minimize_labelled(dfa.delta, dfa.initial,
                                      [q in dfa.finals for q in range(dfa.state_count)])
    return Dfa(dfa.alphabet, len(delta), 0,
               frozenset(q for q, final in enumerate(finals) if final), delta)


def minimize_labelled(delta: tuple, initial: int, labels: list) -> tuple:
    """Minimal form of a complete DFA whose states carry labels (a Moore
    machine; a plain DFA labels its states final or not).

    Moore partition refinement from the partition by label: each round, a
    state's signature is its block and the blocks of its successors, one
    column per letter, gathered by an `operator.itemgetter` of that letter's
    targets.  Then the blocks reachable from the initial state, numbered by
    BFS in letter order.  Returns (delta, labels) of the result, whose
    initial state is 0.
    """
    if len(delta) == 1:                    # itemgetter of one index returns no tuple
        return (tuple(delta[0]),), [labels[0]]
    ids: dict = {}
    block = [ids.setdefault(x, len(ids)) for x in labels]
    nblocks = len(ids)
    gathers = [itemgetter(*col) for col in zip(*delta)]
    while True:
        ids = {}
        newblock = [ids.setdefault(sig, len(ids))
                    for sig in zip(block, *[gather(block) for gather in gathers])]
        if len(ids) == nblocks:
            break
        block = newblock
        nblocks = len(ids)
    # the partition is stable: ids holds one signature per block, and the
    # states of one block share their label; collapse and renumber by BFS
    # from the initial block
    sig_of = {sig[0]: sig for sig in ids}
    label_of = dict(zip(block, labels))
    num = {block[initial]: 0}
    order = [block[initial]]
    rows = []
    for b in order:                        # order grows while it is read
        row = []
        for c in sig_of[b][1:]:
            j = num.get(c)
            if j is None:
                j = num[c] = len(order)
                order.append(c)
            row.append(j)
        rows.append(tuple(row))
    return tuple(rows), [label_of[b] for b in order]


def nfa_complement(n: Nfa, caps: Caps = DEFAULT_CAPS) -> Nfa:
    dfa = determinize(n, caps)
    flipped = Dfa(dfa.alphabet, dfa.state_count, dfa.initial,
                  frozenset(range(dfa.state_count)) - dfa.finals, dfa.delta)
    return flipped.as_nfa()


# -- decision procedures ---------------------------------------------------------

def is_empty(first: Nfa, *rest: Nfa) -> bool:
    """Whether the automata's languages have an empty intersection: a walk
    over the tuples of states that one word leads to, which stops at the
    first tuple of finals, and builds no product automaton."""
    nfas = (first, *rest)
    for n in rest:
        _check_same_alphabet(first, n)
    steps = [n.step_map() for n in nfas]
    work = list(itertools.product(*(n.initials for n in nfas)))
    seen = set(work)
    while work:
        states = work.pop()
        if all(q in n.finals for q, n in zip(states, nfas)):
            return False
        for a in first.alphabet:
            for nxt in itertools.product(*(step.get((q, a), ()) for q, step in zip(states, steps))):
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
    return True


def includes(lhs: Nfa, rhs: Nfa, caps: Caps = DEFAULT_CAPS) -> bool:
    """L(lhs) ⊆ L(rhs), on the fly (De Wulf, Doyen, Henzinger and Raskin,
    CAV 2006): the subset construction of rhs is explored only along the
    words of lhs, as pairs (state of lhs, subset of rhs), and the search
    stops at the first pair that lhs accepts and rhs does not.  More than
    `max_det_states` distinct subsets of rhs, which the full subset
    construction would meet too, raise a ResourceCapError on
    `max_det_states`."""
    _check_same_alphabet(lhs, rhs)
    lstep = lhs.step_map()
    successors = _subset_successors(rhs)
    rfinal = _bits(rhs.finals)
    letters = list(enumerate(lhs.alphabet.symbols))
    rows: dict = {}                        # subset of rhs -> its successors
    work = [(q, _bits(rhs.initials)) for q in lhs.initials]
    seen = set(work)
    while work:
        q, subset = work.pop()
        if q in lhs.finals and not subset & rfinal:
            return False
        row = rows.get(subset)
        if row is None:
            if len(rows) >= caps.max_det_states:
                raise ResourceCapError("max_det_states", caps.max_det_states,
                                       f"inclusion in a {rhs.state_count}-state NFA")
            row = rows[subset] = successors(subset)
        for k, a in letters:
            for r in lstep.get((q, a), ()):
                pair = (r, row[k])
                if pair not in seen:
                    seen.add(pair)
                    work.append(pair)
    return True


def equivalent(lhs: Nfa, rhs: Nfa) -> bool:
    return includes(lhs, rhs) and includes(rhs, lhs)


# -- transition monoid -----------------------------------------------------------

@dataclass(frozen=True)
class MonoidMorphism:
    """Finite monoid with a word morphism given by letter images.

    `mul[i][j]` is the product of elements i and j; `image(w)` multiplies the
    letter images left to right.
    """

    size: int
    identity: int
    mul: tuple  # tuple of tuples
    letter_image: dict

    def __post_init__(self):
        if type(self.mul) is not tuple or any(type(row) is not tuple for row in self.mul):
            object.__setattr__(self, "mul", tuple(tuple(row) for row in self.mul))
        object.__setattr__(self, "letter_image", dict(self.letter_image))

    def image(self, word: str) -> int:
        m = self.identity
        for a in word:
            m = self.mul[m][self.letter_image[a]]
        return m


def transition_monoid(n: Nfa, caps: Caps = DEFAULT_CAPS):
    """Transition monoid of the minimal complete DFA of L(n).

    Returns (morphism, accepting) with L(n) = image⁻¹(accepting).

    Elements are the state transformations of words, numbered in BFS order
    from the identity (element 0), letters in alphabet order.  Element j > 0
    is first reached as parent[j]·letter[j] with parent[j] < j, and the
    enumeration records the right Cayley graph, right[k][i] = i·(letter k).
    The table is then filled column by column (Froidure and Pin, 1997):

        mul[x][j] = right[letter[j]][mul[x][parent[j]]]

    since x·j = (x·parent[j])·letter[j].  In BFS order column parent[j] is
    complete before column j, so the fill is |M|² integer lookups and no
    composition of transformations.
    """
    dfa = minimize(n, caps)
    built = _dfa_monoid(dfa, caps.max_monoid)
    if built is None:
        raise ResourceCapError("max_monoid", caps.max_monoid,
                               f"transition monoid of {dfa.state_count}-state minimal DFA")
    morphism, reached = built
    return morphism, frozenset(i for i, q in enumerate(reached) if q in dfa.finals)


def _dfa_monoid(dfa: Dfa, bound: int):
    """(morphism, reached) for `transition_monoid` of a complete DFA that is
    already minimal: element i leads the initial state to reached[i], so
    finals F give the language image⁻¹{i : reached[i] ∈ F}.  None as soon as
    the enumeration finds more than `bound` elements; the table is filled
    only for a monoid within the bound."""
    if bound < 1:
        return None
    # the transformation of letter k, as a lookup; t·k applies t, then k
    letter_tf = [tuple(row[k] for row in dfa.delta).__getitem__
                 for k in range(len(dfa.alphabet))]
    found = explore(tuple(range(dfa.state_count)),
                    lambda t: [tuple(map(tf, t)) for tf in letter_tf], bound)
    if found is None:
        return None
    order, rows = found
    size = len(order)
    right = list(zip(*rows))
    flat = list(itertools.chain.from_iterable(rows))
    cols = [range(size)]
    p = -1
    for j in range(1, size):
        # j first appears in row parent[j], column letter[j], after the
        # first appearance of j - 1
        p = flat.index(j, p + 1)
        parent, letter = divmod(p, len(right))
        step = right[letter]
        cols.append([step[v] for v in cols[parent]])
    letter_image = {a: right[k][0] for k, a in enumerate(dfa.alphabet.symbols)}
    morphism = MonoidMorphism(size, 0, tuple(zip(*cols)), letter_image)
    return morphism, tuple(t[dfa.initial] for t in order)


# -- special languages ------------------------------------------------------------

def upward_closure(n: Nfa) -> Nfa:
    """Closure under scattered superwords: self-loop on every symbol
    everywhere."""
    trans = set(n.transitions)
    for q in range(n.state_count):
        for a in n.alphabet:
            trans.add((q, a, q))
    return Nfa(n.alphabet, n.state_count, n.initials, n.finals, frozenset(trans))


def _checked_letters(alphabet: Alphabet, subset: Iterable[str]) -> list:
    """The letters of a sub-alphabet, sorted, each checked to be in the
    alphabet."""
    syms = sorted(set(subset))
    for s in syms:
        if s not in alphabet:
            raise InputError(f"symbol {s!r} not in alphabet")
    return syms


def alphabet_star(alphabet: Alphabet, subset: Iterable[str]) -> Nfa:
    """B* for B a sub-alphabet."""
    trans = {(0, a, 0) for a in _checked_letters(alphabet, subset)}
    return Nfa(alphabet, 1, frozenset([0]), frozenset([0]), frozenset(trans))


def alphabet_exact(alphabet: Alphabet, subset: Iterable[str]) -> Nfa:
    """Words whose set of letters is exactly B (the atoms of the
    alphabet-testable Boolean algebra).

    The state is the set of letters of B read so far, numbered in BFS
    order, so this is the trimmed minimal DFA of the language: distinct
    sets miss different letters."""
    syms = _checked_letters(alphabet, subset)
    k = len(syms)
    _, rows = explore(0, lambda seen: [seen | 1 << i for i in range(k)], 1 << k)
    trans = {(q, a, r) for q, row in enumerate(rows) for a, r in zip(syms, row)}
    return Nfa(alphabet, 1 << k, frozenset([0]), frozenset([(1 << k) - 1]), frozenset(trans))


# -- NFA <-> JSON and NFA -> regex -------------------------------------------------

def _json_int(x) -> int:
    """A JSON integer as it is: a float, a string or a Boolean is refused,
    not converted."""
    if type(x) is not int:
        raise InputError(f"bad NFA JSON: {x!r} is not an integer")
    return x


def nfa_from_json(doc: dict) -> Nfa:
    """The NFA of its JSON object; the state count and every state id are
    JSON integers."""
    try:
        alphabet = Alphabet(doc["alphabet"])
        return Nfa(alphabet, _json_int(doc["states"]),
                   frozenset(_json_int(q) for q in doc["initials"]),
                   frozenset(_json_int(q) for q in doc["finals"]),
                   frozenset((_json_int(q), a, _json_int(r)) for (q, a, r) in doc["transitions"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad NFA JSON: {exc}") from exc


def nfa_to_regex(n: Nfa) -> Regex:
    """State elimination, the state of least weight first (Delgado and
    Morais, CIAA 2004).  The result is meant for serializing synthesized
    covers, not for human consumption.

    Eliminating a state s with i incoming and o outgoing edges, loops
    aside, writes each incoming edge o times, each outgoing edge i times and
    the loop i·o times where each was written once, so it lengthens the
    text by the weight

        Σ size(in)·(o−1) + Σ size(out)·(i−1) + size(loop)·(i·o−1).

    Ties go to the lower state number.  The size of an edge is the length
    of its text; each edge keeps its size next to its regex, so a weight is
    a sum and never a render.  Edges are read in sorted order, so the text
    does not depend on the hash seed."""
    # generalized automaton with fresh initial/final, edges labeled by
    # (regex, text length); succ/pred list the non-loop edges of each state
    # in the order of `edges`
    start, end = n.state_count, n.state_count + 1
    edges: dict = {}
    succ: dict = {q: {} for q in range(n.state_count + 2)}
    pred: dict = {q: {} for q in range(n.state_count + 2)}

    def add(q, r, e: Regex, size: int):
        cur = edges.get((q, r))
        if cur is None:
            edges[(q, r)] = (e, size)
            if q != r:
                succ[q][r] = None
                pred[r][q] = None
        elif cur[0] != e:
            edges[(q, r)] = (rx.Union(cur[0], e), cur[1] + 1 + size)

    def operand(e: Regex, size: int, ctx: int) -> int:
        """The length of e's text written as an operand at precedence ctx."""
        return size + 2 if rx.precedence(e) < ctx else size

    def concat(x, y):
        """(regex, size) of the concatenation of two nonempty edges."""
        if isinstance(x[0], rx.Epsilon):
            return y
        if isinstance(y[0], rx.Epsilon):
            return x
        return rx.Concat(x[0], y[0]), operand(*x, 1) + operand(*y, 1)

    def weight(s) -> int:
        ins, outs = pred[s], succ[s]
        w = (sum(edges[q, s][1] for q in ins) * (len(outs) - 1)
             + sum(edges[s, r][1] for r in outs) * (len(ins) - 1))
        loop = edges.get((s, s))
        return w + loop[1] * (len(ins) * len(outs) - 1) if loop else w

    for (q, a, r) in sorted(n.transitions):
        add(q, r, rx.Letter(a), 1)
    for q in sorted(n.initials):
        add(start, q, rx.EPSILON, 4)
    for q in sorted(n.finals):
        add(q, end, rx.EPSILON, 4)

    # a weight depends only on a state's own edges, so after an elimination
    # only the neighbours of the eliminated state need a new one
    weights = {s: weight(s) for s in range(n.state_count)}
    while weights:
        s = min(weights, key=lambda x: (weights[x], x))
        del weights[s]
        loop = edges.pop((s, s), None)
        if loop is not None:
            e, size = loop
            if isinstance(e, (rx.Star, rx.Plus)):
                loop = (rx.Star(e.inner), size)
            else:
                loop = (rx.Star(e), operand(e, size, 3) + 1)
        incoming = [(q, edges.pop((q, s))) for q in pred[s]]
        outgoing = [(r, edges.pop((s, r))) for r in succ[s]]
        for (q, _) in incoming:
            del succ[q][s]
        for (r, _) in outgoing:
            del pred[r][s]
        for (q, ein) in incoming:
            if loop is not None:
                ein = concat(ein, loop)
            for (r, eout) in outgoing:
                add(q, r, *concat(ein, eout))
        for x, _ in incoming + outgoing:
            if x in weights:
                weights[x] = weight(x)
    return edges[start, end][0] if (start, end) in edges else rx.EMPTY
