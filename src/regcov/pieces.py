"""Pieces (scattered subwords), the piece-equivalence partition and
template witnesses for piecewise-testable covers.

Two words are k-equivalent when they contain the same pieces of length at
most k; the partition DFA tracks the reachable piece sets.  Template
witnesses assign every word a short unambiguous template whose language
contains it and is k-piecewise testable for small k.
"""

from __future__ import annotations

from .errors import Caps, DEFAULT_CAPS, PtStateCapError
from .fa import Alphabet, Dfa, Nfa, determinize, exact_alphabet_regex
from . import rx
from .rx import Regex


def is_piece(u: str, v: str) -> bool:
    """True iff u is a scattered subword of v."""
    it = iter(v)
    return all(c in it for c in u)


def pieces_upto(word: str, k: int) -> frozenset:
    """All pieces of the word of length at most k."""
    out = {""}
    for a in word:
        out |= {u + a for u in out if len(u) < k}
    return frozenset(out)


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
    ids = {1: 0}   # bit 0 is the empty piece
    order = [1]
    rows = []
    i = 0
    while i < len(order):
        cur = order[i]
        row = []
        for per_byte in tables:
            nxt = cur
            for lo, mask, table in per_byte:
                nxt |= table[cur >> lo & mask]
            if nxt not in ids:
                if len(order) >= caps.max_pt_states:
                    raise PtStateCapError("max_pt_states", caps.max_pt_states,
                                          f"piece automaton at k={k}")
                ids[nxt] = len(order)
                order.append(nxt)
            row.append(ids[nxt])
        rows.append(tuple(row))
        i += 1
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


# -- templates ----------------------------------------------------------------------

# A unit is either a single letter (str) or a triple (b, B, c) with B a
# frozenset of symbols and b, c in B.  A template is a tuple of units.

Unit = object
Template = tuple


def unit_is_letter(t) -> bool:
    return isinstance(t, str)


def template_unambiguous(template: Template) -> bool:
    """Adjacent units must not blur into each other: letters never belong to
    a neighboring triple's alphabet, adjacent triples exclude each other's
    marker letters."""
    for t1, t2 in zip(template, template[1:]):
        if unit_is_letter(t1) and unit_is_letter(t2):
            continue
        if unit_is_letter(t1):
            (_, b2, _) = t2
            if t1 in b2:
                return False
        elif unit_is_letter(t2):
            (_, b1, _) = t1
            if t2 in b1:
                return False
        else:
            (_, b1, c1) = t1
            (b2, bb2, _) = t2
            if c1 in bb2 or b2 in b1:
                return False
    return True


def template_regex(template: Template, n: int, alphabet: Alphabet) -> Regex:
    """Regex of the template language: letters stand for themselves, a triple
    (b, B, c) for B* b (exactly-B)^n c B*."""
    parts = []
    for t in template:
        if unit_is_letter(t):
            parts.append(rx.Letter(t))
        else:
            (b, bset, c) = t
            bstar = rx.star(rx.union_all(rx.Letter(x) for x in sorted(bset)))
            exact = exact_alphabet_regex(alphabet, bset)
            blocks = rx.concat_all([exact] * n)
            parts.append(rx.concat_all([bstar, rx.Letter(b), blocks, rx.Letter(c), bstar]))
    return rx.concat_all(parts) if parts else rx.EPSILON


def _alph(word: str) -> frozenset:
    return frozenset(word)


def _reduce_factors(factors: list, units: list, n: int):
    """Shrink a (factors, units) decomposition below the length bound.

    Invariant: every factor lies in the core language of its unit (the letter
    itself, or (exactly-B)^(n+2) for a triple over B).
    """
    alphabet = _alph("".join(factors))
    bound = (n + 2) ** len(alphabet)
    while len(units) >= bound:
        window = (n + 2) ** (len(alphabet) - 1)
        hit = None
        for i in range(len(units) - window + 1):
            sub = "".join(factors[i:i + window])
            if _alph(sub) < alphabet:
                hit = (i, sub)
                break
        if hit is None:
            # every window is full-alphabet: the whole word splits into n+2
            # full-alphabet blocks
            blocks = []
            for j in range(n + 2):
                lo = j * window
                hi = (j + 1) * window if j < n + 1 else len(units)
                blocks.append("".join(factors[lo:hi]))
            word = "".join(blocks)
            unit = (word[0], alphabet, word[-1])
            factors[:] = [word]
            units[:] = [unit]
            return
        i, sub = hit
        sub_factors, sub_units = _template_core(sub, n)
        factors[i:i + window] = sub_factors
        units[i:i + window] = sub_units


def _template_core(word: str, n: int):
    """(factors, units) with word = concat(factors), each factor in its
    unit's core language, and len(units) <= (n+2)^{|alph(word)|} - 1."""
    if word == "":
        return [], []
    factors = list(word)
    units = list(word)
    _reduce_factors(factors, units, n)
    return factors, units


def _merge_adjacent(factors: list, units: list):
    """Absorb letter units into adjacent triples over the same alphabet and
    collapse nested-alphabet triple pairs; afterwards adjacent triples have
    incomparable alphabets and letters never sit inside a neighbor triple's
    alphabet."""
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(units):
            t1, t2 = units[i], units[i + 1]
            if unit_is_letter(t1) and not unit_is_letter(t2) and t1 in t2[1]:
                # prefixing a letter of B onto a full-alphabet block keeps it full
                factors[i:i + 2] = [factors[i] + factors[i + 1]]
                units[i:i + 2] = [t2]
                changed = True
                continue
            if unit_is_letter(t2) and not unit_is_letter(t1) and t2 in t1[1]:
                factors[i:i + 2] = [factors[i] + factors[i + 1]]
                units[i:i + 2] = [t1]
                changed = True
                continue
            if not unit_is_letter(t1) and not unit_is_letter(t2):
                b1, b2 = t1[1], t2[1]
                if b1 <= b2:
                    factors[i:i + 2] = [factors[i] + factors[i + 1]]
                    units[i:i + 2] = [t2]
                    changed = True
                    continue
                if b2 <= b1:
                    factors[i:i + 2] = [factors[i] + factors[i + 1]]
                    units[i:i + 2] = [t1]
                    changed = True
                    continue
            i += 1


def _choose_markers(units: list) -> Template:
    """Fix the marker letters of each triple so the template is unambiguous.

    The core language of a triple is independent of its markers, and after
    merging, adjacent triples have incomparable alphabets, so markers can
    always be drawn from the set differences.
    """
    out = []
    for i, t in enumerate(units):
        if unit_is_letter(t):
            out.append(t)
            continue
        (_, bset, _) = t
        left = units[i - 1] if i > 0 else None
        right = units[i + 1] if i + 1 < len(units) else None
        bcands = sorted(bset)
        ccands = sorted(bset)
        if left is not None and not unit_is_letter(left):
            avoid = left[1]
            bcands = sorted(bset - avoid) or bcands
        if right is not None and not unit_is_letter(right):
            avoid = right[1]
            ccands = sorted(bset - avoid) or ccands
        out.append((bcands[0], bset, ccands[0]))
    return tuple(out)


def bsigma1_template_witness(word: str, n: int, alphabet: Alphabet,
                             caps: Caps = DEFAULT_CAPS):
    """Unambiguous template T with `word` in its language, of length at most
    (n+2)^{|alph(word)|} - 1.  Returns (template, regex of the language)."""
    if n < 1:
        raise ValueError("block count n must be >= 1")
    for a in word:
        if a not in alphabet:
            raise ValueError(f"word symbol {a!r} not in alphabet")
    factors, units = _template_core(word, n)
    _merge_adjacent(factors, units)
    template = _choose_markers(units)
    assert template_unambiguous(template)
    return template, template_regex(template, n, alphabet)
