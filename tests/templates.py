"""Template witnesses for piecewise-testable covers.

A template witness assigns every word a short unambiguous template whose
language contains it and is k-piecewise testable for small k.  The tests
check the length bound, the unambiguity and the membership of each witness.
"""

from __future__ import annotations

from regcov import rx
from regcov.fa import Alphabet
from regcov.rx import Regex

from helpers import concat, exact_alphabet_regex, star, union_all


def concat_all(parts) -> Regex:
    out: Regex = rx.EPSILON
    for p in parts:
        out = concat(out, p)
    return out


# A unit is either a single letter (str) or a triple (b, B, c) with B a
# frozenset of symbols and b, c in B.  A template is a tuple of units.

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
            bstar = star(union_all(rx.Letter(x) for x in sorted(bset)))
            exact = exact_alphabet_regex(alphabet, bset)
            blocks = concat_all([exact] * n)
            parts.append(concat_all([bstar, rx.Letter(b), blocks, rx.Letter(c), bstar]))
    return concat_all(parts) if parts else rx.EPSILON


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


def bsigma1_template_witness(word: str, n: int, alphabet: Alphabet):
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
