"""Reference rating-map constructions, kept for comparison.

`reference_extension` is the construction choice that builds every
candidate in full: the minimal-DFA and NFA relation widths and the size of
the whole transition monoid, narrowest first, ties going to the DFA, then
the monoid, then the NFA.  `joint_star_exact` closes the (word image,
alphabet mask) pairs over the whole packed product, once per sub-alphabet.
The library bounds the monoid enumeration by the widths it has to beat,
closes the pairs of each monoid part and solves each relation part in
closed form; tests check that both give the same maps and the same images.
"""

from __future__ import annotations

from regcov import (DEFAULT_CAPS, ResourceCapError, SaturationCapError, minimize,
                    rm_from_morphism, rm_from_nfa, transition_monoid)


def reference_extension(nfa, caps=DEFAULT_CAPS):
    """(kind, extension) of the narrowest construction for one language."""
    dfa = minimize(nfa, caps)
    candidates = [(dfa.state_count ** 2, 0, "dfa"), (nfa.state_count ** 2, 2, "nfa")]
    try:
        alpha, accepting = transition_monoid(nfa, caps)
        candidates.append((alpha.size, 1, "monoid"))
    except ResourceCapError as exc:
        if exc.cap_name != "max_monoid":
            raise
    _, _, kind = min(candidates)
    if kind == "dfa":
        return kind, rm_from_nfa(dfa.as_nfa())
    if kind == "nfa":
        return kind, rm_from_nfa(nfa)
    return kind, rm_from_morphism(alpha, accepting)


def joint_star_exact(rho, subset_mask: int, caps=DEFAULT_CAPS):
    """(image of B*, image of the words with alphabet exactly B), from the
    (word image, alphabet mask) pairs reachable over B in rho's semiring."""
    sr = rho.semiring
    gens = [(img, 1 << k) for k, img in enumerate(rho.letter_image) if subset_mask >> k & 1]
    seen = {(sr.one, 0)}
    work = [(sr.one, 0)]
    while work:
        elem, mask = work.pop()
        for gelem, gmask in gens:
            pair = (sr.mul(elem, gelem), mask | gmask)
            if pair not in seen:
                if len(seen) >= caps.max_elements:
                    raise SaturationCapError(caps.max_elements, "word-image closure")
                seen.add(pair)
                work.append(pair)
    star = sr.sum(e for e, _ in seen)
    exact = sr.sum(e for e, m in seen if m == subset_mask)
    return star, exact
