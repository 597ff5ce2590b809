"""Cover synthesis and verification.

Synthesizers emit covers whose imprint matches the saturated optimum:
alphabet atoms for AT, superword closures of the minimal words of the
target automaton, united per rating image, for level-1 existential
sentences, piece-equivalence classes, each refined only while its image
misses the goal, for their Boolean closure, and the recursive left-factor
construction for two-variable logic.  A cover is its list of pieces, each
the trimmed minimal DFA of its language.  The last three build a cover of
A* as one labelled DFA (`*_machine`) and cut pieces from it; given a
target, they cut only the pieces that meet it, found in one walk of the
target beside that DFA, and build nothing for the others.  A separator is
one union of pieces read off the same DFA (`separator`), with no piece
built.  `verify_cover` re-checks everything with automata only, against
the target its caller holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import (Caps, DEFAULT_CAPS, DeterminizationCapError, InputError, PieceCapError,
                     PtStateCapError, SaturationCapError)
from . import rx
from .fa import (Alphabet, Dfa, Nfa, explore, includes, is_empty, minimize, minimize_labelled,
                 nfa_complement, nfa_intersection, nfa_to_regex, nfa_union, upward_closure)
from .imprints import ImprintSet
from .pieces import are_unions_of_classes, pt_partition
from .rating import RatingMap, content_pairs, reach
from .saturation import ClassId, _item_mul


class Labelled(NamedTuple):
    """A complete DFA whose states carry labels (a Moore machine), every
    state reachable.  The piece of a label other than None is the set of
    words that lead to a state of that label."""

    alphabet: Alphabet
    delta: tuple
    initial: int
    labels: list


@dataclass
class Cover:
    """A list of pieces whose union includes the target, each the trimmed
    minimal DFA of its language, and the labelled DFA that separators are
    read off (`machine`).

    For at, bsigma1 and fo2 the machine is a cover of A*, and the pieces
    are cut from it.  A cover built by `*_machine` is not cut yet, and its
    pieces are None.  For sigma1 the machine is ↑L, the union of the
    pieces, with the one label True.

    Every synthesizer builds its pieces as trimmed minimal DFAs
    (`_label_pieces`, and the superword closures of its pieces for Σ1), so
    a piece's regex is state elimination on the automaton as it is: a union
    of piece classes can span thousands of classes and yet have a minimal
    DFA of a dozen states, and state elimination on a large automaton
    builds a regex nested too deeply to print."""

    class_id: ClassId
    pieces: Optional[list]
    k: Optional[int] = None          # piece bound, for piecewise covers
    # the partition DFA whose classes every piece is a union of (at, bsigma1)
    partition: Optional[Dfa] = None
    optimal: bool = True
    provenance: str = ""
    machine: Optional[Labelled] = None

    def to_json(self) -> dict:
        doc = {
            "class": self.class_id.value,
            "pieces": [{"regex": rx.regex_to_text(nfa_to_regex(p))} for p in self.pieces],
            "optimal": self.optimal,
        }
        if self.k is not None:
            doc["k"] = self.k
        if self.provenance:
            doc["provenance"] = self.provenance
        return doc


def _cut(machine_cover: Cover, target: Optional[Nfa]) -> Cover:
    """The cover with its pieces cut from its machine: all of them, or
    with a target only those that meet it."""
    machine = machine_cover.machine
    met = None if target is None else _met_labels(machine, target)
    return replace(machine_cover, pieces=_label_pieces(*machine, met),
                   provenance=machine_cover.provenance + _restricted(target))


# -- alphabet-testable covers ---------------------------------------------------------

def at_machine(alphabet: Alphabet, caps: Caps = DEFAULT_CAPS) -> Cover:
    """Atoms of the alphabet-testable algebra: the 1-piece partition, each
    class its own label."""
    pa, _ = pt_partition(1, alphabet, caps)
    return Cover(ClassId.AT, None, partition=pa, provenance="alphabet atoms",
                 machine=Labelled(alphabet, pa.delta, pa.initial, list(range(pa.state_count))))


def at_cover(alphabet: Alphabet, caps: Caps = DEFAULT_CAPS,
             target: Optional[Nfa] = None) -> Cover:
    """Atoms of the alphabet-testable algebra: the classes of the 1-piece
    partition; with a target, only the atoms that meet it."""
    return _cut(at_machine(alphabet, caps), target)


# -- superword-closure covers ---------------------------------------------------------

def sigma1_machine(target: Dfa, caps: Caps = DEFAULT_CAPS) -> Cover:
    """↑L, the union of the pieces of `sigma1_cover`, with no piece built,
    from a DFA of the target."""
    return Cover(ClassId.SIGMA1, None, machine=_up_machine(upward_closure(target.as_nfa()), caps))


def _up_machine(up: Nfa, caps: Caps) -> Labelled:
    """The minimal DFA of ↑L, its finals labelled True and the others None."""
    dfa = minimize(up, caps)
    return Labelled(dfa.alphabet, dfa.delta, dfa.initial,
                    [True if q in dfa.finals else None for q in range(dfa.state_count)])


def sigma1_cover(target: Dfa, rho: RatingMap, caps: Caps = DEFAULT_CAPS) -> Cover:
    """Cover of the target L by upward-closed pieces, one for each
    distinct image ρ(↑w) over the words w of min(L), the subword-minimal
    words of L: the piece of image r is the union of the superword closures
    ↑w of the minimal words w with ρ(↑w) = r.  The construction reads any
    DFA of L (the CLI passes the minimal one the Σ1 decision pointed by);
    the pieces are cut from min(L)'s minimal DFA and minimized, so they
    depend on L only, not on the automaton that spells it.

    The canonical Σ1 cover {↑w : w ∈ min(L)} is finite by Higman's lemma
    and optimal for every rating map: any Σ1 cover of L has a piece K that
    holds w, and K is closed under superwords, so ↑w ⊆ K and
    ρ(↑w) ≤ ρ(K).  Uniting its members of equal image keeps that: addition
    is idempotent, so the union of the members of image r has image r and
    the two covers have the same images; a union of upward-closed
    languages is upward closed.  Yet min(L) can be exponential in L's
    minimal DFA (min((a|b|c)^n(a|b|c)*) is all 3^n words of length n),
    while the pieces are no more than the distinct images.

    A word has a strict subword in L exactly when deleting one of its
    letters leaves a word of ↑L, so min(L) = L ∖ ins(↑L), for ins(K) the
    words x·a·y with x·y in K: two copies of ↑L's automaton joined by a
    move on any letter that keeps the state.  As ↑w = A*·w₁·A*⋯wₙ·A* and ρ
    is multiplicative, ρ(↑w) = ρ(A*)·g_{w₁}⋯g_{wₙ} with g_a = ρ(a)·ρ(A*).
    So min(L)'s minimal DFA, run beside that product, labels each minimal
    word by its image as it reads it: the walk is finite, as the DFA's live
    states read only the finitely many words of min(L) and their prefixes,
    and its pairs are bounded by `max_det_states`.  The words of one label
    form a finite language, and its superword closure is the piece.
    """
    alphabet = target.alphabet
    dfa = target.as_nfa()
    up = upward_closure(dfa)
    n = up.state_count
    inserted = Nfa(alphabet, 2 * n, up.initials, frozenset(q + n for q in up.finals),
                   up.transitions | {(q + n, a, r + n) for q, a, r in up.transitions}
                   | {(q, a, q + n) for q in range(n) for a in alphabet})
    least = minimize(nfa_intersection(dfa, nfa_complement(inserted, caps)), caps)
    # min(L) is finite, so its minimal DFA has a dead state; one sink stands
    # for every pair on it
    dead = next(q for q, row in enumerate(least.delta)
                if q not in least.finals and set(row) == {q})
    sr = rho.semiring
    star = rho.image_of_star((1 << len(alphabet)) - 1, caps)
    gens = [sr.mul(img, star) for img in rho.letter_image]

    def successors(pair):
        q, u = pair
        return [(r, sr.mul(u, gens[k])) if r != dead else (dead, sr.zero)
                for k, r in enumerate(least.delta[q])]

    found = explore((least.initial, star), successors, caps.max_det_states)
    if found is None:
        raise DeterminizationCapError("max_det_states", caps.max_det_states,
                                      "sigma1 cover synthesis")
    pairs, rows = found
    labels = [u if q in least.finals else None for q, u in pairs]
    pieces = [minimize(upward_closure(p), caps).as_nfa()
              for p in _label_pieces(alphabet, tuple(rows), 0, labels)]
    return Cover(ClassId.SIGMA1, pieces, machine=_up_machine(up, caps),
                 provenance="superword closures of the minimal words, one per image")


# -- piecewise-testable covers ---------------------------------------------------------

def bsigma1_cover(rho: RatingMap, goal: ImprintSet, caps: Caps = DEFAULT_CAPS,
                  target: Optional[Nfa] = None) -> Cover:
    """The pieces of `bsigma1_machine`; with a target, only those that
    meet the target."""
    return _cut(bsigma1_machine(rho, goal, caps), target)


def bsigma1_machine(rho: RatingMap, goal: ImprintSet, caps: Caps = DEFAULT_CAPS) -> Cover:
    """Universal cover by unions of piece-equivalence classes, each class
    refined only while its image lies outside the saturated goal.

    Level K = 0, 1, … is the partition deepened to K under the open classes
    of the levels before it (`pieces.pt_partition`).  Open_K is the set of
    its K-classes whose image is not in the goal; the deepening stops at
    the first level whose Open_K is empty.  The j-classes refine the
    (j−1)-classes, and the image of a subset lies below the image of the
    set, so a class whose image is in the (downward closed) goal never
    needs deepening, and the open classes are closed under truncation.

    The cover of the last level is optimal.  Each of its classes is one
    j-class, j ≤ K.  For j = K its image was checked at this level.  For
    j < K the class is below no open j-class, so it is not in Open_j; and
    level j, which deepened the same classes below depth j, held it as a
    j-class and found its image in the goal.  So every image lies in the
    goal, and the cover's imprint, the downward closure of its images, lies
    within the goal, the least imprint of any BΣ1 cover: the two are equal.
    A j-class is a union of K-classes, so each piece is K-piecewise
    testable.

    The levels stay small where the uniform partition does not: over three
    letters it has 5,312 classes at K = 3 and 334,202 at K = 4.  They stop
    at the depth bound `caps.max_k`, or before the first level past
    `max_pt_states`; the last cover built is then returned flagged
    non-optimal, with the stop named in its provenance.
    """
    open_classes: set = set()
    for k in range(caps.max_k + 1):
        try:
            pa, classes = pt_partition(k, rho.alphabet, caps, open_classes)
        except PtStateCapError as exc:
            if k == 0:                     # no level to fall back on
                raise
            return _partition_machine(pa, k - 1, images, optimal=False,
                                      stop=f" | k={k} passed {exc.cap_name}")
        images = _partition_images(pa, rho, caps)
        missed = {c for q, c in enumerate(classes) if c[0] == k and images[q] not in goal}
        if not missed:
            return _partition_machine(pa, k, images, optimal=True)
        open_classes |= missed
    return _partition_machine(pa, k, images, optimal=False)


def _partition_images(pa: Dfa, rho: RatingMap, caps: Caps) -> dict:
    """Rating image of every partition class, in one reachability pass."""
    sums: dict = {}
    for q, elem in reach(rho.semiring, pa.delta, pa.initial, rho.letter_image,
                         caps.max_elements, "partition-imprint"):
        sums[q] = sums.get(q, 0) | elem
    return sums


def _partition_machine(pa: Dfa, k: int, images: dict, optimal: bool, stop: str = "") -> Cover:
    """One piece per distinct image: the union of the partition's classes
    of that image, which is the partition DFA with those classes as finals.

    This covers as the per-class cover did, with the same imprint:

    - addition is idempotent, so the union of classes of image r has image
      r, the cover's images are the classes' images, and the cover is
      optimal exactly when the per-class one was;
    - every class is a j-class for some j ≤ k, so a union of classes is a
      union of k-classes, and k-piecewise testable;
    - classes with equal images meet the same languages, so separation and
      restriction to the target are unchanged.

    The machine is the partition labelled by images and minimized
    (`fa.minimize_labelled`), as `fo2_machine` labels its own: the
    languages are the same, and a few dozen states stand for thousands of
    classes in restriction, verification and rendering.
    """
    delta, labels = minimize_labelled(pa.delta, pa.initial,
                                      [images[q] for q in range(pa.state_count)])
    return Cover(ClassId.BSIGMA1, None, k=k, partition=pa, optimal=optimal,
                 provenance=f"piece-equivalence partition at k={k}{stop}",
                 machine=Labelled(pa.alphabet, delta, 0, labels))


def _restricted(target: Optional[Nfa]) -> str:
    return "" if target is None else " | restricted to target"


def _label_pieces(alphabet: Alphabet, delta: tuple, initial: int, labels: list,
                  met: Optional[set] = None) -> list:
    """One piece for each distinct label but None of a complete DFA's
    states, in order of first appearance: the words that lead to a state of
    that label.  Given the labels `met` that a target meets
    (`_met_labels`), only their pieces.

    Each is the trimmed minimal DFA of its language (`_trimmed`), built
    with no subset construction.  So is a union of pieces (`separator`):
    the words that lead to a state of one of its labels.

    A cover that the decision proves optimal for a coverable instance
    separates.  The rating map is built on the target L1 and the language
    L2 to avoid, and the image of each piece lies in the optimal imprint,
    which lacks {L1, L2}: no piece meets both.  So the pieces fall in three
    kinds, those that meet L1, those that meet L2 and those that meet
    neither, and U_target, the union of the first, lies inside U_miss, the
    union of the pieces that miss L2.  Then L1 ⊆ U_target ⊆ U_miss and
    U_miss misses L2: both separate, as does any union of pieces between
    them.  Each piece is in the class, and so is a union of pieces: the
    alphabet-testable, piecewise-testable and FO2 languages are Boolean
    algebras, and a union of upward-closed languages is upward closed.
    """
    by_label: dict = {}
    for q, x in enumerate(labels):
        if x is not None and (met is None or x in met):
            by_label.setdefault(x, []).append(q)
    preds = _preds(delta)
    return [_trimmed(alphabet, delta, initial, preds, states) for states in by_label.values()]


def _preds(delta: tuple) -> list:
    """The predecessors of every state of a DFA."""
    preds: list = [[] for _ in delta]
    for q, row in enumerate(delta):
        for r in set(row):
            preds[r].append(q)
    return preds


def _trimmed(alphabet: Alphabet, delta: tuple, initial: int, preds: list, finals: list) -> Nfa:
    """The trimmed minimal DFA of the words that lead to `finals` in a
    complete DFA whose states are all reachable, with no subset
    construction.

    The trimmed states are the ones that reach a final, found backwards
    from the finals; on them and a sink, the DFA with those finals is
    minimized by `fa.minimize_labelled`.  The minimal DFA has at most one
    dead state, which is not accepting and loops on every letter; the
    others are numbered in order.  With no final reachable the language is
    empty, and so is the automaton."""
    live = set(finals)
    work = list(finals)
    while work:
        for q in preds[work.pop()]:
            if q not in live:
                live.add(q)
                work.append(q)
    if initial not in live:
        return Nfa(alphabet, 0, frozenset(), frozenset(), frozenset())
    num = {q: i for i, q in enumerate(live)}
    sinks = (len(num),) * len(alphabet)
    rows = [tuple(map(num.get, delta[q], sinks)) for q in num]
    rows.append(sinks)
    accepting = frozenset(finals)
    rows, accepting = minimize_labelled(rows, num[initial], [q in accepting for q in num] + [False])
    kept = {q: i for i, q in enumerate(q for q, row in enumerate(rows)
                                       if accepting[q] or any(r != q for r in row))}
    trans = frozenset((kept[q], a, kept[r]) for q in kept
                      for a, r in zip(alphabet.symbols, rows[q]) if r in kept)
    return Nfa(alphabet, len(kept), frozenset([0]),
               frozenset(kept[q] for q in kept if accepting[q]), trans)


def _met_labels(machine: Labelled, lang: Nfa) -> set:
    """The labels but None of the states that the language's words lead
    to: one walk of the pairs (state of the language, state of the
    machine), which stops once every label is met."""
    alphabet, delta, initial, labels = machine
    count = len(set(labels) - {None})
    step, finals = lang.step_map(), lang.finals
    met: set = set()
    seen = {(p, initial) for p in lang.initials}
    work = list(seen)
    while work and len(met) < count:
        p, q = work.pop()
        if p in finals and labels[q] is not None:
            met.add(labels[q])
        for a, r in zip(alphabet.symbols, delta[q]):
            for p2 in step.get((p, a), ()):
                if (p2, r) not in seen:
                    seen.add((p2, r))
                    work.append((p2, r))
    return met


class Separator(NamedTuple):
    nfa: Nfa                       # the trimmed minimal DFA of the union
    union: str                     # "meets-target" or "misses-against"
    labels: frozenset              # the labels of the pieces it unites


def separator(cover: Cover, target: Nfa, against: Nfa) -> Separator:
    """The smaller of the two unions of the pieces of the cover's machine
    that `_label_pieces` shows to separate the target from `against`:
    U_target, the pieces that meet the target, and U_miss, the pieces that
    miss `against`.  Fewer states win, and a tie goes to U_target.

    Only the machine is read, never the cover's pieces, so the target is
    walked here; where the two unions unite the same labels, U_miss is
    U_target and is built once.
    """
    machine = cover.machine
    met = _met_labels(machine, target)
    missed = set(machine.labels) - {None} - _met_labels(machine, against)
    preds = _preds(machine.delta)
    best = None
    for union, kept in (("meets-target", frozenset(met)), ("misses-against", frozenset(missed))):
        if best is not None and kept == best.labels:
            continue
        nfa = _trimmed(machine.alphabet, machine.delta, machine.initial, preds,
                       [q for q, x in enumerate(machine.labels) if x in kept])
        if best is None or nfa.state_count < best.nfa.state_count:
            best = Separator(nfa, union, kept)
    return best


# -- two-variable covers -----------------------------------------------------------------

def fo2_cover(rho: RatingMap, saturated: ImprintSet, caps: Caps = DEFAULT_CAPS,
              target: Optional[Nfa] = None) -> Cover:
    """The pieces of `fo2_machine`; with a target, only those that meet
    the target.  The content-resolved image of each piece returned is
    re-evaluated on its automaton: its words must have one content B, and
    (B, ρ(K)) must lie in the saturated set."""
    cover = _cut(fo2_machine(rho, saturated, caps), target)
    for p in cover.pieces:
        if [item in saturated for item in rho.eval_nfa(p, caps, True).items()] != [True]:
            raise AssertionError("fo2 synthesis produced a piece outside the saturated set")
    return cover


def fo2_machine(rho: RatingMap, saturated: ImprintSet, caps: Caps = DEFAULT_CAPS) -> Cover:
    """Cover of A* whose pieces K all have (content, ρ(K)) in the saturated
    set of (content mask, rating element) pairs, with pairwise distinct
    labels; each piece is labelled by its content and image."""
    if not saturated.keyed:
        raise InputError("fo2 cover synthesis needs an alphabet-compatible imprint: "
                         "the fo2 one, keyed by content")
    state = _Fo2State(rho, saturated, caps)
    delta, labels = state.machine((1 << len(rho.alphabet)) - 1, state.one, state.one, True)
    return Cover(ClassId.FO2, None, provenance="left-factor recursion",
                 machine=Labelled(rho.alphabet, delta, 0, labels))


class _Fo2State:
    """Recursion state of the FO2 synthesis: one labelled DFA per node.

    A sub-alphabet B is its bitmask and a letter its alphabet position, as
    in `RatingMap`: nodes, machines, loop sets and peels are keyed by mask.
    Labels, contexts and loop sets are items of the saturated set: (content
    mask, rating element) pairs, multiplied as (B, r)·(C, s) = (B | C, r·s);
    a word's item is its content and its image.

    A node (B, left, right) stands for a partition of B* into pieces K, each
    with left·ρ(K)·right in the saturated set, and with pairwise distinct
    images in context left·ρ(K)·right.  The piece of a word w is fixed by
    its label λ(w) = left·ρ(K)·right, so the node is one DFA over A whose
    states carry labels (a Moore machine): the state a word leads to has
    the word's label, and the words outside B* lead to a sink labelled None.
    A piece is the set of words of one label.  Labels are computed by
    multiplication, never read off an automaton; the recursion evaluates no
    automaton but the one-state B* of each base case.

    Let s_b be the items of the nonempty languages over B* of one content
    that lie in the saturated set (`s_b`), and call s_b·ρ(b)·s_b the loop
    set of a letter b of B.  A left context t is saturated over B when each
    letter b of B has some p in its loop set with t·p = t, and a right
    context t when some p has p·t = t:

    - one set serves both sides.  On the left, b passes when some x, y in
      s_b give (t·x·ρ(b))·y = t; on the right, when y·(ρ(b)·(x·t)) = t.  By
      associativity both read the products x·ρ(b)·y;
    - so the letter at which a context is first not saturated is the same
      whether it is read off the loop sets or off these two conditions, and
      with it the nodes, their machines and their pieces;
    - the loop set lies inside s_b, so it is no larger than s_b, which
      `max_elements` bounds.  s_b holds ρ(b), a word image, and is closed
      under products: the saturated set is a multiplicative submonoid, and
      a product of two sums of word items of one content, each below a
      maximum, is a sum of word items of one content below the product of
      those maxima;
    - a p in the loop set of b has b in its content, so t·p = t or p·t = t
      puts b in the content of t: a context saturated over B holds B in
      its content.

    The recursion, on (|B|, right-index of left, left-index of right):

    - Base case, both contexts saturated: the one piece B*, labelled
      (cont(left) | cont(right), left·ρ(B*)·right).  Every word of B* has
      a content C ⊆ B, which the saturated contexts hold, so the words in
      context all have that one content.
    - Right peel, the first occurrence of a letter b.  Every word of B* is
      either in (B∖b)* or splits uniquely as h·b·k with h in (B∖b)*.  The
      factor node F = (B∖b, 1, 1) labels h, and the child node
      C = (B, left·λ_F(h)·ρ(b), right) labels k, already in the parent's
      context:

          λ(h·b·k) = λ_C(k),   λ(h) = left·λ_F(h)·right.

    - Left peel, the last occurrence of b: the mirror image, with
      w = k·b·h, C = (B, left, ρ(b)·λ_F(h)·right) and λ(k·b·h) = λ_C(k).

    By induction each label is left·ρ(K')·right, for K' the piece of the
    left-factor recursion with the pieces of equal image united at every
    node: ρ(K') is λ_F(h)·ρ(b)·ρ(K'_C) for a right peel.  A node's piece is
    the union of the pieces K' of one image in context.  Addition is
    idempotent and distributes over multiplication, so the union has that
    image in context, and a union of FO2 languages is FO2.  At the top node
    left = right = (∅, 1), so the labels there are the contents and images
    of the pieces; `fo2_cover` re-evaluates every piece it returns, content
    by content, and checks that it has one content and that its label lies
    in the saturated set; a separator read off the machine with no piece
    built is evaluated instead, content by content, against the sums of its
    labels of each content.

    A right-peel node reads left to right, and its machine is deterministic
    without a subset construction: the first b read is the peeled one, and
    F's state at that point holds λ_F(h), which fixes the child context
    left·λ_F(h)·ρ(b) and so the child.  The machine is a copy of F, with
    each label x read as left·x·right, and one copy of each distinct child
    as it is.  In F's states the letter b leads to the initial state of the
    copy of the child of that context; every other letter follows F, or C
    within a copy.  A left-peel node reads right to left, so that the last
    b is read first, and keys its copies by ρ(b)·λ_F(h)·right.  Either way
    the machine is minimized by Moore refinement from its labels
    (`fa.minimize_labelled`).  Words of equal image in context share a
    label even where their images differ, so a child is built no finer than
    its parent reads it.

    A factor or child needed in the other direction is converted once
    (`_flip`), by the label-vector form of Brzozowski's reversal: after the
    suffix u the converted machine is in the state L_u, the vector of
    labels λ(q·u) over the states q, and L_{a·u} = L_u ∘ δ_a, with label
    L_u[initial].  As every state of the source is reachable, distinct
    vectors are told apart by some word, so the converted machine is
    minimal as explored.

    Every node is built once per synthesis; `max_det_states` bounds the
    states of each node machine before minimization and of each conversion,
    `max_pieces` the distinct labels in context of the nodes (their
    pieces), summed, and `max_elements` the word items, closed once over
    the whole alphabet.
    """

    def __init__(self, rho: RatingMap, saturated: ImprintSet, caps: Caps):
        self.rho = rho
        self.sr = rho.semiring
        self.mul = _item_mul(self.sr)
        self.one = (0, self.sr.one)
        self.sat = saturated
        self.caps = caps
        self.count = 0
        self._words = None
        self._loop_sets: dict = {}
        # kept: without it an in-process pass over the synth corpus runs 6 % slower
        self._peels: dict = {}
        self._nodes: dict = {}
        self._machines: dict = {}

    def _word_images(self) -> list:
        """Items of all words: their (content, image) pairs, closed over the
        automaton of the contents (`rating.content_pairs`) once per
        synthesis.  The items of the words over B are those whose content
        lies in B."""
        if self._words is None:
            self._words = content_pairs(self.sr, self.rho.letter_image, self.caps.max_elements,
                                        "fo2 word images")
        return self._words

    def s_b(self, subset: int) -> frozenset:
        """Items of the nonempty languages over B* of one content that lie
        in the saturated set.

        Such an item is (C, a nonempty sum of the images of words of content
        C over B) (niceness), and it lies below a maximum (C, m) of the
        saturated set exactly when each of its terms does, w <= m being
        w | m == m.  So the set is the union, over the maxima (C, m) with
        C ⊆ B, of the sums of the images of content C below m, each paired
        with C.
        """
        sr = self.sr
        words = self._word_images()
        out: set = set()
        for c, m in self.sat.maximal_elements():
            if c & ~subset:
                continue
            below = [w for d, w in words if d == c and w | m == m]
            sums = set(below)
            work = list(below)
            while work:
                e = work.pop()
                for w in below:
                    x = sr.add(e, w)
                    if x not in sums:
                        if len(sums) >= self.caps.max_elements:
                            raise SaturationCapError(self.caps.max_elements,
                                                     "fo2-language-sums")
                        sums.add(x)
                        work.append(x)
            out.update((c, x) for x in sums)
        return frozenset(out)

    def _loops(self, subset: int) -> list:
        """(b, s_b·ρ(b)·s_b) for the position b of each letter of B, in
        alphabet order; built once per sub-alphabet."""
        if subset not in self._loop_sets:
            mul = self.mul
            sb = self.s_b(subset)
            self._loop_sets[subset] = [
                (b, frozenset(mul(xb, y) for xb in {mul(x, (1 << b, self.rho.letter_image[b]))
                                                    for x in sb} for y in sb))
                for b in range(len(self.rho.alphabet)) if subset >> b & 1]
        return self._loop_sets[subset]

    def peel_letter(self, t, subset: int, forward: bool) -> Optional[int]:
        """The position of the first letter of B at which the context t is
        not saturated: whose loop set holds no p with t·p = t when t is the
        left context (forward), or p·t = t when it is the right one.  None
        when t is saturated, so test it with `is not None`: position 0 is a
        letter.  Computed once per (t, B, side)."""
        key = (t, subset, forward)
        if key not in self._peels:
            mul = self.mul
            self._peels[key] = next(
                (b for b, loops in self._loops(subset)
                 if not any((mul(t, p) if forward else mul(p, t)) == t for p in loops)), None)
        return self._peels[key]

    def _bump(self, n: int):
        self.count += n
        if self.count > self.caps.max_pieces:
            raise PieceCapError("max_pieces", self.caps.max_pieces, "fo2 cover synthesis")

    def machine(self, subset: int, left, right, forward: bool):
        """The node's (delta, labels), reading left to right when forward,
        else right to left; built once, and converted once if need be."""
        key = (subset, left, right, forward)
        if key not in self._machines:
            natural, m = self.node(subset, left, right)
            self._machines[key] = m if natural in (None, forward) else self._flip(m)
        return self._machines[key]

    def node(self, subset: int, left, right):
        """(direction, (delta, labels)) of the node's minimal labelled DFA:
        True for a right-peel node, read left to right, False for a
        left-peel node, read right to left, None for a base case (B* reads
        the same both ways).

        The nodes over B that it needs are built from a work stack, each
        after its children, so the Python stack grows with the nesting of
        sub-alphabets, not with the number of contexts."""
        top = (subset, left, right)
        peeled: dict = {}                  # node on the stack -> (b, forward, F and children)
        stack = [top]
        while stack:
            key = stack[-1]
            if key in self._nodes:
                stack.pop()
            elif key not in peeled:
                b = self.peel_letter(key[1], subset, True)
                forward = b is not None
                if not forward:
                    b = self.peel_letter(key[2], subset, False)
                children = None if b is None else self._children(*key, b, forward)
                peeled[key] = (b, None if b is None else forward, children)
                if children:
                    stack.extend(reversed(children[1].values()))
            else:                          # its children are built
                stack.pop()
                b, forward, children = peeled.pop(key)
                m = self._base(*key) if b is None else self._peel(*key, b, forward, children)
                self._bump(len(set(m[1]) - {None}))
                self._nodes[key] = (forward, m)
        return self._nodes[top]

    def _base(self, subset: int, left, right):
        """B*, written down minimal: one state for its words, and a sink
        for the letters outside B unless B is the whole alphabet.  The
        saturated contexts hold B in their content."""
        img = self.mul(self.mul(left, (0, self.rho.image_of_star(subset, self.caps))), right)
        n = len(self.rho.alphabet)
        if subset == (1 << n) - 1:
            return ((0,) * n,), [img]
        return (tuple(0 if subset >> k & 1 else 1 for k in range(n)), (1,) * n), [img, None]

    def _children(self, subset: int, left, right, b: int, forward: bool):
        """F's machine, and the child nodes in order of appearance: the
        label x of a live state of F fixes the child context, left·x·ρ(b)
        for a right peel and ρ(b)·x·right for a left peel."""
        mul, bimg = self.mul, (1 << b, self.rho.letter_image[b])
        f = self.machine(subset & ~(1 << b), self.one, self.one, forward)
        return f, {x: (subset, mul(left, mul(x, bimg)), right) if forward
                   else (subset, left, mul(mul(bimg, x), right))
                   for x in f[1] if x is not None}

    def _peel(self, subset: int, left, right, b: int, forward: bool, f_and_children):
        """The minimal machine of a peel node whose children are built: a
        copy of F labelled in context, whose letter b leads to one copy of
        each distinct child, minimized."""
        mul = self.mul
        (f_delta, f_labels), children = f_and_children
        rows = [list(row) for row in f_delta]
        in_context = {x: mul(mul(left, x), right) for x in children}
        labels = [in_context.get(x) for x in f_labels]
        starts: dict = {}                  # child node -> its copy's initial state
        for s, x in enumerate(f_labels):
            if x is None:                  # the sink of F
                continue
            if children[x] not in starts:
                c_delta, c_labels = self.machine(*children[x], forward)
                off = starts[children[x]] = len(rows)
                if off + len(c_delta) > self.caps.max_det_states:
                    raise DeterminizationCapError(
                        "max_det_states", self.caps.max_det_states,
                        f"fo2 node machine over {self.rho.alphabet.from_mask(subset)}")
                rows += [[t + off for t in row] for row in c_delta]
                labels += c_labels
            rows[s][b] = starts[children[x]]
        return minimize_labelled(rows, 0, labels)

    def _flip(self, m):
        """The machine reading in the other direction (see the class
        docstring); labels are numbered by first appearance in the vectors,
        and a vector steps by one `operator.itemgetter` per letter."""
        delta, labels = m
        if len(delta) == 1:                # itemgetter of one index returns no tuple
            return delta, list(labels)
        ids: dict = {}
        start = tuple(ids.setdefault(x, len(ids)) for x in labels)
        names = list(ids)
        steps = [itemgetter(*col) for col in zip(*delta)]
        found = explore(start, lambda vec: [step(vec) for step in steps],
                        self.caps.max_det_states)
        if found is None:
            raise DeterminizationCapError("max_det_states", self.caps.max_det_states,
                                          f"reversing a {len(delta)}-state fo2 node machine")
        order, rows = found
        return tuple(rows), [names[vec[0]] for vec in order]


# -- assembly and verification --------------------------------------------------------------

def restrict_cover(cover: Cover, target: Nfa) -> Cover:
    """Keep the pieces meeting the target: turns a separating universal
    cover for {target} ∪ others into a cover of the target separating for
    the others.  The synthesizers cut this cover directly when given the
    target (`_label_pieces`); this is the reference the tests hold them to."""
    return replace(cover, pieces=[p for p in cover.pieces if not is_empty(p, target)],
                   provenance=cover.provenance + " | restricted to target")


@dataclass
class VerifyReport:
    covers_target: bool
    separating: bool
    piece_witnesses: list          # per piece: index of a missed language, or None
    class_ok: Optional[bool]       # None when only certified by construction
    class_note: str

    @property
    def ok(self) -> bool:
        return self.covers_target and self.separating and self.class_ok is not False


def verify_cover(cover: Cover, target: Nfa, against: list,
                 caps: Caps = DEFAULT_CAPS) -> VerifyReport:
    """Machine-check a cover: coverage, separation witnesses and the class
    discipline of each piece.  A separator is checked here too, as the
    one-piece cover of the target separating for the other language.

    The pieces of a sigma1 cover are checked closed under superwords.  The
    pieces of a cover that carries its partition (at, bsigma1) are checked
    unions of its classes, all in one walk of the partition that synthesis
    built (`pieces.are_unions_of_classes`).  Each class of a bsigma1
    partition is one j-piece-equivalence class with j ≤ k, a union of
    k-classes, so each piece is k-piecewise testable.  Any other cover's
    class is certified by construction only."""
    if not cover.pieces:
        covers_target = is_empty(target)
    else:   # one piece (a separator) is its own union, uncopied
        union = nfa_union(*cover.pieces) if len(cover.pieces) > 1 else cover.pieces[0]
        covers_target = includes(target, union, caps)
    witnesses = [next((i for i, lang in enumerate(against) if is_empty(p, lang)), None)
                 for p in cover.pieces]
    separating = None not in witnesses

    class_ok: Optional[bool] = None
    note = "class membership certified by construction, not machine-checked"
    if cover.class_id is ClassId.SIGMA1:
        class_ok = all(includes(upward_closure(p), p, caps) for p in cover.pieces)
        note = "each piece closed under superwords"
    elif cover.partition is not None:
        class_ok = are_unions_of_classes(cover.pieces, cover.partition, caps)
        note = ("each piece a union of alphabet atoms" if cover.class_id is ClassId.AT
                else f"each piece a union of j-piece-equivalence classes, j <= {cover.k}")

    return VerifyReport(covers_target, separating, witnesses, class_ok, note)
