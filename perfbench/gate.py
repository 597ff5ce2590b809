"""Correctness gate: every decided verdict is checked against independent
oracles, and every emitted cover or separator is re-checked here.

The oracles never touch semirings or saturation: the algebraic membership
characterizations of tests/oracles.py (loaded read-only), the
superword-closure oracle for sigma1, the atom oracle for at, the
shared-word check (a word in the target and in every against language makes
any instance non-coverable), and the class lattice across the six classes
of one instance.  Automata operations come from regcov.fa.
"""

from __future__ import annotations

import json

SYNTHESIZABLE = ("at", "sigma1", "bsigma1", "fo2")
# (smaller, larger): coverable in the smaller class implies coverable in the larger
LATTICE = (("at", "bsigma1"), ("bsigma1", "fo"), ("at", "fo2"), ("fo2", "fo"),
           ("sigma1", "bsigma1"), ("sigma1", "sigma2"), ("sigma2", "fo"))


class Gate:
    def __init__(self, regcov, oracles):
        self.rc = regcov
        self.oracles = oracles
        self.member_of = {
            "at": oracles.member_at, "sigma1": oracles.member_sigma1,
            "bsigma1": oracles.member_bsigma1, "sigma2": oracles.member_sigma2,
            "fo2": oracles.member_fo2, "fo": oracles.member_fo,
        }
        self.failures: list = []
        self._langs: dict = {}
        self._members: dict = {}

    # -- languages ---------------------------------------------------------------------

    def lang(self, spec, alphabet: str):
        key = (alphabet, spec if isinstance(spec, str) else json.dumps(spec, sort_keys=True))
        if key not in self._langs:
            rc = self.rc
            if isinstance(spec, str):
                nfa = rc.regex_to_nfa(rc.regex_parse(spec, alphabet), rc.Alphabet(alphabet))
            else:
                nfa = rc.nfa_from_json(spec)
            self._langs[key] = (nfa, key)
        return self._langs[key]

    def member(self, cls: str, lang) -> bool:
        nfa, key = lang
        if (cls, key) not in self._members:
            self._members[(cls, key)] = self.member_of[cls](nfa)
        return self._members[(cls, key)]

    def _meets_all(self, langs) -> bool:
        acc = langs[0]
        for other in langs[1:]:
            acc = self.rc.nfa_intersection(acc, other)
        return not self.rc.is_empty(acc)

    def _at_coverable(self, alphabet: str, target, against) -> bool:
        """Atom oracle: every alphabet atom meeting the target misses some
        against language."""
        rc = self.rc
        ab = rc.Alphabet(alphabet)
        for mask in range(1 << len(ab)):
            atom = rc.alphabet_exact(ab, ab.from_mask(mask))
            if rc.is_empty(rc.nfa_intersection(atom, target)):
                continue
            if all(not rc.is_empty(rc.nfa_intersection(atom, a)) for a in against):
                return False
        return True

    # -- per query ---------------------------------------------------------------------

    def fail(self, q, reason: str):
        self.failures.append({"qid": q.qid, "argv": q.argv, "reason": reason,
                              "target": q.target, "against": q.against})

    def check(self, q, verdict: dict) -> dict:
        """Check one decided verdict; returns what the metrics need."""
        rc = self.rc
        coverable = verdict["coverable"]
        target = self.lang(q.target, q.alphabet)
        if q.command == "member":
            against = [rc.nfa_complement(target[0])]
        else:
            against = [self.lang(a, q.alphabet)[0] for a in q.against]
        tnfa = target[0]

        if coverable and self._meets_all([tnfa] + against):
            self.fail(q, "coverable, but a word lies in the target and every against language")
        expected = None
        if q.command == "member":
            expected = self.member(q.cls, target)
            if verdict.get("member") != coverable:
                self.fail(q, "member field disagrees with coverable")
        elif q.cls == "at":
            expected = self._at_coverable(q.alphabet, tnfa, against)
        elif q.cls == "sigma1":
            expected = self.oracles.sigma1_coverable(tnfa, against)
        if expected is not None and expected != coverable:
            self.fail(q, f"verdict coverable={coverable}, oracle says {expected}")

        out = {"cover_ok": None, "separator_ok": None, "separator_skipped": False}
        cover = verdict.get("cover")
        if q.emit_cover and coverable and cover is not None:
            regexes = [p["regex"] for p in cover["pieces"]]
            out["cover_ok"] = self._recheck(q, regexes, tnfa, against, "cover")
        separator = verdict.get("separator")
        if separator is not None:
            out["separator_ok"] = self._recheck(q, [separator], tnfa, against, "separator")
        elif (q.command in ("separate", "member") and coverable
              and q.cls in SYNTHESIZABLE and "synthesis" not in verdict
              and "synthesis" not in verdict.get("stats", {})):
            out["separator_skipped"] = True
        return out

    def _recheck(self, q, regexes, target, against, what: str) -> bool:
        """The pieces cover the target, each misses some against language,
        and each belongs to the query's class."""
        rc = self.rc
        pieces = [self.lang(r, q.alphabet) for r in regexes]
        union = None
        for nfa, _ in pieces:
            union = nfa if union is None else rc.nfa_union(union, nfa)
        ok = True
        if union is None:
            covered = rc.is_empty(target)
        else:
            covered = rc.includes(target, union)
        if not covered:
            self.fail(q, f"{what} does not cover the target")
            ok = False
        for (nfa, key) in pieces:
            if not any(rc.is_empty(rc.nfa_intersection(nfa, a)) for a in against):
                self.fail(q, f"{what} piece {key[1]!r} meets every against language")
                ok = False
            if not self.member(q.cls, (nfa, key)):
                self.fail(q, f"{what} piece {key[1]!r} is not in class {q.cls}")
                ok = False
        return ok

    def check_lattice(self, group: list):
        """group: (query, coverable) for the decided queries of one instance."""
        coverable = {q.cls: c for q, c in group}
        for small, large in LATTICE:
            if coverable.get(small) is True and coverable.get(large) is False:
                q = next(q for q, _ in group if q.cls == large)
                self.fail(q, f"class lattice: coverable in {small} but not in {large}")
