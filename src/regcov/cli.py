"""Batch front door: decide covering/separation/membership instances and
emit verdicts as text or JSON.

Exit codes: 0 decided (either way), 2 input or usage error, 3 resource cap.
Running out of memory is the last resort of the caps: it exits 3 too,
naming the phase that ran out.  The argv is read by one flag table
(`_FLAGS`), which also writes the usage.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from types import SimpleNamespace
from typing import Optional

from .errors import Caps, DEFAULT_CAPS, InputError, ResourceCapError
from . import rx
from .fa import (Alphabet, Nfa, alphabet_exact, is_empty, nfa_complement, nfa_from_json,
                 nfa_to_regex, regex_to_nfa, universal_language, upward_closure)
from .covers import (Cover, at_cover, at_machine, bsigma1_cover, bsigma1_machine, fo2_cover,
                     fo2_machine, separator, sigma1_cover, sigma1_machine, verify_cover)
from .rating import rm_from_multiset
from .saturation import (ClassId, _mask_subsets,
                         decide_pointed_covering, decide_universal_covering)
from .pieces import are_unions_of_classes, pt_partition

UNIVERSAL = "%universal"

# the phase running, named when memory runs out: decide (input parsing
# included), synthesize, verify, render (of the cover or the separator) or
# separator check
_PHASE = ["decide"]


@dataclass
class Instance:
    alphabet: Alphabet
    class_id: Optional[ClassId]   # None: the imprint chain, or an oracle
    target: object                # Nfa or UNIVERSAL
    against: list                 # list of Nfa
    emit_cover: bool = False
    verify: bool = False
    json_output: bool = False
    caps: Caps = DEFAULT_CAPS


@dataclass
class Verdict:
    class_name: str
    coverable: bool
    imprint: list = field(default_factory=list)
    cover: Optional[dict] = None
    verified: Optional[dict] = None
    separator: Optional[str] = None
    member: Optional[bool] = None
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "class": self.class_name,
            "coverable": self.coverable,
            "imprint": self.imprint,
            "cover": self.cover,
            "verified": self.verified,
            "separator": self.separator,
            "member": self.member,
            "stats": self.stats,
        }


def _masks_to_lists(masks) -> list:
    out = [[i for i in range(m.bit_length()) if m >> i & 1] for m in masks]
    return sorted(out, key=lambda s: (len(s), s))


def _ms_since(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)


# -- instance parsing ----------------------------------------------------------------

def parse_language(spec, alphabet: Alphabet):
    """Regex text, %universal, or an NFA JSON object.

    Parsing and compiling recurse into nested subexpressions (a chain of
    one operator is followed with a loop), so a regex nested deeper than the
    interpreter's recursion limit is an input error."""
    if isinstance(spec, str):
        if spec.strip() == UNIVERSAL:
            return UNIVERSAL
        try:
            return regex_to_nfa(rx.regex_parse(spec, alphabet.symbols), alphabet)
        except RecursionError:
            raise InputError("regex nested too deeply") from None
    if isinstance(spec, dict):
        nfa = nfa_from_json(spec.get("nfa", spec))
        if nfa.alphabet != alphabet:
            raise InputError("NFA alphabet differs from the instance alphabet")
        return nfa
    raise InputError(f"cannot interpret language spec {spec!r}")


# every field of an instance file, with its JSON type; `parse_language`
# reads the target, null as none
_FIELD_TYPES = {"alphabet": (str, "string"), "class": (str, "string"), "target": (object, ""),
                "against": (list, "array"), "options": (dict, "object")}
_SWITCHES = ("emit_cover", "verify", "json")
_OPTIONS = _SWITCHES + ("max_elements", "max_states", "max_k")


def _read_instance(path: str) -> dict:
    """The instance file's object.  A field or option outside the schema is
    refused, so that a misspelt one is not dropped; the switches are JSON
    Booleans."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read instance file: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("an instance file must hold a JSON object")
    for key, value in doc.items():
        if key not in _FIELD_TYPES:
            raise InputError(f"unknown instance field {key!r}")
        kind, name = _FIELD_TYPES[key]
        if not isinstance(value, kind):
            raise InputError(f"instance field {key!r} must be a JSON {name}")
    for key, value in doc.get("options", {}).items():
        if key not in _OPTIONS:
            raise InputError(f"unknown option {key!r}")
        if key in _SWITCHES and type(value) is not bool:
            raise InputError(f"option {key!r} must be true or false, got {value!r}")
    return doc


def _cap_value(key: str, flag, options: dict, least: int):
    """A cap from its flag, else from the instance options; None if unset."""
    value = flag if flag is not None else options.get(key)
    if value is not None and (type(value) is not int or value < least):
        raise InputError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def load_instance(args) -> Instance:
    doc = _read_instance(args.instance) if args.instance else {}
    alphabet_text = args.alphabet or doc.get("alphabet")
    if not alphabet_text:
        raise InputError("an alphabet is required (--alphabet or instance file)")
    alphabet = Alphabet(alphabet_text)
    class_id = None
    if args.command != "oracle":
        class_name = args.cls or doc.get("class")
        if not class_name:
            raise InputError("a class is required (--class or instance file)")
        if not (args.command == "imprint" and class_name.lower() == "chain"):
            class_id = ClassId.parse(class_name)
    target_spec = args.target if args.target is not None else doc.get("target")
    against_specs = args.against or doc.get("against", [])
    options = doc.get("options", {})
    if args.command == "member" and "against" in doc:
        raise InputError("member takes no against field")
    if args.command in ("imprint", "oracle"):
        for key in ("emit_cover", "verify"):
            if options.get(key):
                raise InputError(f"{args.command} takes no {key} option")
    max_k = _cap_value("max_k", args.max_k, options, 0)
    if args.command == "oracle" and args.which == "pt-k" and max_k is None:
        raise InputError("pt-k needs --max-k (the piece bound)")
    caps = DEFAULT_CAPS.with_overrides(
        max_elements=_cap_value("max_elements", args.max_elements, options, 1),
        max_det_states=_cap_value("max_states", args.max_states, options, 1),
        max_k=max_k,
    )
    target = parse_language(target_spec, alphabet) if target_spec is not None else None
    against = [parse_language(s, alphabet) for s in against_specs]
    if any(lang is UNIVERSAL for lang in against):
        raise InputError("%universal is only meaningful as the target")
    return Instance(
        alphabet=alphabet,
        class_id=class_id,
        target=target,
        against=against,
        emit_cover=args.emit_cover or options.get("emit_cover", False),
        verify=args.verify or options.get("verify", False),
        json_output=args.json or options.get("json", False),
        caps=caps,
    )


# -- pipelines ------------------------------------------------------------------------

def _run(inst: Instance, separate: bool) -> Verdict:
    """Decide the covering instance once, and synthesize at most once.

    A cover asked for (`--emit-cover` or `--verify`, on every command) is
    synthesized, cut for the target and verified.  A bare `separate` builds
    only the labelled DFA its separator is read off, and no piece.  Either
    way the separator is the smaller of two unions of pieces, read off that
    one DFA, rendered on its own and checked as printed (`_separator`).  A
    resource cap met by a synthesis that `--emit-cover` did not ask for
    skips it, and so does a class without a synthesizer; the decision
    stands, and `stats` says why no cover came out."""
    t0 = time.perf_counter()
    if not inst.against:
        raise InputError("covering needs at least one language to separate against")
    if inst.target is None:
        raise InputError("covering needs a target language (or %universal)")
    class_id, caps = inst.class_id, inst.caps
    universal = inst.target is UNIVERSAL
    target_nfa = universal_language(inst.alphabet) if universal else inst.target
    if class_id.pointed:
        ext = rm_from_multiset(inst.against, caps)
        decision = decide_pointed_covering(target_nfa, ext, class_id, caps)
    else:
        items = inst.against if universal else [inst.target] + inst.against
        ext = rm_from_multiset(items, caps)
        decision = decide_universal_covering(ext, class_id, caps, None if universal else 0)
    stats = dict(decision.stats)

    report = cover_doc = text = None
    wanted = (inst.emit_cover or inst.verify or separate) and decision.coverable
    if wanted and not class_id.synthesizable:
        stats["synthesis"] = {"skipped": "no synthesizer"}
    elif wanted:
        failed = None
        try:
            _PHASE[0] = "synthesize"
            if inst.emit_cover or inst.verify:
                # the pieces of a cover of A* that meet the target cover it
                synthesized = _cover(class_id, decision, inst.alphabet,
                                     None if universal else target_nfa, caps)
                _PHASE[0] = "verify"
                report = verify_cover(synthesized, target_nfa, inst.against, caps=caps)
                failed = None if report.ok else "synthesized cover failed verification"
                if inst.emit_cover:
                    _PHASE[0] = "render"
                    cover_doc = synthesized.to_json()
            else:
                synthesized = _machine(class_id, decision, inst.alphabet, caps)
            if separate and failed is None:
                text, stats["separator"], failed = _separator(
                    synthesized, target_nfa, inst.against[0], decision.rating_map, caps)
        except ResourceCapError as exc:
            if inst.emit_cover:
                raise
            report = cover_doc = text = None
            stats["synthesis"] = {"skipped": exc.cap_name}
        if failed is not None:
            if synthesized.optimal:
                raise AssertionError(failed)
            # depth cap hit before the imprint converged; drop the cover
            report = cover_doc = text = None
            stats.pop("separator", None)
            stats["synthesis"] = {"dropped": "not optimal"}

    verified_doc = None
    if report is not None and inst.verify:
        verified_doc = asdict(report)
        if cover_doc is not None:
            cover_doc["verified"] = verified_doc
    stats["wall_ms"] = _ms_since(t0)
    return Verdict(
        class_name=class_id.value,
        coverable=decision.coverable,
        imprint=_masks_to_lists(decision.imprint_masks),
        cover=cover_doc,
        verified=verified_doc,
        separator=text,
        stats=stats,
    )


def _cover(class_id: ClassId, decision, alphabet: Alphabet, restrict: Optional[Nfa],
           caps: Caps) -> Cover:
    """The class's cover of the target: cut for `restrict`, or of A*.  Σ1
    builds on the minimal DFA its decision pointed by."""
    if class_id is ClassId.SIGMA1:
        return sigma1_cover(decision.target_dfa, decision.rating_map, caps)
    if class_id is ClassId.AT:
        return at_cover(alphabet, caps, restrict)
    if class_id is ClassId.BSIGMA1:
        return bsigma1_cover(decision.rating_map, decision.raw_imprint, caps, restrict)
    return fo2_cover(decision.rating_map, decision.raw_imprint, caps, restrict)


def _machine(class_id: ClassId, decision, alphabet: Alphabet, caps: Caps) -> Cover:
    """The labelled DFA that `_cover` cuts its pieces from, uncut."""
    if class_id is ClassId.SIGMA1:
        return sigma1_machine(decision.target_dfa, caps)
    if class_id is ClassId.AT:
        return at_machine(alphabet, caps)
    if class_id is ClassId.BSIGMA1:
        return bsigma1_machine(decision.rating_map, decision.raw_imprint, caps)
    return fo2_machine(decision.rating_map, decision.raw_imprint, caps)


def _separator(synthesized: Cover, target: Nfa, against: Nfa, rho, caps: Caps) -> tuple:
    """(text, stats, failure) of the separator read off the cover's
    machine (`covers.separator`), rendered once.  The text is parsed and
    compiled again and checked as printed, as the one-piece cover of the
    target separating for the other language (`verify_cover`): it includes
    the target, misses the other language, and is in the class.  Every fo2
    and bsigma1 separator, whether or not the cover's pieces were built, has
    its image checked: each label is its piece's image, so the separator's
    image, evaluated on the compiled text, must be the sum of the labels it
    unites; for fo2, whose labels are (content, image) pairs, content by
    content.  The failure says which check failed first, or is None."""
    _PHASE[0] = "synthesize"
    sep = separator(synthesized, target, against)
    _PHASE[0] = "render"
    text = rx.regex_to_text(nfa_to_regex(sep.nfa))
    _PHASE[0] = "separator check"
    alphabet = target.alphabet
    nfa = regex_to_nfa(rx.regex_parse(text, alphabet.symbols), alphabet)
    stats = {"union": sep.union, "states": sep.nfa.state_count}
    report = verify_cover(replace(synthesized, pieces=[nfa]), target, [against], caps)
    if not report.covers_target:
        return text, stats, "separator does not contain the first language"
    if not report.separating:
        return text, stats, "separator meets the second language"
    if report.class_ok is False:
        return text, stats, "separator is not in the class"
    class_id = synthesized.class_id
    if class_id in (ClassId.BSIGMA1, ClassId.FO2):
        if class_id is ClassId.FO2:     # (content, image) labels, summed per content
            image: dict = {}
            for content, r in sep.labels:
                image[content] = image.get(content, 0) | r
        else:
            image = rho.semiring.sum(sep.labels)
        if rho.eval_nfa(nfa, caps, class_id is ClassId.FO2) != image:
            return text, stats, "separator's image is not the sum of its labels"
    return text, stats, None


def run_cover(inst: Instance) -> Verdict:
    return _run(inst, separate=False)


def run_separate(inst: Instance) -> Verdict:
    if len(inst.against) != 1:
        raise InputError("separation takes exactly one language to avoid")
    return _run(inst, separate=True)


def run_member(inst: Instance) -> Verdict:
    if inst.target is None or inst.target is UNIVERSAL:
        raise InputError("membership needs a concrete target language")
    # a positive answer's separator is the target itself, so it is built
    # only when the cover is asked for
    verdict = _run(replace(inst, against=[nfa_complement(inst.target, inst.caps)]),
                   separate=inst.emit_cover)
    verdict.member = verdict.coverable
    return verdict


_CHAIN = (ClassId.FO, ClassId.FO2, ClassId.BSIGMA1, ClassId.AT)


def run_imprint(inst: Instance) -> Verdict:
    """The decision alone (an imprint instance asks for no cover), over the
    whole word set for the Boolean classes and over the given target for
    the pointed ones."""
    target = inst.target if inst.class_id.pointed else UNIVERSAL
    return _run(replace(inst, target=target), separate=False)


def run_imprint_chain(inst: Instance) -> dict:
    """Imprints for the Boolean-algebra chain plus inclusion flags."""
    out = {}
    masks = {}
    for cid in _CHAIN:
        verdict = run_imprint(replace(inst, class_id=cid))
        out[cid.value] = verdict.to_json()
        masks[cid] = {frozenset(s) for s in map(tuple, verdict.imprint)}
    out["inclusions"] = {
        "fo <= fo2": masks[ClassId.FO] <= masks[ClassId.FO2],
        "fo <= bsigma1": masks[ClassId.FO] <= masks[ClassId.BSIGMA1],
        "fo2 <= at": masks[ClassId.FO2] <= masks[ClassId.AT],
        "bsigma1 <= at": masks[ClassId.BSIGMA1] <= masks[ClassId.AT],
    }
    return out


# -- oracles ---------------------------------------------------------------------------

def oracle_sigma1_sep(l1: Nfa, l2: Nfa) -> bool:
    """Separable by an existential piece language iff the superword closure
    of the first language misses the second."""
    return is_empty(upward_closure(l1), l2)


def oracle_at_imprint(alphabet: Alphabet, langs: list) -> list:
    """Direct atom imprint over the language indices, no semirings involved."""
    masks = set()
    for mask in range(1 << len(alphabet)):
        atom = alphabet_exact(alphabet, alphabet.from_mask(mask))
        hit = 0
        for i, lang in enumerate(langs):
            if not is_empty(atom, lang):
                hit |= 1 << i
        masks.update(_mask_subsets(hit))
    return _masks_to_lists(masks)


def run_oracle(inst: Instance, which: str) -> dict:
    if which == "sigma1-sep":
        if inst.target is None or len(inst.against) != 1:
            raise InputError("sigma1-sep needs --target and exactly one --against")
        target = (universal_language(inst.alphabet) if inst.target is UNIVERSAL
                  else inst.target)
        sep = oracle_sigma1_sep(target, inst.against[0])
        return {"oracle": which, "separable": sep}
    if which == "pt-k":                    # `load_instance` saw the bound given
        k = inst.caps.max_k
        pa, _ = pt_partition(k, inst.alphabet, inst.caps)
        doc = {"oracle": which, "k": k, "classes": pa.state_count}
        if inst.target is not None and inst.target is not UNIVERSAL:
            doc["target_is_ptk"] = are_unions_of_classes([inst.target], pa, inst.caps)
        return doc
    if which == "at":
        if not inst.against:
            raise InputError("the at oracle needs --against languages")
        return {"oracle": which,
                "imprint": oracle_at_imprint(inst.alphabet, inst.against)}
    raise InputError(f"unknown oracle {which!r}")


# -- entry point -------------------------------------------------------------------------

_CAPS = ("--max-elements", "--max-k", "--max-states")
_ORACLES = ("sigma1-sep", "pt-k", "at")

# command -> (valued flags, switches): what each command reads, and so all
# that it accepts.  `member` decides its target against the complement, so
# it takes no `--against`.
_FLAGS = {
    "cover": (("--class", "--alphabet", "--target", "--against", "--instance", *_CAPS),
              ("--emit-cover", "--verify", "--json")),
    "separate": (("--class", "--alphabet", "--target", "--against", "--instance", *_CAPS),
                 ("--emit-cover", "--verify", "--json")),
    "member": (("--class", "--alphabet", "--target", "--instance", *_CAPS),
               ("--emit-cover", "--verify", "--json")),
    "imprint": (("--class", "--alphabet", "--target", "--against", "--instance", *_CAPS),
                ("--json",)),
    "oracle": (("--which", "--alphabet", "--target", "--against", "--instance", *_CAPS),
               ("--json",)),
}


def _dest(flag: str) -> str:
    return "cls" if flag == "--class" else flag[2:].replace("-", "_")


# every field that `load_instance` and `main` read, unset
_UNSET = {_dest(flag): value for valued, switches in _FLAGS.values()
          for flags, value in ((valued, None), (switches, False)) for flag in flags}

# a negative number is a value, not a flag
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")

_HELP = """Decide covering, separation and membership of regular languages for the
classes at, sigma1, bsigma1, sigma2, fo2, fo.

Each flag is given by its full name, after the command and in any order.  A
valued flag takes the next word (--flag value) or the rest of its own word
(--flag=value).  --against may be given more than once; any other flag given
twice keeps its last value.  Exit codes: 0 decided, 2 input or usage error,
3 resource cap."""


class _Usage(Exception):
    """An argv that the flag table refuses (an error), or a help request
    (no error), for one command or for none."""


def _usage(command: Optional[str]) -> str:
    """The usage lines of one command, or of every command for None."""
    lines = []
    for name in [command] if command else _FLAGS:
        valued, switches = _FLAGS[name]
        words = [f"--which {{{','.join(_ORACLES)}}}" if flag == "--which"
                 else f"[{flag} {'N' if flag in _CAPS else flag[2:].upper()}]"
                 for flag in valued]
        line = f"regcov {name} [-h]"
        for word in words + [f"[{flag}]" for flag in switches]:
            if len(line) + len(word) >= 72:
                lines.append(line)
                line = " " * len(f"regcov {name}")
            line += " " + word
        lines.append(line)
    return "usage: " + "\n       ".join(lines)


def _read_argv(argv: list) -> SimpleNamespace:
    """The fields of an argv, read by the flag table.  The command comes
    first; then, in any order, the command's flags, each by its full name.
    A valued flag takes the next word, or what follows `=` in its own
    word; the next word is no value if it begins with `-` and is neither
    `-` alone nor a negative number.  `--against` collects its values, and
    any other repeated flag keeps its last value."""
    if not argv or argv[0] in ("-h", "--help"):
        raise _Usage(None, "a command is required" if not argv else None)
    command = argv[0]
    if command not in _FLAGS:
        raise _Usage(None, f"invalid command {command!r} (choose from {', '.join(_FLAGS)})")
    valued, switches = _FLAGS[command]
    fields = dict(_UNSET, command=command)
    unknown = []
    i, n = 1, len(argv)
    while i < n:
        word = argv[i]
        i += 1
        flag, joined, value = word.partition("=")
        if word in ("-h", "--help"):
            raise _Usage(command, None)
        if word in switches:
            fields[_dest(word)] = True
            continue
        if flag not in valued:
            unknown.append(word)
            continue
        if not joined:
            if i == n or (argv[i][:1] == "-" and argv[i] != "-"
                          and not _NEGATIVE.match(argv[i])):
                raise _Usage(command, f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        if flag in _CAPS:
            try:
                value = int(value)
            except ValueError:
                raise _Usage(command, f"argument {flag}: invalid int value: {value!r}") from None
        elif flag == "--which" and value not in _ORACLES:
            raise _Usage(command, f"argument --which: invalid choice: {value!r}")
        if flag == "--against":
            fields["against"] = (fields["against"] or []) + [value]
        else:
            fields[_dest(flag)] = value
    if unknown:
        raise _Usage(command, "unrecognized arguments: " + " ".join(unknown))
    if command == "oracle" and fields["which"] is None:
        raise _Usage(command, "the following arguments are required: --which")
    return SimpleNamespace(**fields)


def _emit(doc, as_json: bool):
    if isinstance(doc, Verdict):
        doc = doc.to_json()
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    for key, value in doc.items():
        if value is None:
            continue
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        print(f"{key}: {value}")


def main(argv=None) -> int:
    t0 = time.perf_counter()
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
    except _Usage as exc:
        command, error = exc.args
        if error is None:
            print(f"{_usage(command)}\n\n{_HELP}")
            return 0
        print(f"{_usage(command)}\nregcov: error: {error}", file=sys.stderr)
        return 2
    _PHASE[0] = "decide"
    try:
        inst = load_instance(args)
        as_json = inst.json_output
        if args.command == "oracle":
            doc = run_oracle(inst, args.which)
        elif inst.class_id is None:
            doc, as_json = run_imprint_chain(inst), True
        else:
            run = {"cover": run_cover, "separate": run_separate,
                   "member": run_member, "imprint": run_imprint}[args.command]
            doc = run(inst)
            doc.stats["wall_ms"] = _ms_since(t0)  # the whole command, parsing included
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"resource cap: cap 'memory' exceeded during {_PHASE[0]}", file=sys.stderr)
        return 3
    try:
        _emit(doc, as_json)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left after the decision was made; stdout goes to devnull
        # so that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
