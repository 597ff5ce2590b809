"""Spans around regcov's layer boundaries, recorded from outside the program.

`Tracer.install` replaces public functions at each layer boundary with
wrappers, in every regcov module that holds them (a function imported by
name is patched where it was imported too).  A wrapper records a span:
name, layer, start, end, parent span, query id, and the exception that
ended it.  Spans of one query are kept in memory and folded into the run's
per-layer totals when the query ends.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time

# layer -> (module, public functions at its boundary)
LAYERS = {
    "cli": ("regcov.cli", ("main", "load_instance", "run_cover", "run_separate",
                           "run_member")),
    "rx": ("regcov.rx", ("regex_parse", "regex_to_text")),
    "fa": ("regcov.fa", ("regex_to_nfa", "nfa_from_json", "nfa_complement",
                         "determinize", "minimize", "transition_monoid",
                         "nfa_to_regex", "is_empty", "includes",
                         "nfa_intersection", "equivalent", "upward_closure",
                         "nfa_union", "nfa_concat", "universal_language",
                         "alphabet_exact", "alphabet_star")),
    "rating": ("regcov.rating", ("rm_from_multiset", "rm_from_nfa",
                                 "rm_from_morphism", "rm_alphabet_augment")),
    "saturation": ("regcov.saturation", ("decide_universal_covering",
                                         "decide_pointed_covering",
                                         "saturate_universal", "saturate_pointed",
                                         "at_imprint")),
    "covers": ("regcov.covers", ("at_cover", "sigma1_cover", "bsigma1_cover",
                                 "fo2_cover", "restrict_cover", "verify_cover")),
}

CHECKS = ("is_empty", "includes", "nfa_intersection", "equivalent")
SYNTHESIZERS = ("at_cover", "sigma1_cover", "bsigma1_cover", "fo2_cover",
                "restrict_cover")

# name, layer, start, end, parent index, query id, exception type, probe
# value, probe time
NAME, LAYER, START, END, PARENT, QID, EXC, PROBE, PROBE_S = range(9)


def _monoid_size(args, result):
    return result[0].size


def _rating_shape(args, result):
    from regcov.semiring import PowersetMonoidSemiring, RelationSemiring

    parts = result.tau.semiring.parts
    return (result.tau.semiring.log2_size(),
            sum(isinstance(p, RelationSemiring) for p in parts),
            sum(isinstance(p, PowersetMonoidSemiring) for p in parts))


def _decision(args, result):
    return (result.stats.get("elements", 0), result.stats.get("sweeps", 0),
            len(result.raw_imprint.maximal_elements()))


def _verification(args, result):
    return (len(args[0].pieces), result.ok)


PROBES = {
    "transition_monoid": _monoid_size,
    "rm_from_multiset": _rating_shape,
    "decide_universal_covering": _decision,
    "decide_pointed_covering": _decision,
    "verify_cover": _verification,
}

COUNTERS = ("rx.calls", "fa.calls", "fa.monoid_elements", "rating.calls",
            "rating.width_bits", "rating.relation_parts", "rating.monoid_parts",
            "saturation.calls", "saturation.elements", "saturation.maxima",
            "saturation.sweeps", "saturation.cap_hits", "covers.calls",
            "covers.pieces", "covers.cap_hits", "covers.dropped", "cli.calls",
            "cli.retries")
TIMES = tuple(f"{layer}.self_s" for layer in LAYERS) + (
    "fa.render_s", "fa.check_s", "covers.synth_s", "covers.verify_s")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.qid = None
        self.saved: list = []
        self.totals = {name: 0 for name in COUNTERS}
        self.totals.update({name: 0.0 for name in TIMES})
        self.traced_s = 0.0        # benchmark-measured wall time of traced queries
        self.probe_s = 0.0         # time spent reading probes, in no layer
        self.queries = 0

    # -- patching -------------------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if (n == "regcov" or n.startswith("regcov.")) and m is not None]
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules[modname]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(original, name, layer, PROBES.get(name))
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self.saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original in reversed(self.saved):
            setattr(mod, name, original)
        self.saved = []

    def _wrap(self, fn, name, layer, probe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1,
                    tracer.qid, None, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[EXC] = type(exc)
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                # Probe time is taken out of the parent's self time.
                span[PROBE] = probe(args, result)
                span[PROBE_S] = clock() - span[END]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- folding ----------------------------------------------------------------------

    def begin(self, qid):
        self.qid = qid
        del self.spans[:]
        del self.stack[:]

    def end(self, wall_s: float, t_end: float):
        """Fold the finished query's spans into the totals.

        A span that a failure left open (MemoryError in the wrapper itself)
        is closed at the end of the query.
        """
        from regcov.errors import ResourceCapError, SaturationCapError

        spans, t = self.spans, self.totals
        self.queries += 1
        self.traced_s += wall_s
        child = [0.0] * len(spans)
        for s in spans:
            if not s[END]:
                s[END] = t_end
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START] + s[PROBE_S]
            self.probe_s += s[PROBE_S]
        run_covers = 0
        for i, s in enumerate(spans):
            name, layer = s[NAME], s[LAYER]
            self_s = s[END] - s[START] - child[i]
            t[f"{layer}.self_s"] += self_s
            t[f"{layer}.calls"] += 1
            outer = s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer
            exc = s[EXC] or type(None)
            if name == "nfa_to_regex":
                t["fa.render_s"] += self_s
            elif name in CHECKS:
                t["fa.check_s"] += self_s
            elif name in SYNTHESIZERS:
                t["covers.synth_s"] += self_s
            elif name == "verify_cover":
                t["covers.verify_s"] += self_s
            elif name == "run_cover":
                run_covers += 1
            if outer and layer == "saturation" and issubclass(exc, SaturationCapError):
                t["saturation.cap_hits"] += 1
            if outer and layer == "covers" and issubclass(exc, ResourceCapError):
                t["covers.cap_hits"] += 1
            probe = s[PROBE]
            if probe is None:
                continue
            if name == "transition_monoid":
                t["fa.monoid_elements"] += probe
            elif name == "rm_from_multiset":
                t["rating.width_bits"] += probe[0]
                t["rating.relation_parts"] += probe[1]
                t["rating.monoid_parts"] += probe[2]
            elif name.startswith("decide_"):
                t["saturation.elements"] += probe[0]
                t["saturation.sweeps"] += probe[1]
                t["saturation.maxima"] += probe[2]
            elif name == "verify_cover":
                t["covers.pieces"] += probe[0]
                t["covers.dropped"] += not probe[1]
        t["cli.retries"] += run_covers >= 2
        self.begin(None)

    def metrics(self) -> dict:
        t = dict(self.totals)
        maxima = t["saturation.maxima"]
        t["saturation.elements_per_maximum"] = (t["saturation.elements"] / maxima
                                                if maxima else 0.0)
        t["trace.queries"] = self.queries
        t["trace.self_sum_s"] = sum(t[f"{layer}.self_s"] for layer in LAYERS)
        t["trace.query_s"] = self.traced_s
        t["trace.probe_s"] = self.probe_s
        return t
