"""The names that the benchmark in perfbench/ reaches for in regcov still
resolve: the layer boundaries its tracer wraps, the functions its gate calls
through `rc`, and the regcov imports of the benchmark and of the oracles it
loads.  The files are only read, never imported or changed."""

import ast
import dataclasses
import importlib
import os
import re
from collections import Counter, defaultdict

import regcov

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return fh.read()


def regcov_imports(*parts):
    """(module, name) of every `from regcov... import name` in a file."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(source(*parts)))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "regcov"
            for alias in node.names]


def test_traced_layer_boundaries_resolve():
    tree = ast.parse(source("perfbench", "spans.py"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    assert "cli" in layers
    missing = [(module, name) for module, names in layers.values() for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_gate_names_resolve():
    names = set(re.findall(r"\brc\.(\w+)", source("perfbench", "gate.py")))
    assert "nfa_intersection" in names
    assert sorted(name for name in names if not hasattr(regcov, name)) == []


def test_benchmark_and_oracle_imports_resolve():
    files = [("tests", "oracles.py")] + [
        ("perfbench", f) for f in sorted(os.listdir(os.path.join(ROOT, "perfbench")))
        if f.endswith(".py")]
    imports = [imp for f in files for imp in regcov_imports(*f)]
    assert ("regcov", "transition_monoid") in imports
    missing = [(module, name) for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def caps_reads(tree) -> set:
    """Names read off a `caps` value (`caps.x`, `self.caps.x`, ...)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and (getattr(node.value, "id", None) == "caps"
                 or getattr(node.value, "attr", None) == "caps")}


def test_every_cap_is_read():
    # a cap that no code reads is a knob that does nothing; reads inside a
    # Caps method count when the method itself is called from the library
    package = os.path.join(ROOT, "src", "regcov")
    read = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "errors.py":
            read |= caps_reads(ast.parse(source("src", "regcov", name)))
    caps_class = next(node for node in ast.parse(source("src", "regcov", "errors.py")).body
                      if isinstance(node, ast.ClassDef) and node.name == "Caps")
    for method in caps_class.body:
        if isinstance(method, ast.FunctionDef) and method.name in read:
            read |= {node.attr for node in ast.walk(method)
                     if isinstance(node, ast.Attribute)
                     and getattr(node.value, "id", None) == "self"}
    fields = [f.name for f in dataclasses.fields(regcov.Caps)]
    assert [f for f in fields if f not in read] == []


def test_every_error_class_is_raised():
    # an error class that no code raises names a limit or a fault that can
    # no longer happen; a base class counts when one of its subclasses is
    # raised
    package = os.path.join(ROOT, "src", "regcov")
    raised = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            for node in ast.walk(ast.parse(source("src", "regcov", name))):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised.add(getattr(exc, "id", None))
    classes = {node.name: {getattr(b, "id", None) for b in node.bases}
               for node in ast.parse(source("src", "regcov", "errors.py")).body
               if isinstance(node, ast.ClassDef) and node.name != "Caps"}
    assert "InputError" in classes and "ResourceCapError" in classes
    live = raised & set(classes)
    while True:
        more = {base for c in live for base in classes[c] if base in classes} - live
        if not more:
            break
        live |= more
    assert sorted(set(classes) - live) == []


def identifiers(tree) -> Counter:
    """How often each name is read, imported or spelled as a string in a
    tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out[node.value] += 1
    return out


def test_every_export_is_used_outside_tests():
    # an export that only tests reach is surface the library keeps for its
    # tests; such code lives in tests/.  A use counts in the library outside
    # the name's own definition, in the benchmark, or in the oracles it loads
    exports = [alias.name for node in ast.parse(source("src", "regcov", "__init__.py")).body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    package = os.path.join(ROOT, "src", "regcov")
    used = Counter()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "__init__.py":
            tree = ast.parse(source("src", "regcov", name))
            used.update(identifiers(tree))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    used[node.name] -= identifiers(node)[node.name]
    files = [("tests", "oracles.py")] + [
        ("perfbench", f) for f in sorted(os.listdir(os.path.join(ROOT, "perfbench")))
        if f.endswith(".py")]
    for f in files:
        used.update(identifiers(ast.parse(source(*f))))
    assert "rm_from_multiset" in exports
    assert [name for name in exports if used[name] <= 0] == []


def test_rating_probe_reads_resolve():
    # the benchmark's probe on `rm_from_multiset` reads the chosen
    # constructions off the product's parts: the attribute chains it reads
    # off the result must resolve, and the classes it imports must be the
    # classes of those parts
    import random

    from helpers import nfa_of, random_nfa
    from regcov import Alphabet, rm_from_multiset

    tree = ast.parse(source("perfbench", "spans.py"))
    probe = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_rating_shape")
    chains = set()
    for node in ast.walk(probe):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and getattr(node, "id", None) == "result":
            chains.add(tuple(reversed(names)))
    assert ("tau", "semiring", "parts") in chains
    assert ("tau", "semiring", "log2_size") in chains
    # a 6-state NFA takes the relation construction, (ab)+ the powerset
    wide = random_nfa(random.Random(98), Alphabet("ab"), 8, 0.3)
    ext = rm_from_multiset([wide, nfa_of("(ab)+", "ab")])
    for chain in chains:
        obj = ext
        for name in chain:
            obj = getattr(obj, name)
    sr = ext.tau.semiring
    assert sr.log2_size() == sum(p.log2_size() for p in sr.parts)
    kinds = {getattr(importlib.import_module(node.module), alias.name)
             for node in ast.walk(probe) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert {type(p) for p in sr.parts} == kinds


def test_decision_probe_reads_resolve():
    # the benchmark's probe on the two decisions reads fixpoint counters off
    # `stats` and the maxima off the raw imprint: the keys and attribute
    # chains it reads off the result must resolve for all six classes, since
    # a missing key would read 0 through `.get` and go unnoticed
    from helpers import nfa_of
    from regcov import (ClassId, decide_pointed_covering, decide_universal_covering,
                        rm_from_multiset)

    tree = ast.parse(source("perfbench", "spans.py"))
    probe = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_decision")
    chains = set()
    keys = set()
    for node in ast.walk(probe):
        names = []
        inner = node
        while isinstance(inner, ast.Attribute):
            names.append(inner.attr)
            inner = inner.value
        if names and getattr(inner, "id", None) == "result":
            chains.add(tuple(reversed(names)))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and node.args
                and isinstance(node.args[0], ast.Constant)):
            keys.add(node.args[0].value)
    assert ("stats", "get") in chains
    assert ("raw_imprint", "maximal_elements") in chains
    assert keys == {"elements", "sweeps"}
    target, other = nfa_of("a+", "ab"), nfa_of("(ab)+", "ab")
    universal = rm_from_multiset([target, other])
    decisions = [decide_universal_covering(universal, cid, target_index=0)
                 for cid in (ClassId.AT, ClassId.BSIGMA1, ClassId.FO, ClassId.FO2)]
    decisions += [decide_pointed_covering(target, rm_from_multiset([other]), cid)
                  for cid in (ClassId.SIGMA1, ClassId.SIGMA2)]
    assert {d.class_id for d in decisions} == set(ClassId)
    for d in decisions:
        for chain in chains:
            obj = d
            for name in chain:
                obj = getattr(obj, name)
        assert all(isinstance(d.stats[key], int) for key in keys)
        assert len(d.raw_imprint.maximal_elements()) == d.stats["elements"]



def library_trees() -> list:
    """Every module of the library but `__init__`, parsed."""
    package = os.path.join(ROOT, "src", "regcov")
    return [ast.parse(source("src", "regcov", f)) for f in sorted(os.listdir(package))
            if f.endswith(".py") and f != "__init__.py"]


def library_callables(trees):
    """(class name or None, definition) of every public function of the
    library, every public method of its public classes, and their
    `__init__`s."""
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield None, node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and (not item.name.startswith("_") or item.name == "__init__")):
                        yield node.name, item


def optional_parameters(cls, definition) -> list:
    """(name, position or None) of the parameters with a default; the
    position leaves out self."""
    args = definition.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if cls is not None and "staticmethod" not in decorators(definition):
        positional = positional[1:]
    out = [(a, positional.index(a)) for a in positional[len(positional) - len(args.defaults):]
           ] if args.defaults else []
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def decorators(definition) -> set:
    return {getattr(d, "id", None) for d in definition.decorator_list}


# they define what the objects mean, so a library without tests still has them
MEANINGS = {("Nfa", "accepts"), ("Dfa", "accepts"), ("MonoidMorphism", "image")}


def test_every_public_callable_and_keyword_is_used_outside_tests():
    # a function, a method or an optional parameter that only tests reach is
    # surface the library keeps for its tests; it lives in tests/.  A use
    # counts in the library outside the definition itself and its
    # re-export, in the benchmark, or in the oracles it loads: a function is
    # named, a property is read, a method is called (or reached through
    # getattr), and a parameter is passed by keyword or by position
    library = library_trees()
    files = [("tests", "oracles.py")] + [
        ("perfbench", f) for f in sorted(os.listdir(os.path.join(ROOT, "perfbench")))
        if f.endswith(".py")]
    trees = library + [ast.parse(source(*f)) for f in files]
    reads, calls, named, reached = (defaultdict(list) for _ in range(4))
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                named[n.id].append(n)
            elif isinstance(n, ast.alias):
                named[n.name].append(n)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                named[n.value].append(n)    # the benchmark patches functions by name
            if isinstance(n, ast.Attribute):
                reads[n.attr].append(n)
            elif isinstance(n, ast.Call):
                calls[getattr(n.func, "id", None) or getattr(n.func, "attr", None)].append(n)
            if (isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("getattr", "hasattr")
                    and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)):
                reached[n.args[1].value].append(n)
    # a class is built by calling it or any of its subclasses
    bases = {node.name: {getattr(b, "id", None) for b in node.bases}
             for tree in library for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def subclasses(cls) -> set:
        direct = {c for c, b in bases.items() if cls in b}
        return direct.union(*map(subclasses, direct))

    callables = list(library_callables(library))
    assert {(cls, d.name) for cls, d in callables} >= MEANINGS
    unused_callables, unused_keywords = [], []
    for cls, definition in callables:
        inside = {id(n) for n in ast.walk(definition)}

        def uses(index, *names):
            return [n for name in names for n in index[name] if id(n) not in inside]

        name = definition.name
        if name == "__init__":
            made = uses(calls, cls, *subclasses(cls))
        elif cls is None:
            made = uses(calls, name)
            if not uses(named, name) and not uses(reads, name):
                unused_callables.append(name)
        else:
            made = uses(calls, name)
            if ((cls, name) not in MEANINGS and not uses(reached, name)
                    and not (uses(reads, name) if "property" in decorators(definition)
                             else [c for c in made if isinstance(c.func, ast.Attribute)])):
                unused_callables.append(f"{cls}.{name}")
        for param, at in optional_parameters(cls, definition):
            if not any(any(k.arg in (param, None) for k in c.keywords)
                       or any(isinstance(a, ast.Starred) for a in c.args)
                       or (at is not None and len(c.args) > at) for c in made):
                unused_keywords.append(f"{cls + '.' if cls else ''}{name}({param}=)")
    assert unused_callables == []
    assert unused_keywords == []
