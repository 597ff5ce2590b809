"""Regex parsing and printing."""

import pytest
from hypothesis import given, strategies as st

from regcov import InputError, regex_parse, regex_to_text
from regcov import rx

import reference_rx


def test_parse_basic_shape():
    node = regex_parse("a(b|c)*", "abc")
    assert node == rx.Concat(rx.Letter("a"), rx.Star(rx.Union(rx.Letter("b"), rx.Letter("c"))))


def test_parse_eps_and_empty():
    assert regex_parse("%eps", "ab") == rx.EPSILON
    assert regex_parse("%empty", "ab") == rx.EMPTY


def test_parse_plus_binds_to_group():
    node = regex_parse("(ab)+", "ab")
    assert node == rx.Plus(rx.Concat(rx.Letter("a"), rx.Letter("b")))


def test_whitespace_ignored():
    assert regex_parse(" a |  b ", "ab") == regex_parse("a|b", "ab")


def test_parse_errors_carry_position():
    with pytest.raises(InputError, match="position"):
        regex_parse("a(b", "ab")
    with pytest.raises(InputError, match="alphabet"):
        regex_parse("ax", "ab")
    with pytest.raises(InputError):
        regex_parse("", "ab")
    with pytest.raises(InputError):
        regex_parse("a**", "ab")
    with pytest.raises(InputError):
        regex_parse("%oops", "ab")


def test_print_parse_roundtrip_on_samples():
    import random
    from helpers import random_regex, denote_upto

    rng = random.Random(7)
    for _ in range(60):
        node = random_regex(rng, "ab", 3)
        text = regex_to_text(node)
        back = regex_parse(text, "ab")
        assert denote_upto(node, "ab", 5) == denote_upto(back, "ab", 5)


def test_smart_constructors_simplify():
    from helpers import concat, star, union

    assert union(rx.EMPTY, rx.Letter("a")) == rx.Letter("a")
    assert concat(rx.EPSILON, rx.Letter("a")) == rx.Letter("a")
    assert concat(rx.EMPTY, rx.Letter("a")) == rx.EMPTY
    assert star(rx.EMPTY) == rx.EPSILON
    assert star(star(rx.Letter("a"))) == rx.Star(rx.Letter("a"))


OPERATORS = {"union": rx.Union, "concat": rx.Concat, "star": rx.Star, "plus": rx.Plus}


@st.composite
def shared_regexes(draw):
    """A regex built as a DAG: each new node takes its operands from the
    nodes built so far, so one sub-expression recurs under different
    operators, as in the regexes state elimination builds."""
    pool = [rx.Letter("a"), rx.Letter("b"), rx.EPSILON, rx.EMPTY]
    for _ in range(draw(st.integers(1, 12))):
        op = OPERATORS[draw(st.sampled_from(sorted(OPERATORS)))]
        recent = st.integers(0, min(len(pool) - 1, 4))
        pool.append(op(*[pool[-1 - draw(recent)]
                         for _ in range(1 if op in (rx.Star, rx.Plus) else 2)]))
    # the last node both as a union operand and as a starred atom
    return rx.Union(pool[-1], rx.Star(pool[-1]))


def shared_tower(depth: int) -> rx.Regex:
    """Star over Concat over Union, each level using the one below three
    times: `depth` levels of a few distinct nodes whose tree is 3^depth
    copies of the bottom one.  Each level's concatenation is both starred
    and a union operand, and the level below both a factor and an
    operand."""
    x = rx.Union(rx.Letter("a"), rx.EPSILON)
    for _ in range(depth):
        c = rx.Concat(x, rx.Letter("b"))
        x = rx.Concat(rx.Star(c), rx.Union(c, x))
    return x


def dag_nodes(node: rx.Regex) -> int:
    """The number of distinct nodes of a regex DAG, by identity."""
    seen = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            stack.extend(getattr(n, f) for f in ("left", "right", "inner") if hasattr(n, f))
    return len(seen)


@given(shared_regexes())
def test_printer_matches_the_tree_printer_on_shared_subexpressions(node):
    assert regex_to_text(node) == reference_rx.regex_to_text(node)


def test_printer_renders_each_node_at_most_once_per_context(monkeypatch):
    # the tree is exponential in the depth, the DAG linear: each (node,
    # context) pair is rendered once, and asks for its precedence once
    node = shared_tower(9)
    want = reference_rx.regex_to_text(node)
    calls = []
    precedence = rx.precedence
    monkeypatch.setattr(rx, "precedence", lambda n: calls.append(n) or precedence(n))
    assert regex_to_text(node) == want
    assert len(want) > 100_000 and len(calls) <= 3 * dag_nodes(node)
