"""Regex parsing and printing."""

import pytest

from regcov import InputError, regex_parse, regex_to_text
from regcov import rx


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
