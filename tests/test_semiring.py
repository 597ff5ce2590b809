"""Semiring kinds, the canonical order and idempotent powers."""

import functools
import operator
import random

from hypothesis import given, strategies as st

from regcov import (Alphabet, AlphabetSemiring, MonoidMorphism,
                    PowersetMonoidSemiring, ProductSemiring, RelationSemiring,
                    rm_from_morphism, transition_monoid)

from explicit_engine import downset
from helpers import leq, nfas
from reference_semiring import ScanPowersetMonoidSemiring, TableSemiring, validate_semiring

Z2 = MonoidMorphism(2, 0, ((0, 1), (1, 0)), {"a": 1})


def test_powerset_z2_products():
    sr = PowersetMonoidSemiring(Z2)
    g = 1 << 1  # {g}
    one = sr.one
    assert sr.mul(g, g) == 1 << 0          # {g}.{g} = {1}
    assert sr.mul(one | g, g) == (1 << 0) | (1 << 1)
    assert sr.mul(sr.zero, g) == sr.zero
    assert sr.mul(one, g) == g


def test_powerset_axioms_exhaustive():
    sr = PowersetMonoidSemiring(Z2)
    assert validate_semiring(sr, range(1 << sr.nbits)) == []


def test_powerset_of_21_element_cyclic_monoid():
    # no width limit: the powerset of Z21 (21 bits) is a semiring like any other
    z21 = MonoidMorphism(21, 0, tuple(tuple((i + j) % 21 for j in range(21)) for i in range(21)),
                         {"a": 1})
    sr = PowersetMonoidSemiring(z21)
    assert sr.nbits == 21
    rng = random.Random(21)
    elems = [sr.zero, sr.one] + [rng.randrange(1 << 21) for _ in range(40)]
    assert validate_semiring(sr, elems, exhaustive_limit=0, rng=rng, samples=300) == []
    assert sr.mul(sr.singleton(20), sr.singleton(2)) == sr.singleton(1)


def pairs_of(sr: RelationSemiring, x: int) -> list:
    """The state pairs (i, j) of a relation."""
    q = sr.q
    return [(i, j) for i in range(q) for j in range(q) if x >> (i * q + j) & 1]


def test_relation_compose():
    sr = RelationSemiring(2)
    r01 = sr.pair(0, 1)
    r10 = sr.pair(1, 0)
    assert sr.mul(r01, r10) == sr.pair(0, 0)
    assert sr.mul(sr.one, r01 | r10) == r01 | r10
    # brute-force: composition agrees with pair chasing on random relations
    rng = random.Random(2)
    for _ in range(50):
        x = rng.randrange(1 << 4)
        y = rng.randrange(1 << 4)
        want = 0
        for (i, j) in pairs_of(sr, x):
            for (j2, k) in pairs_of(sr, y):
                if j == j2:
                    want |= sr.pair(i, k)
        assert sr.mul(x, y) == want


def test_relation_axioms():
    sr = RelationSemiring(2)
    assert validate_semiring(sr, range(1 << 4), exhaustive_limit=16) == []
    # no state limit: seven states give 49-bit relations
    big = RelationSemiring(7)
    assert big.nbits == 49
    rng = random.Random(7)
    elems = [big.zero, big.one] + [rng.randrange(1 << 49) for _ in range(40)]
    assert validate_semiring(big, elems, exhaustive_limit=0, rng=rng, samples=300) == []


def test_alphabet_semiring():
    sr = AlphabetSemiring(Alphabet("ab"))
    sa = sr.singleton(0b01)  # {{a}}
    sb = sr.singleton(0b10)  # {{b}}
    assert sr.mul(sa, sb) == sr.singleton(0b11)
    assert sr.mul(sr.one, sa | sb) == sa | sb
    assert validate_semiring(sr, range(1 << sr.nbits), exhaustive_limit=16) == []


def test_product_semiring():
    p = ProductSemiring([PowersetMonoidSemiring(Z2), RelationSemiring(2)])
    x = p.pack((1, p.parts[1].pair(0, 1)))
    y = p.pack((2, p.parts[1].pair(1, 0)))
    assert p.mul(x, y) == p.pack((p.parts[0].mul(1, 2), p.parts[1].pair(0, 0)))
    assert leq(p.zero, x) and leq(x, p.add(x, y))
    assert not leq(x, y)
    # axioms on a sample
    elems = [p.zero, p.one, x, y, p.add(x, y)]
    assert validate_semiring(p, elems) == []
    single = ProductSemiring([PowersetMonoidSemiring(Z2)])
    assert (single.mul(single.pack((1,)), single.pack((2,)))
            == single.pack((PowersetMonoidSemiring(Z2).mul(1, 2),)))


def test_canonical_order():
    sr = PowersetMonoidSemiring(Z2)
    for s in range(4):
        assert leq(sr.zero, s)
    # order is inclusion on powersets
    assert leq(0b01, 0b11) and not leq(0b11, 0b01)
    # antisymmetry on all pairs
    for x in range(4):
        for y in range(4):
            if leq(x, y) and leq(y, x):
                assert x == y


def test_order_compatibility():
    sr = RelationSemiring(2)
    rng = random.Random(9)
    for _ in range(200):
        r1, r2 = sorted([rng.randrange(16), rng.randrange(16)])
        r2 |= r1
        s1, s2 = sorted([rng.randrange(16), rng.randrange(16)])
        s2 |= s1
        assert leq(sr.add(r1, s1), sr.add(r2, s2))
        assert leq(sr.mul(r1, s1), sr.mul(r2, s2))


def test_idempotent_power():
    sr = PowersetMonoidSemiring(Z2)
    g = 1 << 1
    assert sr.idempotent_power(g) == 1 << 0     # powers alternate {g},{1}
    e = sr.one
    assert sr.idempotent_power(e) == e
    rng = random.Random(4)
    rel = RelationSemiring(3)
    for _ in range(100):
        s = rng.randrange(1 << 9)
        w = rel.idempotent_power(s)
        assert rel.mul(w, w) == w
        # w really is a power of s
        powers = set()
        cur = s
        while cur not in powers:
            powers.add(cur)
            cur = rel.mul(cur, s)
        assert w in powers


def test_downsets():
    sr = RelationSemiring(2)
    x = sr.pair(0, 0) | sr.pair(1, 1)
    down = set(downset(sr, x))
    assert down == {0, sr.pair(0, 0), sr.pair(1, 1), x}
    p = ProductSemiring([sr, sr])
    assert len(set(downset(p, p.pack((x, sr.pair(0, 0)))))) == 8
    assert set(downset(p, p.pack((x, 0)))) == {p.pack((d, 0)) for d in down}
    # the downset of v is the elements u with u | v == v
    elems = [p.pack((a, b)) for a in range(16) for b in (0, 1, 8, 9)]
    for v in elems:
        down = set(downset(p, v))
        for u in elems:
            assert (u in down) == (u | v == v)


def test_table_semiring_from_json():
    # two-element boolean semiring: OR / AND
    doc = {"size": 2, "add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 1]],
           "zero": 0, "one": 1}
    sr = TableSemiring.from_json(doc)
    assert validate_semiring(sr, sr.elements()) == []
    assert set(downset(sr, 1)) == {0, 1}
    assert sr.mask(0) | sr.mask(1) == sr.mask(1) != sr.mask(0)
    assert sr.idempotent_power(1) == 1


def test_morphism_monotone():
    # the index map of an extension is monotone and preserves unions
    ext = rm_from_morphism(Z2, [1])
    rng = random.Random(21)
    for _ in range(100):
        x = rng.randrange(4)
        y = x | rng.randrange(4)
        assert ext.index_set(x) | ext.index_set(y) == ext.index_set(y)
        assert ext.index_set(x | y) == ext.index_set(x) | ext.index_set(y)


def test_product_of_powersets_axioms_exhaustive():
    p = ProductSemiring([PowersetMonoidSemiring(Z2), PowersetMonoidSemiring(Z2)])
    elems = [p.pack((x, y)) for x in range(4) for y in range(4)]
    assert validate_semiring(p, elems, exhaustive_limit=16) == []


def random_part_element(rng, part):
    """A sparse, a middling or a dense element of a bit-vector part."""
    roll = rng.random()
    if roll < 0.1:
        return 0
    if roll < 0.4 and isinstance(part, RelationSemiring):
        # a partial function: the word images of a DFA
        return sum(part.pair(i, rng.randrange(part.q)) for i in range(part.q)
                   if rng.random() < 0.8)
    bits = rng.getrandbits(part.nbits)
    for _ in range(rng.randrange(3)):
        bits &= rng.getrandbits(part.nbits)
    return bits


def test_packed_product_matches_tuple_reference():
    from helpers import nfa_of, random_nfa
    from regcov import (minimize, rm_alphabet_augment, rm_from_multiset, rm_from_nfa,
                        transition_monoid)

    from reference_semiring import TupleProductSemiring, scan_twin

    ab, abc = Alphabet("ab"), Alphabet("abc")
    monoid, _ = transition_monoid(nfa_of("(ab)+", "ab"))
    # a 6-state NFA whose minimal DFA has 14 states
    wide = random_nfa(random.Random(98), ab, 8, 0.3)
    dfa14 = rm_from_nfa(minimize(wide).as_nfa())
    products = [
        ProductSemiring([RelationSemiring(14), PowersetMonoidSemiring(monoid),
                         AlphabetSemiring(ab)]),
        ProductSemiring([ProductSemiring([RelationSemiring(3), RelationSemiring(5)]),
                         AlphabetSemiring(abc)]),
        rm_alphabet_augment(rm_from_multiset([wide, nfa_of("(ab)+", "ab")])).tau.semiring,
        rm_alphabet_augment(dfa14).tau.semiring,
    ]
    assert [len(p.parts) for p in products] == [3, 3, 3, 2]
    assert products[3].parts[0].nbits == 14 * 14
    rng = random.Random(1010)
    for p in products:
        assert not any(isinstance(q, ProductSemiring) for q in p.parts)
        ref = TupleProductSemiring([scan_twin(q) for q in p.parts])
        assert p.unpack(p.zero) == ref.zero and p.unpack(p.one) == ref.one
        tuples = [tuple(random_part_element(rng, q) for q in p.parts) for _ in range(40)]
        tuples += [ref.add(u, v) for u, v in zip(tuples, tuples[1:])]
        for u in tuples:
            x = p.pack(u)
            assert p.unpack(x) == u and x == ref.mask(u)
            for v in rng.sample(tuples, 12):
                y = p.pack(v)
                assert p.unpack(p.mul(x, y)) == ref.mul(u, v)
                assert p.unpack(p.add(x, y)) == ref.add(u, v)
                assert leq(x, y) == ref.leq(u, v)
                assert leq(x, p.add(x, y))


def test_product_refuses_table_parts():
    import pytest
    from regcov import InputError

    table = TableSemiring(2, [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1)
    with pytest.raises(InputError):
        ProductSemiring([RelationSemiring(2), table])
    with pytest.raises(InputError):
        ProductSemiring([])


@given(st.data())
def test_right_multiplication_is_the_union_of_the_rows_of_its_bits(data):
    # every kind adds by union and multiplies distributively over it, so x·g
    # is the union of the products (1 << b)·g over the bits b of x; the
    # powerset kind computes its products so, one row per bit and right factor
    alphabet = data.draw(st.sampled_from([Alphabet("ab"), Alphabet("abc")]))
    monoid, _ = transition_monoid(data.draw(nfas(alphabet, 3)))
    parts = [PowersetMonoidSemiring(monoid), RelationSemiring(data.draw(st.integers(1, 4))),
             AlphabetSemiring(alphabet)]
    for sr in parts + [ProductSemiring(parts)]:
        x = data.draw(st.integers(0, (1 << sr.nbits) - 1))
        g = data.draw(st.integers(0, (1 << sr.nbits) - 1))
        rows = [sr.mul(1 << b, g) for b in range(sr.nbits) if x >> b & 1]
        assert sr.mul(x, g) == functools.reduce(operator.or_, rows, 0)


@given(st.data())
def test_powerset_rows_are_kept_per_right_factor(data):
    # one semiring multiplies a sequence of pairs whose right factors come
    # from a small pool, as the saturation loop's generators do, so a right
    # factor is met again; every product must be the scanning reference's
    alphabet = data.draw(st.sampled_from([Alphabet("ab"), Alphabet("abc")]))
    monoid, _ = transition_monoid(data.draw(nfas(alphabet, 3)))
    sr, ref = PowersetMonoidSemiring(monoid), ScanPowersetMonoidSemiring(monoid)
    elems = st.integers(0, (1 << sr.nbits) - 1)
    pool = data.draw(st.lists(elems, min_size=2, max_size=3))
    for x, y in data.draw(st.lists(st.tuples(elems, st.sampled_from(pool)), min_size=1, max_size=12)):
        assert sr.mul(x, y) == ref.mul(x, y)
