"""Antichain imprints: dominance, membership, keyed fibers and the cap."""

import pytest

from regcov import ImprintSet, SaturationCapError
from regcov.semiring import RelationSemiring

from explicit_engine import members
from helpers import is_subset


def test_insert_keeps_only_maxima():
    imp = ImprintSet(RelationSemiring(2))
    assert imp.insert(0b0001)
    assert imp.insert(0b0010)
    assert not imp.insert(0b0001)      # already maximal
    assert imp.insert(0b0011)          # dominates both maxima
    assert sorted(imp.maximal_elements()) == [0b0011]
    assert len(imp) == 1
    assert not imp.insert(0b0010)      # dominated
    assert imp.insert(0b0100)
    assert sorted(imp.maximal_elements()) == [0b0011, 0b0100]
    assert members(imp) == {0, 0b0001, 0b0010, 0b0011, 0b0100}
    assert 0b0010 in imp and 0b0110 not in imp


def test_pointed_fibers_are_separate():
    sr = RelationSemiring(2)
    imp = ImprintSet(sr, keyed=True)
    x = sr.pair(0, 0) | sr.pair(1, 1)
    imp.insert((0, x))
    imp.insert((1, sr.pair(0, 0)))
    assert (0, sr.pair(1, 1)) in imp
    assert (1, sr.pair(1, 1)) not in imp
    assert (2, 0) not in imp
    assert len(imp) == 2


def test_equality_and_inclusion_are_of_downsets():
    a, b = ImprintSet(RelationSemiring(2)), ImprintSet(RelationSemiring(2))
    for m in (0b001, 0b011):
        a.insert(m)
    b.insert(0b010)
    b.insert(0b011)
    assert a == b
    b.insert(0b100)
    assert a != b
    assert is_subset(a, b) and not is_subset(b, a)
    with pytest.raises(TypeError):     # a mutable set compared by value
        hash(ImprintSet(RelationSemiring(2)))


def test_cap_counts_maxima():
    chain = ImprintSet(RelationSemiring(3), cap=2)
    for k in range(9):
        chain.insert((1 << k) - 1)      # a chain has one maximum at a time
    assert len(chain) == 1
    spread = ImprintSet(RelationSemiring(3), cap=2)
    spread.insert(0b001)
    spread.insert(0b010)
    with pytest.raises(SaturationCapError, match="3 maximal elements"):
        spread.insert(0b100)


def test_inserting_a_maximum_again_queues_nothing():
    sr = RelationSemiring(2)
    for imp, item in ((ImprintSet(RelationSemiring(2)), 0b0110),
                      (ImprintSet(sr, keyed=True), (1, sr.pair(0, 1)))):
        assert imp.insert(item)
        queued = len(imp.queue)
        assert not imp.insert(item)
        assert len(imp.queue) == queued and len(imp) == 1
