"""Antichain imprints: dominance, membership, pointed fibers and the cap."""

import pytest

from regcov import ImprintSet, MonoidMorphism, SaturationCapError
from regcov.semiring import RelationSemiring, SubsetLattice

from explicit_engine import members


def test_insert_keeps_only_maxima():
    imp = ImprintSet(SubsetLattice(4))
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
    z2 = MonoidMorphism(2, 0, ((0, 1), (1, 0)), {"a": 1})
    imp = ImprintSet(sr, monoid=z2)
    x = sr.pair(0, 0) | sr.pair(1, 1)
    imp.insert((0, x))
    imp.insert((1, sr.pair(0, 0)))
    assert (0, sr.pair(1, 1)) in imp
    assert (1, sr.pair(1, 1)) not in imp
    assert (2, 0) not in imp
    assert len(imp) == 2


def test_equality_and_inclusion_are_of_downsets():
    a, b = ImprintSet(SubsetLattice(3)), ImprintSet(SubsetLattice(3))
    for m in (0b001, 0b011):
        a.insert(m)
    b.insert(0b010)
    b.insert(0b011)
    assert a == b
    b.insert(0b100)
    assert a != b
    assert a.issubset(b) and not b.issubset(a)


def test_cap_counts_maxima():
    chain = ImprintSet(SubsetLattice(8), cap=2)
    for k in range(9):
        chain.insert((1 << k) - 1)      # a chain has one maximum at a time
    assert len(chain) == 1
    spread = ImprintSet(SubsetLattice(8), cap=2)
    spread.insert(0b001)
    spread.insert(0b010)
    with pytest.raises(SaturationCapError, match="3 maximal elements"):
        spread.insert(0b100)
