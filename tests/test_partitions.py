from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airytau.errors import InvalidKeyError
from airytau.partitions import Partition, partitions_of, partitions_up_to


def test_frobenius_examples():
    assert Partition((1,)).frobenius() == [(0, 0)]
    assert Partition((2, 1)).frobenius() == [(1, 1)]
    assert Partition((3, 1, 1)).frobenius() == [(2, 2)]
    assert Partition((3, 2)).frobenius() == [(2, 1), (0, 0)]
    assert Partition(()).frobenius() == []


def test_frobenius_returns_a_fresh_list():
    mu = Partition((4, 3, 1))
    first = mu.frobenius()
    first.append((9, 9))
    first[0] = (0, 0)
    assert mu.frobenius() == [(3, 2), (1, 0)]
    assert mu.frobenius() is not mu.frobenius()


def test_conjugate():
    assert Partition((3, 1, 1)).conjugate() == Partition((3, 1, 1))
    assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))


def test_hook_constructor():
    assert Partition.hook(2, 0) == Partition((3,))
    assert Partition.hook(0, 2) == Partition((1, 1, 1))
    assert Partition.hook(1, 1) == Partition((2, 1))
    assert Partition.hook(2, 2).frobenius() == [(2, 2)]
    assert Partition((2, 2)).is_hook() is False


def test_validation():
    with pytest.raises(InvalidKeyError):
        Partition((1, 2))
    with pytest.raises(InvalidKeyError):
        Partition((2, -1))
    assert Partition((2, 1, 0, 0)).parts == (2, 1)


def test_serialization():
    mu = Partition((3, 1, 1))
    assert str(mu) == "3,1,1"
    assert str(Partition(())) == "-"
    assert mu.frobenius_str() == "(2|2)"


def test_counting():
    assert sum(1 for _ in partitions_of(6)) == 11
    assert sum(1 for _ in partitions_up_to(5)) == 1 + 1 + 2 + 3 + 5 + 7


parts_strategy = st.lists(st.integers(1, 7), max_size=6).map(
    lambda xs: Partition(sorted(xs, reverse=True)))


@settings(max_examples=80, deadline=None)
@given(parts_strategy)
def test_conjugate_involution(mu):
    assert mu.conjugate().conjugate() == mu
    assert mu.conjugate().weight == mu.weight


@settings(max_examples=80, deadline=None)
@given(parts_strategy)
def test_frobenius_roundtrip(mu):
    assert Partition.from_frobenius(mu.frobenius()) == mu
    arms = [m for m, _ in mu.frobenius()]
    legs = [n for _, n in mu.frobenius()]
    assert arms == sorted(arms, reverse=True)
    assert legs == sorted(legs, reverse=True)


def test_frobenius_roundtrip_through_weight_14():
    for mu in partitions_up_to(14):
        assert Partition.from_frobenius(mu.frobenius()) == mu, mu


def test_from_frobenius_rejects_bad_data():
    with pytest.raises(InvalidKeyError):
        Partition.from_frobenius([(0, 0), (1, 1)])  # arms must decrease
    with pytest.raises(InvalidKeyError):
        Partition.from_frobenius([(2, -1)])
