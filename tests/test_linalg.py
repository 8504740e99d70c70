from __future__ import annotations

import random
from fractions import Fraction

import pytest

from airytau.linalg import det_bareiss, det_int, det_ring
from airytau.series import Laurent2

from oracles import det_leibniz


def _entry(rng, rational):
    if rng.random() < 0.3:
        return 0
    if rational:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return rng.randint(-9, 9)


def _matrices(rng, n, rational):
    """Dense, singular and zero-leading-pivot n x n matrices."""
    dense = [[_entry(rng, rational) for _ in range(n)] for _ in range(n)]
    yield dense
    if n < 2:
        return
    # one row a multiple of another: singular
    a, b = rng.sample(range(n), 2)
    k = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rational \
        else rng.randint(-3, 3)
    singular = [row[:] for row in dense]
    singular[a] = [k * x for x in dense[b]]
    yield singular
    # zero first column above a nonzero entry: the first pivot needs a swap
    swap = [row[:] for row in dense]
    low = rng.randrange(1, n)
    for r in range(n):
        swap[r][0] = 0
    swap[low][0] = _entry(rng, rational) or 1
    yield swap
    # leading 2 x 2 minor zero: the second pivot vanishes after elimination
    late = [row[:] for row in dense]
    late[0][0] = late[0][0] or 1
    late[1][0] = late[0][0] * 2
    late[1][1] = late[0][1] * 2
    yield late
    # a zero column: no pivot exists at all
    dead = [row[:] for row in dense]
    col = rng.randrange(n)
    for r in range(n):
        dead[r][col] = 0
    yield dead


PAIR = ("x", "y")


def _ring_entry(rng):
    """A Laurent2 entry: zero, or one or two cells near the origin."""
    if rng.random() < 0.3:
        return Laurent2.zero(PAIR)
    return Laurent2(PAIR, {(rng.randint(-2, 1), rng.randint(-2, 1)):
                           Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                    rng.randint(1, 12))
                           for _ in range(rng.randint(1, 2))})


def _ring_matrices(rng, n):
    """Dense, singular, zero-column and zero-leading-entry n x n matrices
    over Laurent2."""
    dense = [[_ring_entry(rng) for _ in range(n)] for _ in range(n)]
    yield dense
    if n < 2:
        return
    a, b = rng.sample(range(n), 2)
    singular = [row[:] for row in dense]
    singular[a] = [Laurent2(PAIR, {(1, -1): Fraction(-2, 3)}) * x
                   for x in dense[b]]
    yield singular
    dead = [row[:] for row in dense]
    col = rng.randrange(n)
    for r in range(n):
        dead[r][col] = Laurent2.zero(PAIR)
    yield dead
    lead = [row[:] for row in dense]
    lead[0][0] = Laurent2.zero(PAIR)
    yield lead


@pytest.mark.parametrize("n", range(1, 7))
def test_det_ring_matches_leibniz_over_laurent2(n):
    rng = random.Random(3000 + n)
    zero, one = Laurent2.zero(PAIR), Laurent2.const(PAIR, 1)
    kinds = set()
    for _ in range(1 if n >= 5 else 4):
        for rows in _ring_matrices(rng, n):
            value = det_ring(rows, zero, one)
            assert value == det_leibniz(rows, zero), rows
            kinds.add(value.is_zero())
    if n >= 2:
        assert kinds == {True, False}
    assert det_ring([], zero, one) == one


@pytest.mark.parametrize("n", range(8))
def test_det_bareiss_matches_leibniz(n):
    rng = random.Random(1000 + n)
    repeats = 2 if n >= 6 else 6
    kinds = set()
    for _ in range(repeats):
        for rational in (True, False):
            for rows in _matrices(rng, n, rational):
                expected = det_leibniz(rows)
                value = det_bareiss(rows)
                assert isinstance(value, Fraction)
                assert value == expected, rows
                kinds.add(expected == 0)
    if n >= 2:
        assert kinds == {True, False}


@pytest.mark.parametrize("n", range(7))
def test_det_int_matches_leibniz(n):
    rng = random.Random(2000 + n)
    kinds = set()
    for _ in range(3 if n >= 6 else 8):
        for rows in _matrices(rng, n, rational=False):
            copy = [row[:] for row in rows]
            value = det_int(rows)
            assert type(value) is int
            assert value == det_leibniz(rows), rows
            assert rows == copy
            kinds.add(value == 0)
    if n >= 2:
        assert kinds == {True, False}


def test_det_int_examples():
    assert det_int([]) == 1
    assert det_int([[-7]]) == -7
    assert det_int([[0, 2], [3, 0]]) == -6
    assert det_int([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_int([[2, 4], [1, 2]]) == 0
    # entries far beyond machine words stay exact
    big = 10 ** 40
    assert det_int([[big, 1], [1, big]]) == big * big - 1
    with pytest.raises(ValueError):
        det_int([[1, 2], [3]])


def test_det_bareiss_examples():
    assert det_bareiss([]) == 1
    assert det_bareiss([[Fraction(3, 4)]]) == Fraction(3, 4)
    # first pivot zero: one row swap flips the sign
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_bareiss([[Fraction(1, 2), Fraction(1, 3)],
                        [Fraction(1, 5), Fraction(1, 7)]]) == Fraction(1, 210)
    # the input is left as it was
    rows = [[Fraction(1, 2), 3], [0, Fraction(5, 6)]]
    det_bareiss(rows)
    assert rows == [[Fraction(1, 2), 3], [0, Fraction(5, 6)]]


@pytest.mark.parametrize("rows", [[[1, 2]], [[1, 2], [3]],
                                  [[1], [2]], [[1, 2, 3], [4, 5, 6]]])
def test_det_bareiss_rejects_non_square(rows):
    with pytest.raises(ValueError):
        det_bareiss(rows)
