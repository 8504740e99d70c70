from __future__ import annotations

import pytest

from airytau.rational import Rat, double_factorial, format_rat

from oracles import rat


def test_small_denominator_arithmetic():
    assert rat(5, 24) + rat(-7, 24) == rat(-1, 12)


def test_quotient_example():
    # the first nonzero closed-form table value, assembled by hand
    assert rat(105, 36 * 2) / 7 == rat(5, 24)


def test_annihilator():
    assert rat(1, 3) * 0 == 0


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        rat(1, 2) / Rat(0)
    with pytest.raises(ZeroDivisionError):
        rat(1, 0)


def test_canonical_form():
    x = rat(-6, -8)
    assert (x.numerator, x.denominator) == (3, 4)
    y = rat(6, -8)
    assert (y.numerator, y.denominator) == (-3, 4)


def test_format_parse_roundtrip():
    for value in (rat(5, 24), rat(-7, 24), rat(3), rat(0), rat(-1, 82944)):
        assert Rat(format_rat(value)) == value
    assert format_rat(rat(5, 24)) == "5/24"
    assert format_rat(rat(4, 2)) == "2"


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(9) == 945
    assert double_factorial(2) == 2
    with pytest.raises(ValueError):
        double_factorial(-3)
