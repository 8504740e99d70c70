from __future__ import annotations

import pytest

from airytau.multipoly import MultiPoly
from airytau.rational import Rat, double_factorial, format_rat
from airytau.series import Laurent2, Series1
from airytau.wave import WaveSeries

from oracles import _double_factorial, assert_lowest_terms, rat


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


def test_double_factorial_matches_the_loop_oracle():
    for n in range(-1, 41):
        assert double_factorial(n) == _double_factorial(n), n


# Two values of each integer container with denominators that do not match:
# their sum has terms that cancel and a denominator that reduces.
CONTAINERS = {
    "Series1": lambda c: Series1("z", {0: c[0], -1: c[1], -2: c[2]}, 4),
    "Laurent2": lambda c: Laurent2(("x", "y"), {(0, 0): c[0], (1, -1): c[1],
                                                (-2, 0): c[2]}),
    "MultiPoly": lambda c: MultiPoly({(): c[0], ((1, 1),): c[1],
                                      ((1, 2),): c[2]}, weight_cap=5),
    "WaveSeries": lambda c: WaveSeries(0, {((0,), ()): c[0],
                                           ((1,), ((1, 1),)): c[1],
                                           ((-1,), ()): c[2]}, 6, -1),
}


@pytest.mark.parametrize("build", CONTAINERS.values(), ids=CONTAINERS)
def test_shared_core_keeps_lowest_terms(build):
    a = build((rat(1, 6), rat(3, 4), rat(5, 9)))
    b = build((rat(5, 6), rat(-3, 4), rat(-2, 9)))
    total = a + b
    assert total.den == 3 and len(total.num) == 2
    assert (a - a).is_zero() and (a - a).den == 1
    for value in (a, b, total, a - b, b - a, -a, a.scale(0),
                  a.scale(rat(-3, 4)), b.scale(rat(-18, 5)), a - a):
        assert_lowest_terms(value)
    assert -a == a.scale(-1) and a.scale(0) == a - a
    # a scalar scales from either side
    for factor in (0, -2, rat(-3, 4)):
        assert factor * a == a * factor == a.scale(factor)
