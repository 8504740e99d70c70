from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airytau.airy import slope_series, wave_series
from airytau.errors import InvalidKeyError, WindowError
from airytau.rational import Rat
from airytau.series import Laurent2, Series1, div_diff_powers, outer_sum

from oracles import (FractionSeries, airy_pair_fraction, convolve,
                     geometric_inv_diff, geometric_inv_diff_squares,
                     laurent_product, restrict)


def s(coeffs, order=None, var="z"):
    return Series1(var, {e: Rat(c) for e, c in coeffs.items()}, order)


def test_difference_of_squares():
    left = s({0: 1, -1: 1})
    right = s({0: 1, -1: -1})
    assert left * right == s({0: 1, -2: -1})


def test_identity_element():
    a = wave_series(12)
    assert a * Series1.const("z", 1) == a


def test_schoolbook_convolution_oracle():
    a = wave_series(6)
    b = slope_series(6)
    product = a * b
    expected = convolve({e: Fraction(c) for e, c in a.coeffs.items()},
                        {e: Fraction(c) for e, c in b.coeffs.items()})
    # the product window: unknowns of a (below -6) meet b's top exponent 1
    assert product.order == 5
    for e, c in expected.items():
        if e >= -5:
            assert product.coeff(e) == c


small_series = st.builds(
    lambda coeffs, order: s(coeffs, order),
    st.dictionaries(st.integers(-4, 3),
                    st.fractions(min_value=-4, max_value=4,
                                 max_denominator=6), max_size=4),
    st.integers(2, 8))


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_axioms_within_windows(a, b, c):
    assert (a * b).agrees_with(b * a)
    assert ((a * b) * c).agrees_with(a * (b * c))
    assert (a * (b + c)).agrees_with(a * b + a * c)


@settings(max_examples=60, deadline=None)
@given(small_series)
def test_negate_var_involution(a):
    assert a.negate_var().negate_var() == a


@settings(max_examples=60, deadline=None)
@given(small_series, small_series)
def test_leibniz_rule(a, b):
    left = (a * b).derivative()
    right = a.derivative() * b + a * b.derivative()
    assert left.agrees_with(right)


def test_derivative_examples():
    assert s({-3: 1}).derivative() == s({-4: -3})
    assert Series1.const("z", 1).derivative().is_zero()
    a = wave_series(9)
    assert a.derivative().coeff(-4) == Rat(-3) * Rat(5, 24) == Rat(-5, 8)


def test_derivative_window_deepens():
    a = wave_series(9)
    assert a.derivative().order == 10


def test_negate_var_examples():
    assert s({0: 1, -1: 1}).negate_var() == s({0: 1, -1: -1})
    c, _ = airy_pair_fraction(9, alternating=True)
    assert wave_series(9).negate_var() == c


def test_mul_reliability_bookkeeping():
    # unknowns below z^-4 of `a` hit the top exponent +1 of `b`
    a = s({0: 1}, order=4)
    b = s({1: 1, -2: 1}, order=7)
    assert (a * b).order == 3
    # exact zero annihilates regardless of the partner's window
    zero = Series1.zero("z")
    assert (zero * b).order is None


def test_coeff_outside_window_raises():
    a = wave_series(6)
    assert a.coeff(-6) == Rat(385, 1152)
    with pytest.raises(WindowError):
        a.coeff(-7)


def test_shift_and_scale():
    a = s({0: 1, -3: 2}, order=5)
    shifted = a.shift(2)
    assert shifted.coeffs == {2: Rat(1), -1: Rat(2)}
    assert shifted.order == 3
    assert a.scale(Rat(1, 2)).coeffs[-3] == Rat(1)


def test_dump_parse_roundtrip():
    a = slope_series(9).rename("q")
    text = a.dump()
    assert text == ("# var=q reliable=9\n1\t1\n-2\t-7/24\n-5\t-455/1152\n"
                    "-8\t-95095/82944\n")
    exact = s({2: 1, -1: -3})
    assert exact.dump() == "# var=z reliable=inf\n2\t1\n-1\t-3\n"


def test_empty_series_sentinel():
    zero = Series1.zero("z")
    assert zero.is_zero() and zero.order is None
    assert zero.coeff(-999) == 0


def test_truncated_zero_product_window_follows_partner_top():
    # the unknown terms of a truncated zero below z^-3 meet the partner's
    # top exponent, so against z^1 only exponents >= -2 are exact
    truncated_zero = s({}, 3)
    assert (truncated_zero * s({1: 1})).order == 2
    assert (s({1: 1}, 5) * truncated_zero).order == 2
    assert (truncated_zero * s({-2: 1}, 4)).order == 5
    assert (truncated_zero * s({}, 6)).order == 3
    assert (truncated_zero * Series1.zero("z")).order is None
    # the distributive law on the example that exposed the old window
    a, b = s({1: 1}, 3), s({-4: 1}, 4)
    assert (a * (b + truncated_zero)).agrees_with(a * b + a * truncated_zero)



def _same_series(series, reference):
    """Series1 and its Fraction reference hold the same series."""
    assert (series.var, series.order, series.top, series.is_zero()) == \
        (reference.var, reference.order, reference.top, reference.is_zero())
    assert series.coeffs == reference.coeffs
    assert series.terms() == reference.terms()
    assert series.dump() == reference.dump()


series_data = st.tuples(
    st.dictionaries(st.integers(-7, 4),
                    st.fractions(min_value=-5, max_value=5,
                                 max_denominator=12), max_size=5),
    st.one_of(st.none(), st.integers(-3, 7)))


@settings(max_examples=200, deadline=None)
@given(series_data, series_data,
       st.fractions(min_value=-4, max_value=4, max_denominator=9),
       st.integers(-3, 3), st.integers(-9, 5),
       st.one_of(st.none(), st.integers(-3, 8)))
@example(({}, None), ({1: 1}, 5), Fraction(1), 0, 0, None)  # exact zero
@example(({}, 3), ({1: 1}, None), Fraction(-1), 1, -4, 2)  # truncated zero
@example(({}, 3), ({}, 6), Fraction(2, 3), -1, -3, None)
@example(({0: Fraction(1, 6), -2: Fraction(3, 4)}, 2),
         ({-1: Fraction(5, 8)}, -1), Fraction(-2, 9), 2, 1, 1)
def test_series1_matches_fraction_reference(a, b, factor, k, exp, through):
    """Every Series1 operation equals the one-Fraction-per-term reference,
    on orders None, finite and negative, exact and truncated zeros and
    denominators that do not match."""
    s1, s2 = Series1("z", *a), Series1("z", *b)
    f1, f2 = FractionSeries("z", *a), FractionSeries("z", *b)
    for series, reference in (
            (s1, f1), (s2, f2), (s1 + s2, f1 + f2), (s1 - s2, f1 - f2),
            (-s1, -f1), (s1.scale(factor), f1.scale(factor)),
            (s1.scale(0), f1.scale(0)), (s1 * s2, f1 * f2),
            (s2 * s1, f2 * f1), (s1.shift(k), f1.shift(k)),
            (s1.derivative(), f1.derivative()),
            (s1.negate_var(), f1.negate_var()),
            (s1.truncated(k + 2), f1.truncated(k + 2)),
            (s1.rename("xi"), f1.rename("xi"))):
        _same_series(series, reference)
    assert s1.agrees_with(s2, through) == f1.agrees_with(f2, through)
    assert s1.agrees_with(s2) == f1.agrees_with(f2)
    assert (s1 == s2) == (f1 == f2)
    assert s1.get(exp) == f1.get(exp)
    try:
        expected = f1.coeff(exp)
    except WindowError as exc:
        with pytest.raises(WindowError, match=re.escape(str(exc))):
            s1.coeff(exp)
    else:
        assert s1.coeff(exp) == expected
    with pytest.raises(InvalidKeyError):
        s1 + s2.rename("xi")


def test_outer_sum_and_laurent2_mul():
    fx, gy = {0: 1, -1: 2}, {1: 1, -2: -1}
    both = outer_sum([(1, fx, gy)], {})
    assert both == {(0, 1): 1, (0, -2): -1, (-1, 1): 2, (-1, -2): -2}
    # a base cell and a second term, cancelling one cell to a kept zero
    assert outer_sum([(1, fx, gy), (-3, {0: 1}, {1: 1})], {(5, 5): 7}) == \
        {(5, 5): 7, (0, 1): -2, (0, -2): -1, (-1, 1): 2, (-1, -2): -2}
    assert outer_sum([(2, fx, gy)], {(0, 1): -2})[(0, 1)] == 0
    delta = Laurent2(("x", "y"), {(1, 0): Rat(1), (0, 1): Rat(-1)})
    assert delta.mul(delta).coeff(1, 1) == -2


def test_geometric_expansions():
    g = geometric_inv_diff(("x", "y"), 3)
    assert g.coeff(-1, 0) == 1 and g.coeff(-4, 3) == 1
    g2 = geometric_inv_diff_squares(("x", "y"), 3)
    # (x^2 - y^2) * expansion == 1 within the window
    squares = Laurent2(("x", "y"), {(2, 0): Rat(1), (0, 2): Rat(-1)})
    product = squares.mul(g2)
    for (ex, ey), c in product.coeffs.items():
        if ey <= 4:
            assert ((ex, ey) == (0, 0)) == (c == 1)


def _random_laurent2(rng, terms):
    coeffs = {}
    for _ in range(terms):
        key = (rng.randint(-6, 6), rng.randint(-6, 6))
        coeffs[key] = Rat(rng.randint(-5, 5), rng.randint(1, 4))
    return Laurent2(("x", "y"), coeffs)


cells = st.dictionaries(
    st.tuples(st.integers(-40, 8), st.integers(-40, 8)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12), max_size=8)


@settings(max_examples=150, deadline=None)
@given(cells, cells, st.fractions(min_value=-3, max_value=3,
                                  max_denominator=7))
def test_laurent2_matches_fraction_reference(a, b, factor):
    left, right = Laurent2(("x", "y"), a), Laurent2(("x", "y"), b)
    nonzero = {key: c for key, c in a.items() if c}
    assert left.coeffs == nonzero
    assert all(left.coeff(*key) == c for key, c in a.items())
    assert left.mul(right).coeffs == laurent_product(a, b)
    total = dict(nonzero)
    for key, c in b.items():
        total[key] = total.get(key, 0) + c
    assert (left + right).coeffs == {k: c for k, c in total.items() if c}
    assert (left - right) + right == left
    assert left.scale(factor).coeffs == {k: c * factor
                                         for k, c in nonzero.items()
                                         if c * factor}


def _random_cells(rng, terms):
    return {(rng.randint(-6, 6), rng.randint(-6, 6)): rng.randint(-5, 5)
            for _ in range(terms)}


def test_laurent2_mul_equals_schoolbook_product():
    rng = random.Random(23)
    for _ in range(50):
        a = _random_laurent2(rng, rng.randint(0, 12))
        b = _random_laurent2(rng, rng.randint(0, 12))
        full: dict = {}
        for (x1, y1), c1 in a.coeffs.items():
            for (x2, y2), c2 in b.coeffs.items():
                key = (x1 + x2, y1 + y2)
                full[key] = full.get(key, Fraction(0)) + c1 * c2
        assert a.mul(b).coeffs == {k: c for k, c in full.items() if c != 0}


def test_div_diff_powers_equals_geometric_product_restricted():
    rng = random.Random(29)
    pair = ("x", "y")
    for _ in range(200):
        cells = _random_cells(rng, rng.randint(0, 12))
        f = Laurent2(pair, cells)
        power = rng.choice((1, 2))
        lo = rng.randint(-14, 4)
        hi = rng.randint(lo, 8)
        # y-exponents of f are >= -6, so terms past y**(hi + 6) never land
        # in the window
        kmax = (hi + 6) // power + 1
        geometric = (geometric_inv_diff if power == 1
                     else geometric_inv_diff_squares)(pair, kmax)
        expected = restrict(f.mul(geometric), lo, hi)
        # zero cells of the input are read like absent ones
        assert div_diff_powers(cells, power, lo, hi) == expected.coeffs


def test_div_diff_powers_examples():
    pair = ("x", "y")
    one = {(0, 0): 1}
    assert div_diff_powers(one, 1, -3, 1) == \
        geometric_inv_diff(pair, 1).coeffs
    # (x + y) / (x**2 - y**2) = 1 / (x - y)
    x_plus_y = {(1, 0): 1, (0, 1): 1}
    assert div_diff_powers(x_plus_y, 2, -4, 3) == \
        geometric_inv_diff(pair, 3).coeffs
    assert div_diff_powers({}, 2, -5, 5) == {}
    assert div_diff_powers({(3, 1): 0}, 1, -5, 5) == {}
    with pytest.raises(InvalidKeyError):
        div_diff_powers(one, 0, -3, 1)
