from __future__ import annotations

import math
from fractions import Fraction

import pytest

from airytau.airy import (ALTERNATING, airy_d_check, airy_frame, build_kernel,
                          check_all_routes, closed_entry,
                          diagonal_closed_coeff, faber_zagier_identity_check,
                          kernel_closed, kernel_diagonal, kernel_from_csv,
                          kernel_series, kernel_to_csv,
                          required_order, slope_series, transition_matrix,
                          wave_series)
from airytau.errors import (CrossCheckError, InsufficientCutoffError,
                            InvalidKeyError)
from airytau.npoint import antidiagonal_sum
from airytau.rational import Rat, double_factorial
from airytau.series import Series1

from oracles import closed_entry_fraction


def test_wave_series_coefficients():
    a = wave_series(12)
    assert a.coeff(0) == 1  # empty double factorial
    # m = 1 term evaluated by direct integer arithmetic
    assert a.coeff(-3) == Fraction(double_factorial(5),
                                   6 ** 2 * math.factorial(2)) == Rat(5, 24)
    assert a.coeff(-6) == Rat(385, 1152)
    assert a.coeff(-12) == Rat(37182145, 7962624)
    assert a.coeff(-1) == 0 and a.coeff(-2) == 0


def test_slope_series_coefficients():
    b = slope_series(12)
    assert b.top == 1 and b.coeff(1) == 1
    # m = 1 term of the slope series by direct arithmetic
    assert b.coeff(-2) == -Rat(15, 72) * Rat(7, 5) == Rat(-7, 24)
    assert b.coeff(-5) == Rat(-455, 1152)


def test_alternating_pair():
    a, c = wave_series(12), wave_series(12, alternating=True)
    assert c == a.negate_var()
    q = slope_series(12, alternating=True)
    assert q.coeff(1) == 1 and q.coeff(-2) == Rat(7, 24)
    assert q == slope_series(12).negate_var().scale(-1)


def test_closed_entries():
    assert closed_entry(2, 0) == Rat(5, 24)
    assert closed_entry(1, 1) == Rat(-7, 24)
    assert closed_entry(0, 2) == Rat(5, 24)
    assert closed_entry(5, 0) == Rat(385, 1152)
    assert closed_entry(0, 5) == Rat(-385, 1152)
    assert closed_entry(0, 0) == 0  # residue class 0 mod 3
    assert closed_entry(1, 0) == 0
    with pytest.raises(InvalidKeyError):
        closed_entry(-1, 0)


def test_closed_entries_match_fraction_oracle():
    for m in range(46):
        for n in range(46):
            assert closed_entry(m, n) == closed_entry_fraction(m, n), (m, n)


def test_kernel_entry_orientation():
    kernel = kernel_closed(6)
    # generating-function reading: entry(m, n) at x^(-m-1) y^(-n-1)
    assert kernel.entry(0, 2) == Rat(5, 24)
    assert kernel.entry(5, 0) == Rat(-385, 1152)
    assert kernel.entry(0, 5) == Rat(385, 1152)
    assert kernel.entry(0, 0) == 0
    with pytest.raises(InsufficientCutoffError):
        kernel.entry(7, 0)


def test_route_agreement_small(kernel12):
    assert kernel12.cutoff == 12
    small = check_all_routes(5)
    for key, value in small.table.items():
        assert kernel12.table[key] == value


def test_series_route_rejects_short_input():
    with pytest.raises(InsufficientCutoffError):
        kernel_series(8, order=10)


def test_series_route_cancellation_guard():
    # the cancellation check runs on every build; reaching here means all
    # nonnegative-exponent cells vanished inside the graded window
    kernel_series(6, check=True)


def test_gmatrix_determinant_is_one():
    g = transition_matrix(36)
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    assert det.agrees_with(Series1.const("z", 1), through=12)


def test_alternating_convention_routes_agree():
    reference = check_all_routes(6, ALTERNATING)
    assert reference.route in ("series", "gmatrix", "frame")
    with pytest.raises(InvalidKeyError):
        build_kernel(6, "closed", ALTERNATING)


def test_kernel_diagonal_values():
    series = kernel_diagonal(16)
    assert series.coeff(-4) == Rat(1, 8)
    assert series.coeff(-10) == Rat(105, 128)
    assert series.coeff(-16) == Rat(25025, 1024)
    for g in (1, 2, 3):
        assert series.coeff(-(6 * g - 2)) == diagonal_closed_coeff(g)
    # support only at exponents 6g - 2
    for e, c in series.terms():
        assert c == 0 or (-e - 4) % 6 == 0


def test_diagonal_matches_antidiagonal_sums(kernel12):
    series = kernel_diagonal(13)
    for j in range(1, 13):
        assert antidiagonal_sum(kernel12, j) == series.coeff(-j - 1)


def test_faber_zagier_identity():
    assert faber_zagier_identity_check(0)   # constant terms -1 = -1
    assert faber_zagier_identity_check(6)
    assert faber_zagier_identity_check(12)
    # leading correction: 2 * (3!!)/24 at exponent -(6-3)
    work = wave_series(9), slope_series(9)
    a, b = (f.rename("xi") for f in work)
    lhs = a.derivative() * b.negate_var() - a.negate_var() * b.derivative()
    assert lhs.coeff(-3) == Rat(1, 4)
    assert lhs.coeff(-9) == 2 * diagonal_closed_coeff(2)


def test_airy_d_ladder():
    assert airy_d_check(12)


def test_airy_frame_shape():
    frame = airy_frame(6, 24)
    for n, f in enumerate(frame):
        assert f.top == n and f.get(n) == 1


def test_csv_roundtrip(kernel12):
    text = kernel_to_csv(kernel12)
    back = kernel_from_csv(text, 12)
    assert back.table == kernel12.table
    first = text.splitlines()[1]
    assert first == "0,2,5/24"


def test_congruence_invariant_enforced():
    with pytest.raises(CrossCheckError):
        kernel_from_csv("m,n,value\n0,0,1/2\n", 3)


def test_required_order():
    assert required_order(12) == 42
