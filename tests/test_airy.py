from __future__ import annotations

import math
from fractions import Fraction

import pytest

from airytau import airy as airy_module
from airytau.airy import (ROUTES, Kernel, airy_d_check, airy_frame,
                          alternate, check_all_routes, closed_entry,
                          diagonal_closed_coeff, faber_zagier_identity_check,
                          kernel_closed, kernel_diagonal, kernel_frame,
                          kernel_gmatrix, kernel_series, kernel_to_csv,
                          required_order, slope_series, transition_matrix,
                          wave_series)
from airytau.errors import (CrossCheckError, InsufficientCutoffError,
                            InvalidKeyError, WindowError)
from airytau.npoint import antidiagonal_sum
from airytau.rational import Rat, double_factorial
from airytau.series import Series1

from oracles import (airy_pair_fraction, closed_entry_fraction,
                     kernel_gmatrix_fraction, kernel_series_fraction)


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
    # c(z) = a(-z) and q(z) = -b(-z), against the coefficient formulas of
    # the oracle, whose signs are (-1)^m and (-1)^(m+1)
    for order in range(40):
        c, q = airy_pair_fraction(order, alternating=True)
        assert c == wave_series(order).negate_var(), order
        assert q == slope_series(order).negate_var().scale(-1), order
    assert c.coeff(-3) == Rat(-5, 24) and c.coeff(-6) == Rat(385, 1152)
    assert q.coeff(1) == 1 and q.coeff(-2) == Rat(7, 24)


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


def test_series_route_cancellation_guard():
    # the cancellation check runs on every build; reaching here means all
    # nonnegative-exponent cells vanished inside the graded window
    kernel_series(6)


@pytest.mark.parametrize("which, exp", [(0, -3), (1, -2), (0, -9)])
def test_series_route_guard_sees_nonnegative_cells(monkeypatch, which, exp):
    # one perturbed input coefficient leaves terms at nonnegative exponents,
    # which only a division that still builds those cells can see
    real = airy_module.series_pair

    def perturbed(order):
        pair = list(real(order))
        f = pair[which]
        pair[which] = f + Series1.monomial(f.var, exp).scale(Rat(1, 7))
        return tuple(pair)

    monkeypatch.setattr(airy_module, "series_pair", perturbed)
    with pytest.raises(CrossCheckError, match="uncancelled term"):
        kernel_series(12)


def _convention_id(value):
    """Name a test's sign flag by the convention word the CLI prints."""
    if isinstance(value, bool):
        return "alternating" if value else "standard"
    return None


@pytest.mark.parametrize("which, exp, cutoff, alternating, message", [
    (0, -3, 12, False, "uncancelled term x^-13 y^0: -13585/82944"),
    (1, -2, 12, False, "uncancelled term x^-13 y^0: 12155/82944"),
    (0, -9, 13, True, "uncancelled term x^-14 y^1: -1/24"),
    (1, 1, 7, False, "uncancelled term x^-8 y^1: -55/1152"),
    (1, -29, 31, True, "uncancelled term x^-32 y^1: -1/7"),
], ids=_convention_id)
def test_series_route_guard_message(monkeypatch, which, exp, cutoff,
                                    alternating, message):
    # the guard names the first uncancelled cell in (x, y) order and its
    # value, for a perturbed a (which = 0) or b (which = 1).  Both
    # conventions build the standard pair, so the all-routes check that
    # ``kernel --alternating --check-all`` runs meets the same guard.
    real = airy_module.series_pair

    def perturbed(order):
        pair = list(real(order))
        f = pair[which]
        pair[which] = f + Series1.monomial(f.var, exp).scale(Rat(1, 7))
        return tuple(pair)

    monkeypatch.setattr(airy_module, "series_pair", perturbed)
    with pytest.raises(CrossCheckError) as caught:
        (check_all_routes if alternating else kernel_series)(cutoff)
    assert str(caught.value) == message


@pytest.mark.parametrize("cutoff", [12, 13, 30])
@pytest.mark.parametrize("r, c, below, raises", [
    (0, 0, 0, True), (1, 1, 0, True), (0, 0, 1, False)])
def test_gmatrix_determinant_guard_message(monkeypatch, cutoff, r, c, below,
                                           raises):
    # a term added to G at the deepest exponent of the det G = 1 window,
    # -(order//2 - 1), is seen; one exponent deeper lies outside the window
    # and below both block cuts, so the table is unchanged
    real = airy_module.transition_matrix
    depth = required_order(cutoff) // 2 - 1 + below

    def perturbed(order):
        g = real(order)
        g[r][c] = g[r][c] + Series1.monomial("z", -depth).scale(Rat(1, 5))
        return g

    monkeypatch.setattr(airy_module, "transition_matrix", perturbed)
    if not raises:
        assert kernel_gmatrix(cutoff) == kernel_closed(cutoff)
        return
    with pytest.raises(CrossCheckError) as caught:
        kernel_gmatrix(cutoff)
    assert str(caught.value) == \
        "transition matrix determinant differs from 1 inside the window"


@pytest.mark.parametrize("alternating", [False, True], ids=_convention_id)
def test_expansion_routes_match_fraction_oracles(alternating):
    # odd cutoffs too, as the gmatrix window is set by half = cutoff // 2.
    # The alternating table is the closed one under ``alternate``, an
    # involution that is not the identity; its oracles expand c and q
    # from their own coefficient formulas.
    for cutoff in range(2, 32):
        if alternating:
            closed = kernel_closed(cutoff)
            series = gmatrix = alternate(closed)
            assert series != closed and alternate(series) == closed, cutoff
        else:
            series, gmatrix = kernel_series(cutoff), kernel_gmatrix(cutoff)
        assert series.table == \
            kernel_series_fraction(cutoff, alternating), cutoff
        assert gmatrix.table == \
            kernel_gmatrix_fraction(cutoff, alternating), cutoff


@pytest.mark.parametrize("route, cell, message", [
    ("gmatrix", (0, 2), "route gmatrix differs from closed at (0,2): "
                        "29/24 vs 5/24"),
    ("frame", (5, 0), "route frame differs from closed at (5,0): "
                      "0 vs -385/1152"),
], ids=["gmatrix", "frame"])
def test_check_all_routes_names_first_difference(monkeypatch, route, cell,
                                                 message):
    real = airy_module.ROUTES[route]

    def perturbed(cutoff):
        kernel = real(cutoff)
        table = dict(kernel.table)
        if route == "gmatrix":
            table[cell] += 1
        else:
            del table[cell]
        return Kernel(cutoff, table, route)

    monkeypatch.setitem(airy_module.ROUTES, route, perturbed)
    with pytest.raises(CrossCheckError) as caught:
        check_all_routes(6)
    assert str(caught.value) == message


@pytest.mark.parametrize("changed, missing, message", [
    ((0, 2), (5, 0), "route gmatrix differs from closed at (0,2): "
                     "29/24 vs 5/24"),
    ((5, 0), (0, 2), "route gmatrix differs from closed at (0,2): "
                     "0 vs 5/24"),
])
def test_check_all_routes_names_the_smallest_of_several_differences(
        monkeypatch, changed, missing, message):
    # one changed and one missing entry: the message names the smaller
    # (m, n), whichever kind it is
    real = airy_module.ROUTES["gmatrix"]

    def perturbed(cutoff):
        table = dict(real(cutoff).table)
        table[changed] += 1
        del table[missing]
        return Kernel(cutoff, table, "gmatrix")

    monkeypatch.setitem(airy_module.ROUTES, "gmatrix", perturbed)
    with pytest.raises(CrossCheckError) as caught:
        check_all_routes(6)
    assert str(caught.value) == message


def test_routes_equal_closed_at_every_cutoff():
    # the truncated factors and division windows of each route, at every
    # cutoff; the other convention is ``alternate`` of this table
    for cutoff in range(2, 34):
        closed = kernel_closed(cutoff)
        for route in ("series", "gmatrix", "frame"):
            assert ROUTES[route](cutoff) == closed, (route, cutoff)


def test_frame_route_order_is_tight(monkeypatch):
    # the frame route builds a and b through z^-(c + 1 + 2 (c//2)), where
    # every table above agrees; one order less leaves element c short of
    # z^-(c+1), and normalize refuses
    real = airy_module.airy_frame
    monkeypatch.setattr(airy_module, "airy_frame",
                        lambda count, order: real(count, order - 1))
    for cutoff in range(2, 34):
        with pytest.raises(WindowError):
            kernel_frame(cutoff)


def test_gmatrix_determinant_is_one():
    g = transition_matrix(36)
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    assert det.agrees_with(Series1.const("z", 1), through=12)


def test_alternating_convention_routes_agree():
    # the table ``alternate`` carries to the other convention is checked
    # on every route, the closed form among them
    reference = check_all_routes(6)
    assert reference.route == "closed"
    twisted = alternate(reference)
    assert twisted.table == kernel_series_fraction(6, True)
    # (-1)^(m+n+1): even m + n flips, odd m + n keeps
    assert twisted.entry(0, 2) == -reference.entry(0, 2) == Rat(-5, 24)
    assert twisted.entry(1, 1) == -reference.entry(1, 1) == Rat(7, 24)
    assert twisted.entry(0, 5) == reference.entry(0, 5) == Rat(385, 1152)


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
    rows = [line.split(",") for line in text.splitlines()[1:]]
    back = {(int(m), int(n)): Fraction(value) for m, n, value in rows}
    assert back == kernel12.table
    first = text.splitlines()[1]
    assert first == "0,2,5/24"


def test_congruence_invariant_enforced():
    with pytest.raises(CrossCheckError):
        Kernel(3, {(0, 0): Rat(1, 2)}, "test")


def test_required_order():
    assert required_order(12) == 42
