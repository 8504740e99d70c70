from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airytau.errors import InvalidKeyError
from airytau.multipoly import MONO_ONE, MultiPoly, mono_str, mono_weight
from airytau.rational import Rat
from airytau.wave import TruncatedTau, shifted_tau


def test_exp_example():
    f = MultiPoly.var(3, degree_cap=2).scale(Rat(1, 8))
    result = f.exp()
    assert result.coeff(MONO_ONE) == 1
    assert result.coeff(((3, 1),)) == Rat(1, 8)
    assert result.coeff(((3, 2),)) == Rat(1, 128)
    assert len(result.terms) == 3


def test_deriv_example():
    f = MultiPoly.var(3, weight_cap=9).scale(Rat(1, 8))
    assert f.deriv(3).constant == Rat(1, 8)
    assert f.deriv(1).is_zero()


def test_shift_substitution_example():
    # tau = 1 + T_1^2 under T_1 -> T_1 - s
    square = MultiPoly.var(1, weight_cap=6) * MultiPoly.var(1, weight_cap=6)
    poly = MultiPoly.const(1, weight_cap=6) + square
    shifted = shifted_tau(TruncatedTau(poly, MultiPoly.zero(weight_cap=6), 6,
                                       1), (-1,)).terms
    assert shifted[(0,), ((1, 2),)] == 1
    assert shifted[(1,), ((1, 1),)] == -2
    assert shifted[(2,), MONO_ONE] == 1


def test_exp_matches_schoolbook_series():
    a, b, c = Rat(2, 3), Rat(-1, 5), Rat(1, 4)
    f = (MultiPoly.var(1, weight_cap=7).scale(a)
         + MultiPoly.var(3, weight_cap=7).scale(b)
         + MultiPoly.var(1, weight_cap=7)
         * MultiPoly.var(2, weight_cap=7).scale(c))
    # the three terms commute, so exp(f) is the product of their series:
    # a^i b^l c^m / (i! l! m!) T_1^(i+m) T_2^m T_3^l of weight i + 3l + 3m
    expected = {}
    for i, l, m in itertools.product(range(8), range(3), range(3)):
        if i + 3 * l + 3 * m <= 7:
            mono = tuple((idx, e) for idx, e in ((1, i + m), (2, m), (3, l))
                         if e)
            expected[mono] = (a ** i * b ** l * c ** m / math.factorial(i)
                              / math.factorial(l) / math.factorial(m))
    assert f.exp().terms == expected
    assert f.exp().inverse() * f.exp() == MultiPoly.const(1, weight_cap=7)


def test_exp_requires_zero_constant():
    with pytest.raises(InvalidKeyError):
        MultiPoly.const(1, degree_cap=3).exp()
    with pytest.raises(InvalidKeyError):
        MultiPoly.var(1).exp()   # no caps: would not terminate


def test_caps_prune():
    p = MultiPoly({((1, 5),): Rat(1), ((5, 1),): Rat(2)}, weight_cap=4)
    assert p.is_zero()
    q = MultiPoly({((1, 2),): Rat(1)}, degree_cap=2, weight_cap=9)
    r = q * q
    assert r.is_zero()  # degree 4 beyond the cap


def test_weight_and_degree():
    mono = ((1, 2), (5, 1))
    assert mono_weight(mono) == 7
    assert mono_str(mono) == "T1^2*T5"


polys = st.builds(
    lambda entries: MultiPoly(
        {tuple(sorted({idx: e for idx, e in mono}.items())): Rat(c)
         for mono, c in entries.items()}, weight_cap=8),
    st.dictionaries(
        st.frozensets(st.tuples(st.integers(1, 4), st.integers(1, 2)),
                      max_size=2),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=3))


@settings(max_examples=50, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_deriv_leibniz(a, b):
    left = (a * b).deriv(1)
    right = a.deriv(1) * b + a * b.deriv(1)
    # compare within the shrunken cap of the derivative
    assert (left - right).is_zero()
