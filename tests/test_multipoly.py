from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airytau.errors import InvalidKeyError
from airytau.multipoly import MONO_ONE, MultiPoly, mono_str, mono_weight
from airytau.rational import Rat
from airytau.wave import TruncatedTau, shifted_tau

from oracles import FractionPoly


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


# -- the integer container against the Fraction reference -------------------

# Index pools and caps: small indices under weight caps, large ones (up to
# T_40) under weight caps they fit, any index under degree caps, and both
# caps at once.
REGIMES = {
    "weight": (list(range(1, 7)), st.integers(0, 12), st.none()),
    "weight-high": (list(range(28, 41)), st.integers(28, 90), st.none()),
    "degree": (list(range(1, 41)), st.none(), st.integers(0, 4)),
    "both": ([1, 2, 3, 5, 33, 40], st.integers(0, 45), st.integers(0, 4)),
}


@st.composite
def poly_pairs(draw):
    """Two (terms, degree cap, weight cap) triples of one regime."""
    pool, wcaps, dcaps = REGIMES[draw(st.sampled_from(sorted(REGIMES)))]
    monos = st.dictionaries(st.sampled_from(pool), st.integers(1, 3),
                            max_size=2).map(lambda d: tuple(sorted(d.items())))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return [(draw(st.dictionaries(monos, coeffs, max_size=4)), draw(dcaps),
             draw(wcaps)) for _ in range(2)]


def _same(poly, ref):
    assert poly.terms == ref.terms
    assert (poly.degree_cap, poly.weight_cap) == (ref.degree_cap,
                                                  ref.weight_cap)


@settings(max_examples=150, deadline=None)
@given(poly_pairs(), st.fractions(min_value=-2, max_value=2,
                                  max_denominator=5))
def test_integer_polys_match_fraction_reference(pair, factor):
    (ta, da, wa), (tb, db, wb) = pair
    a, b = MultiPoly(ta, da, wa), MultiPoly(tb, db, wb)
    ra, rb = FractionPoly(ta, da, wa), FractionPoly(tb, db, wb)
    _same(a, ra)
    _same(a.mul(b), ra.mul(rb))
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(a.scale(factor), ra.scale(factor))
    _same(a.with_caps(db, wb), ra.with_caps(db, wb))
    for index in {idx for mono in ta for idx, _ in mono} | {1}:
        _same(a.deriv(index), ra.deriv(index))
    # exp of the non-constant part, 1/tau of one plus it
    rest = {mono: c for mono, c in ta.items() if mono}
    f, rf = MultiPoly(rest, da, wa), FractionPoly(rest, da, wa)
    tau, rtau = (MultiPoly({**rest, (): 1}, da, wa),
                 FractionPoly({**rest, (): 1}, da, wa))
    if da is not None or wa is not None:
        _same(f.exp(), rf.exp())
        _same(tau.inverse(), rtau.inverse())
        one = MultiPoly.const(1, da, wa)
        assert f.exp() * f.scale(-1).exp() == one
        assert tau * tau.inverse() == one


def test_inverse_refuses_an_uncapped_polynomial():
    with pytest.raises(InvalidKeyError) as err:
        MultiPoly({(): Rat(1), ((1, 1),): Rat(1)}).inverse()
    assert str(err.value) == "inverse of an uncapped polynomial"
    # a constant needs no cap
    assert MultiPoly.const(1).inverse() == MultiPoly.const(1)


def test_degree_cap_prunes_each_weight():
    # without a weight cap the recurrences run to weight 2 * 40; unpruned,
    # weight 64 would hold T_1^64, past its exponent field
    terms = {((1, 1),): Fraction(1), ((40, 1),): Fraction(-1, 3)}
    f, ref = MultiPoly(terms, degree_cap=2), FractionPoly(terms, 2)
    assert f.exp().terms == ref.exp().terms
    tau, ref_tau = f + MultiPoly.const(1), ref + FractionPoly({(): 1})
    assert tau.inverse().terms == ref_tau.inverse().terms


# -- packed key fields: exponents 0..63, weights below 2^17, any index ------

_FIELDS = "exponents 1..63 and weights up to 131071"


def test_large_indices_build_exp_and_read_back():
    terms = {((33, 1),): Fraction(1, 2), ((40, 2),): Fraction(-3),
             ((1, 1), (33, 1)): Fraction(2, 7)}
    poly = MultiPoly(terms, weight_cap=120)
    assert poly.terms == terms
    assert poly.coeff(((40, 2),)) == -3
    assert poly.indices() == {1, 33, 40}
    assert poly.exp().terms == FractionPoly(terms, None, 120).exp().terms
    tau = poly.exp()
    assert tau.inverse() == poly.scale(-1).exp()


@pytest.mark.parametrize("mono", [
    ((1, 63),), ((40, 63),), ((2080, 63),), ((31, 1), (2080, 63))])
def test_constructor_keeps_monomials_at_the_field_edges(mono):
    # the last has weight 131071, the top of the weight field
    assert MultiPoly({mono: Fraction(1)}).terms == {mono: 1}


@pytest.mark.parametrize("mono", [
    ((1, 64),), ((40, 64),), ((32, 1), (2080, 63)), ((0, 1),), ((1, 0),)])
def test_constructor_refuses_monomials_that_do_not_fit(mono):
    with pytest.raises(InvalidKeyError) as err:
        MultiPoly({mono: Fraction(1)})
    assert str(err.value) == (f"monomial {mono_str(mono)} does not fit a "
                              f"packed key: {_FIELDS}")


def test_products_refuse_exponents_that_leave_their_field():
    left = f"a monomial left its packed key fields: {_FIELDS}"
    t1 = MultiPoly({((1, 32),): Fraction(1)})
    assert (t1 * MultiPoly({((1, 31),): Fraction(1)})).terms == {
        ((1, 63),): 1}
    for result in (lambda: t1 * t1,
                   lambda: MultiPoly({((7, 1),): Fraction(1)},
                                     degree_cap=64).exp()):
        with pytest.raises(InvalidKeyError) as err:
            result()
        assert str(err.value) == left
