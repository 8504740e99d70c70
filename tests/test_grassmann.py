from __future__ import annotations

import random

import pytest

from airytau import grassmann as grassmann_module
from airytau.airy import airy_frame, kernel_closed, required_order
from airytau.errors import (InsufficientCutoffError, InvalidKeyError,
                            WindowError)
from airytau.grassmann import (AdmissibleFrame, d_operator,
                               kernel_pairing_form, plucker_from_admissible,
                               plucker_minor, reduction_check,
                               tau_minus_two_point, tau_polynomial,
                               tau_schur_coeffs)
from airytau.partitions import Partition, partitions_up_to
from airytau.rational import Rat
from airytau.series import Series1

from oracles import normalize_fraction, schur_sum_jacobi_trudi


def _series(coeffs, order=None):
    return Series1("z", {e: Rat(c) for e, c in coeffs.items()}, order)


def vacuum_frame(count):
    return AdmissibleFrame([Series1.monomial("z", n) for n in range(count)])


def random_frame(rng, count, depth):
    elements = []
    for n in range(count):
        coeffs = {n: 1}
        for e in range(n - 1, -depth - 1, -1):
            if rng.random() < 0.7:
                coeffs[e] = Rat(rng.randint(-4, 4), rng.randint(1, 3))
        elements.append(_series(coeffs, depth))
    return AdmissibleFrame(elements)


def test_vacuum_normalizes_to_zero():
    coords = vacuum_frame(6).normalize(4)
    assert coords.table == {}


def test_single_perturbation():
    elements = [_series({0: 1, -1: 1}, 5)] + \
        [Series1.monomial("z", n) for n in range(1, 6)]
    coords = AdmissibleFrame(elements).normalize(4)
    assert coords.entry(0, 0) == 1
    assert sum(1 for v in coords.table.values() if v != 0) == 1


def test_admissibility_validation():
    with pytest.raises(InvalidKeyError):
        AdmissibleFrame([_series({0: 2})])          # wrong leading coeff
    with pytest.raises(InvalidKeyError):
        AdmissibleFrame([_series({1: 1}),            # leading exponent != 0
                         _series({1: 1})])


def test_normalize_depth_error():
    shallow = AdmissibleFrame([_series({0: 1, -1: 1}, 1),
                               _series({1: 1}, 1)])
    with pytest.raises(InsufficientCutoffError):
        shallow.normalize(3)
    with pytest.raises(InsufficientCutoffError):
        vacuum_frame(3).normalize(5)


def sparse_frame(rng, count, cutoff):
    """Denominators 1..7; each coefficient, pivots z^0..z^(n-1) included,
    is present with a probability drawn per element, so some elements are
    dense, some nearly empty, and some pivots are absent."""
    elements = []
    for n in range(count):
        density = rng.choice((0.0, 0.15, 0.5, 0.9))
        coeffs = {n: 1}
        for e in range(n - 1, -cutoff - 4, -1):
            if rng.random() < density:
                coeffs[e] = Rat(rng.choice((-1, 1)) * rng.randint(1, 9),
                                rng.randint(1, 7))
        order = rng.choice((None, cutoff + 1, cutoff + 2))
        elements.append(_series(coeffs, order))
    return AdmissibleFrame(elements)


@pytest.mark.parametrize("seed", range(30))
def test_normalize_matches_fraction_oracle(seed):
    rng = random.Random(7000 + seed)
    cutoff = rng.randint(0, 9)
    frame = sparse_frame(rng, cutoff + 1 + rng.randint(0, 2), cutoff)
    expected = normalize_fraction(frame.elements, cutoff)
    coords = frame.normalize(cutoff)
    for n in range(cutoff + 1):
        for m in range(cutoff + 1):
            assert coords.entry(n, m) == expected.get((n, m), 0), (n, m)
    assert coords.table == expected
    assert all(type(v) is Rat for v in coords.table.values())


def test_airy_normalize_at_cutoff_30():
    frame = AdmissibleFrame(airy_frame(31, required_order(30)))
    coords = frame.normalize(30)
    assert coords.table == normalize_fraction(frame.elements, 30)
    assert coords.table == kernel_closed(30).table


def test_normalize_shallow_element_message():
    deep = [_series({n: 1}, 5) for n in range(4)]
    shallow = _series({1: 1, -2: 3}, 1)
    with pytest.raises(WindowError,
                       match=r"^coefficient of z\^-2 outside reliable "
                             r"window \(order 1\)$"):
        AdmissibleFrame([deep[0], shallow] + deep[2:]).normalize(3)
    # a window that stops above z^0 fails at the first table column
    high = _series({2: 1, 1: 5}, -1)
    with pytest.raises(WindowError,
                       match=r"^coefficient of z\^-1 outside reliable "
                             r"window \(order -1\)$"):
        AdmissibleFrame(deep[:2] + [high, deep[3]]).normalize(3)
    # a window reaching z^-cutoff is one short; inside it the element is fine
    with pytest.raises(WindowError, match=r"\(order 1\)$"):
        AdmissibleFrame([deep[0], shallow]).normalize(1)
    assert AdmissibleFrame([deep[0], shallow]).normalize(0).table == {}


def test_plucker_minor_beyond_cutoff():
    coords = vacuum_frame(4).normalize(3)
    with pytest.raises(InsufficientCutoffError,
                       match=r"^affine coordinate \(0,4\) beyond cutoff 3$"):
        plucker_minor(coords, Partition((5,)))
    with pytest.raises(InsufficientCutoffError,
                       match=r"^affine coordinate \(4,0\) beyond cutoff 3$"):
        plucker_minor(coords, Partition((1, 1, 1, 1, 1)))
    with pytest.raises(InsufficientCutoffError,
                       match=r"^affine coordinate \(1,4\) beyond cutoff 3$"):
        plucker_minor(coords, Partition((5, 2)))
    assert plucker_minor(coords, Partition((4, 4, 4, 4))) == 0


def test_plucker_from_admissible_errors():
    frame = AdmissibleFrame([_series({0: 1, -1: 1}, 5), _series({1: 1}, 2),
                             _series({2: 1}, 5)])
    with pytest.raises(WindowError,
                       match=r"^coefficient of z\^-4 outside reliable "
                             r"window \(order 2\)$"):
        plucker_from_admissible(frame, Partition((4, 1)))
    assert plucker_from_admissible(frame, Partition((4,))) == 0
    with pytest.raises(InsufficientCutoffError,
                       match=r"^frame depth 3 cannot reach leg 3$"):
        plucker_from_admissible(frame, Partition((1, 1, 1, 1)))
    # the depth check comes before any window is read
    with pytest.raises(InsufficientCutoffError,
                       match=r"^frame depth 3 cannot reach leg 3$"):
        plucker_from_admissible(frame, Partition((9, 1, 1, 1)))


def test_integer_routes_build_fractions_only_for_results(monkeypatch):
    frame = sparse_frame(random.Random(41), 9, 8)
    mus = [mu for mu in partitions_up_to(6) if mu.parts]
    built = []
    new = Rat.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Rat, "__new__", staticmethod(counting))
    coords = frame.normalize(8)
    assert len(built) == len(coords.table) > 0
    built.clear()
    for mu in mus:
        plucker_minor(coords, mu)
        plucker_from_admissible(frame, mu)
    assert len(built) == 2 * len(mus)


def test_roundtrip_from_coords():
    rng = random.Random(3)
    frame = random_frame(rng, 7, 7)
    coords = frame.normalize(6)
    rebuilt = AdmissibleFrame.from_coords(coords)
    assert rebuilt.normalize(6) == coords


def test_plucker_examples():
    rng = random.Random(5)
    frame = random_frame(rng, 6, 6)
    coords = frame.normalize(5)
    assert plucker_minor(coords, Partition(())) == 1
    assert plucker_minor(coords, Partition((1,))) == coords.entry(0, 0)
    # vacuum: every nonempty partition vanishes
    vac = vacuum_frame(6).normalize(5)
    for mu in partitions_up_to(4):
        if mu.parts:
            assert plucker_minor(vac, mu) == 0


def test_airy_plucker_values():
    frame = AdmissibleFrame(airy_frame(7, required_order(6)))
    coords = frame.normalize(6)
    # row hook of weight three picks the depth-2 coordinate of element 0
    assert plucker_minor(coords, Partition((3,))) == Rat(5, 24)
    assert plucker_minor(coords, Partition((2, 1))) == Rat(7, 24)
    assert plucker_minor(coords, Partition((1, 1, 1))) == Rat(5, 24)


def test_plucker_admissible_matches_normalized():
    rng = random.Random(17)
    for _ in range(6):
        frame = random_frame(rng, 9, 9)
        coords = frame.normalize(8)
        for mu in partitions_up_to(8):
            pairs = mu.frobenius()
            if pairs and (pairs[0][0] > 8 or pairs[0][1] > 8):
                continue
            assert plucker_from_admissible(frame, mu) == \
                plucker_minor(coords, mu), mu


def test_tau_polynomial_matches_jacobi_trudi_oracle():
    rng = random.Random(29)
    for weight in (3, 5, 7, 8):
        coords = random_frame(rng, 9, 9).normalize(8)
        expected = schur_sum_jacobi_trudi(tau_schur_coeffs(coords, weight),
                                          weight)
        value = tau_polynomial(coords, weight)
        assert value == expected, weight
        assert value.weight_cap == weight


def test_airy_tau_polynomial_equals_exponential_tau(tau15):
    frame = AdmissibleFrame(airy_frame(16, required_order(15)))
    value = tau_polynomial(frame.normalize(15), 15)
    assert value == tau15.poly.with_caps(weight_cap=15)


def test_schur_coefficients_expanded_once_per_weight_cap(monkeypatch):
    def airy_coords():
        return AdmissibleFrame(airy_frame(10, required_order(9))).normalize(9)

    fresh = {cap: tau_schur_coeffs(airy_coords(), cap) for cap in (6, 9)}
    coords = airy_coords()
    real = grassmann_module.plucker_minor
    calls = []

    def counting(coords, mu):
        calls.append(mu)
        return real(coords, mu)

    monkeypatch.setattr(grassmann_module, "plucker_minor", counting)
    first = tau_schur_coeffs(coords, 9)
    tau_minus_two_point(coords, 9)
    tau_polynomial(coords, 9)
    assert first == fresh[9]
    count = {cap: sum(1 for _ in partitions_up_to(cap)) for cap in (6, 9)}
    assert len(calls) == len(set(calls)) == count[9]
    # callers get their own dict
    first.clear()
    assert tau_schur_coeffs(coords, 9) == fresh[9]
    # each weight cap has its own expansion
    assert tau_schur_coeffs(coords, 6) == fresh[6] != fresh[9]
    assert len(calls) == count[9] + count[6]


def test_hook_matrix_example():
    # the 1x1 case: the (0|0) minor is the depth-0 coefficient of f_0
    frame = AdmissibleFrame([_series({0: 1, -1: Rat(3, 7)}, 3),
                             _series({1: 1}, 3)])
    assert plucker_from_admissible(frame, Partition((1,))) == Rat(3, 7)


def test_schur_coefficient_support_airy():
    frame = AdmissibleFrame(airy_frame(10, required_order(9)))
    coords = frame.normalize(9)
    coeffs = tau_schur_coeffs(coords, 9)
    for mu, value in coeffs.items():
        assert value == 0 or mu.weight % 3 == 0, mu


def test_pairing_form_matches_minus_specialization():
    frame = AdmissibleFrame(airy_frame(7, required_order(6)))
    coords = frame.normalize(6)
    left = tau_minus_two_point(coords, 6)
    right = kernel_pairing_form(coords, 6)
    for key in set(left.coeffs) | set(right.coeffs):
        if -(key[0] + key[1]) <= 6:
            assert left.coeff(*key) == right.coeff(*key), key


def test_reduction_checks():
    z2 = Series1.monomial("z", 2)
    assert reduction_check(vacuum_frame(8), z2)
    airy = AdmissibleFrame(airy_frame(10, 36))
    assert reduction_check(airy, z2)
    # the spec's counterexample: odd elements perturbed by z^-1
    bad = AdmissibleFrame([
        _series({n: 1, -1: (n % 2)}, 5) for n in range(8)])
    assert not reduction_check(bad, z2)
    # zero multiplier is trivially absorbed
    assert reduction_check(vacuum_frame(4), Series1.zero("z"))
    with pytest.raises(InsufficientCutoffError):
        reduction_check(vacuum_frame(2), Series1.monomial("z", 5))


def test_d_operator_on_zero():
    assert d_operator(Series1.zero("z")).is_zero()


def test_d_operator_leading_term():
    c = Series1.const("z", 1)
    dc = d_operator(c)
    assert dc.get(1) == 1 and dc.get(-2) == Rat(1, 2)
