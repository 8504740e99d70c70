from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from airytau.errors import InsufficientCutoffError
from airytau.partitions import Partition, partitions_of, partitions_up_to
from airytau.rational import Rat
from airytau.schur import (PowerSums, hook_minus_closed,
                           hook_minus_identity_check,
                           minus_spec,
                           minus_spec_nonhook_vanishing, plus_spec,
                           plus_spec_h, plus_spec_tall_vanishing, schur_at,
                           shorter_route)
from airytau.series import Laurent2

from oracles import (character, minus_spec_h_alternating, schur_brute,
                     standard_tableaux_count)


def test_single_box_is_first_power_sum():
    spec = PowerSums.rational({1: Rat(7, 3), 2: Rat(-1)})
    assert schur_at(Partition((1,)), spec) == Rat(7, 3)


def test_hook_closed_form_examples():
    assert hook_minus_identity_check(0, 0)
    assert hook_minus_identity_check(1, 0)
    assert hook_minus_identity_check(2, 3)
    # the closed form itself: two monomials with an alternating leg sign
    closed = hook_minus_closed(2, 0)
    assert closed.coeff(0, -3) == 1 and closed.coeff(-1, -2) == -1


def test_nonhook_vanishing_under_difference_spec():
    assert minus_spec_nonhook_vanishing(Partition((2, 2)))
    assert minus_spec_nonhook_vanishing(Partition((3, 2, 1)))


def test_sum_spec_survivors_and_vanishing():
    # row hooks survive as complete homogeneous values
    for m in range(4):
        mu = Partition.hook(m, 0)
        value = schur_at(mu, plus_spec(mu.weight), route="h")
        assert value == plus_spec_h(m + 1)
    # anything taller than two rows dies
    assert plus_spec_tall_vanishing(Partition((1, 1, 1)))
    assert plus_spec_tall_vanishing(Partition((3, 2, 2)))
    # two-row shapes survive in general
    two_rows = schur_at(Partition((2, 1)), plus_spec(3), route="e")
    assert not two_rows.is_zero()


def test_alternating_geometric_h():
    # h_n for the sign-twisted sum specialization: the alternating
    # antidiagonal; h_1 = y^-1 - x^-1, h_2 = x^-2 - x^-1 y^-1 + y^-2
    h1 = minus_spec_h_alternating(1)
    assert h1 == Laurent2(("x", "y"), {(0, -1): Rat(1), (-1, 0): Rat(-1)})
    h2 = minus_spec_h_alternating(2)
    assert h2 == Laurent2(("x", "y"), {(-2, 0): Rat(1), (-1, -1): Rat(-1),
                                       (0, -2): Rat(1)})
    assert minus_spec_h_alternating(0) == Laurent2.const(("x", "y"), 1)
    # Newton route on the twisted power sums reproduces them
    values = {k: Laurent2(("x", "y"), {(-k, 0): Rat((-1) ** k),
                                       (0, -k): Rat(1)})
              for k in range(1, 7)}
    spec = PowerSums(values, Laurent2.zero(("x", "y")),
                     Laurent2.const(("x", "y"), 1), 6)
    hs = spec.complete_homogeneous(6)
    for n in range(7):
        assert hs[n] == minus_spec_h_alternating(n)


def test_h_and_e_routes_agree_on_random_specs():
    rng = random.Random(7)
    for mu in partitions_up_to(10):
        spec = PowerSums.rational(
            {k: Rat(rng.randint(-5, 5), rng.randint(1, 4))
             for k in range(1, max(mu.weight, 1) + 1)})
        assert schur_at(mu, spec, "h") == schur_at(mu, spec, "e"), mu


def test_against_tableau_expansion_oracle():
    rng = random.Random(11)
    for mu in partitions_up_to(6):
        if not mu.parts:
            continue
        xs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(mu.weight)]
        powers = {k: sum((x ** k for x in xs), Fraction(0))
                  for k in range(1, mu.weight + 1)}
        spec = PowerSums.rational(powers)
        assert schur_at(mu, spec) == schur_brute(mu, xs), mu


def test_exponential_specialization_counts_tableaux():
    # p_1 = 1 and p_k = 0 otherwise picks out (number of standard
    # tableaux) / |mu|!
    for mu in partitions_up_to(6):
        if not mu.parts:
            continue
        spec = PowerSums.rational({1: Rat(1)}, bound=mu.weight)
        expected = Rat(standard_tableaux_count(mu),
                       math.factorial(mu.weight))
        assert schur_at(mu, spec) == expected, mu


def test_empty_partition_convention():
    spec = PowerSums.rational({1: Rat(5)})
    assert schur_at(Partition(()), spec) == Rat(1)


def test_insufficient_bound_error():
    spec = PowerSums.rational({1: Rat(1)}, bound=2)
    with pytest.raises(InsufficientCutoffError):
        schur_at(Partition((3, 1)), spec)


def test_minus_spec_values_are_laurent():
    spec = minus_spec(4)
    p2 = spec.p(2)
    assert p2.coeff(0, -2) == 1 and p2.coeff(-2, 0) == -1


def _rational_spec(seed, bound):
    rng = random.Random(seed)
    return PowerSums.rational({k: Rat(rng.randint(-5, 5), rng.randint(1, 4))
                               for k in range(1, bound + 1)})


def test_generators_are_cached_and_returned_as_copies():
    spec = _rational_spec(31, 9)
    for kmax in (3, 9, 5):
        fresh = _rational_spec(31, 9)
        assert spec.complete_homogeneous(kmax) == \
            fresh.complete_homogeneous(kmax)
        assert spec.elementary(kmax) == fresh.elementary(kmax)
        assert len(spec.complete_homogeneous(kmax)) == kmax + 1
    # lists reaching the end of the cache and lists short of it
    for kmax in (9, 6):
        hs = spec.complete_homogeneous(kmax)
        es = spec.elementary(kmax)
        expected_h, expected_e = list(hs), list(es)
        hs[2] = Rat(999)
        hs.append(Rat(7))
        es.clear()
        assert spec.complete_homogeneous(kmax) == expected_h
        assert spec.elementary(kmax) == expected_e
        assert spec.complete_homogeneous(9) == \
            _rational_spec(31, 9).complete_homogeneous(9)
        assert spec.elementary(9) == _rational_spec(31, 9).elementary(9)


def test_generators_past_bound_still_raise():
    spec = _rational_spec(37, 4)
    expected = spec.complete_homogeneous(4)
    with pytest.raises(InsufficientCutoffError):
        spec.complete_homogeneous(5)
    with pytest.raises(InsufficientCutoffError):
        spec.elementary(6)
    assert spec.complete_homogeneous(4) == expected
    assert spec.elementary(4) == _rational_spec(37, 4).elementary(4)


def test_shared_spec_matches_fresh_spec_per_partition():
    spec = _rational_spec(41, 8)
    for mu in partitions_up_to(8):
        for route in ("h", "e"):
            assert schur_at(mu, spec, route) == \
                schur_at(mu, _rational_spec(41, 8), route), (mu, route)


def test_character_at_identity_counts_standard_tableaux():
    for mu in partitions_up_to(10):
        identity = Partition((1,) * mu.weight)
        assert character(mu, identity) == standard_tableaux_count(mu), mu


def _centralizer_order(rho: Partition) -> int:
    """z_rho = prod_k k^(m_k) m_k!."""
    return math.prod(k ** rho.parts.count(k) * math.factorial(
        rho.parts.count(k)) for k in set(rho.parts))


def test_character_column_orthogonality():
    for n in range(11):
        shapes = list(partitions_of(n))
        table = {(mu, rho): character(mu, rho)
                 for mu in shapes for rho in shapes}
        for rho in shapes:
            for sigma in shapes:
                total = sum(table[mu, rho] * table[mu, sigma]
                            for mu in shapes)
                expected = _centralizer_order(rho) if rho == sigma else 0
                assert total == expected, (rho, sigma)


def test_character_examples():
    # chi^(2,1) on the classes of S_3, and a sign from a vertical strip
    assert [character(Partition((2, 1)), Partition(rho))
            for rho in ((1, 1, 1), (2, 1), (3,))] == [2, 0, -1]
    assert character(Partition((1, 1, 1)), Partition((3,))) == 1
    assert character(Partition((2, 2)), Partition((3, 1))) == -1
    assert character(Partition(()), Partition(())) == 1


def test_shorter_route_picks_the_smaller_determinant():
    assert shorter_route(Partition(())) == "h"
    assert shorter_route(Partition((3, 1))) == "h"
    assert shorter_route(Partition((2, 2))) == "h"
    assert shorter_route(Partition((1, 1, 1))) == "e"
    for arm in range(5):
        for leg in range(5):
            hook = Partition.hook(arm, leg)
            assert shorter_route(hook) == ("h" if leg <= arm else "e")
