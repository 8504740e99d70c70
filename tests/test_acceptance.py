"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance is exact rational equality; the two stated runtime budgets
are asserted with wall-clock measurements.  Run with ``pytest -s`` to see
the per-criterion lines, or via ``airytau verify --suite all`` for the
equivalent named checks.
"""

from __future__ import annotations

import random
import time

from airytau.airy import (airy_frame, check_all_routes, kernel_diagonal,
                          slope_series, wave_series)
from airytau.grassmann import AdmissibleFrame, tau_plus_two_point
from airytau.npoint import (NPointEngine, genus0_check, genus_of,
                            intersection_number, puncture_check)
from airytau.partitions import partitions_up_to
from airytau.rational import Rat
from airytau.schur import (hook_minus_identity_check, plus_spec_tall_vanishing,
                           PowerSums, schur_at)
from airytau.series import Laurent2
from airytau.verify import (DIAGONAL_VALUES, KERNEL_BLOCKS,
                            SUM_SPEC_HEADLINE, _random_valid_keys,
                            dvv_correlator)
from airytau.wave import (TruncatedTau, differential_fay_check,
                          matrix_one_point_series, matrix_two_point_coeff,
                          one_point_expressions, reliable_weight_cap,
                          shifted_fay_check, theorem_one_point_check,
                          wave, wave_pairing_check)
from airytau.npoint import free_energy

from oracles import (_RandomKernel, disconnected_family_brute,
                     mobius_connect_brute, mobius_disconnect_brute)


def _report(number: int, text: str) -> None:
    print(f"[acceptance {number}] PASS: {text}")


def test_criterion_1_kernel_route_equality():
    start = time.monotonic()
    kernel = check_all_routes(12)
    elapsed = time.monotonic() - start
    assert kernel.cutoff == 12
    assert elapsed < 60.0, f"route check took {elapsed:.1f}s"
    _report(1, f"four kernel routes agree entry-wise for 0 <= m,n <= 12 "
               f"({elapsed:.2f}s)")


def test_criterion_2_kernel_block_values(kernel12):
    for (m, n), expected in KERNEL_BLOCKS.items():
        assert kernel12.entry(m, n) == expected, (m, n)
    listed = {(m, n) for (m, n) in kernel12.table if m + n <= 8}
    assert listed == set(KERNEL_BLOCKS)
    _report(2, "all 18 listed kernel entries through the m+n=8 block "
               "reproduced exactly")


def test_criterion_3_diagonal_series():
    series = kernel_diagonal(16)
    for exp, expected in DIAGONAL_VALUES.items():
        assert series.coeff(-exp) == expected
    for g, expected in ((1, Rat(1, 8)), (2, Rat(105, 128)),
                        (3, Rat(25025, 1024))):
        from airytau.airy import diagonal_closed_coeff

        assert diagonal_closed_coeff(g) == expected
    _report(3, "diagonal one-point coefficients 1/8, 105/128, 25025/1024 "
               "match the double-factorial closed form")


def test_criterion_4_derivative_pairing_identity():
    from airytau.airy import faber_zagier_identity_check

    assert faber_zagier_identity_check(24)
    _report(4, "wave/slope derivative pairing identity verified through "
               "order 24")


def test_criterion_5_intersection_numbers(engine, engine_deep):
    start = time.monotonic()
    assert intersection_number(engine, (0, 0, 0)) == 1
    assert intersection_number(engine, (1,)) == Rat(1, 24)
    assert intersection_number(engine, (4,)) == Rat(1, 1152)
    assert intersection_number(engine, (7,)) == Rat(1, 82944)
    for n in (3, 4, 5):
        assert genus0_check(engine, n)
    rng = random.Random(424242)
    keys = _random_valid_keys(rng, 20, 9, 6, require_zero=True)
    assert len(keys) == 20
    for ms in keys:
        assert puncture_check(engine_deep, ms), ms
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"intersection suite took {elapsed:.1f}s"
    _report(5, f"one-point values, genus-zero suite (n <= 5) and 20 "
               f"puncture keys verified ({elapsed:.1f}s)")


def test_criterion_6_two_point_vs_oracle(engine):
    checked = 0
    for m1 in range(9):
        for m2 in range(m1, 9 - m1):
            ms = (m1, m2)
            if genus_of(ms) is None:
                continue
            assert intersection_number(engine, ms) == dvv_correlator(ms), ms
            checked += 1
    assert checked >= 5
    _report(6, f"connected two-point values match the independent "
               f"recursion oracle for all {checked} pairs with "
               f"m1 + m2 <= 8")


def test_criterion_7_schur_machinery():
    for arm in range(9):
        for leg in range(9):
            assert hook_minus_identity_check(arm, leg), (arm, leg)
    rng = random.Random(777)
    pool = [mu for mu in partitions_up_to(10) if mu.length > 2]
    for mu in rng.sample(pool, 30):
        assert plus_spec_tall_vanishing(mu), mu
    for mu in partitions_up_to(8):
        spec = PowerSums.rational(
            {k: Rat(rng.randint(-6, 6), rng.randint(1, 4))
             for k in range(1, max(mu.weight, 1) + 1)})
        assert schur_at(mu, spec, "h") == schur_at(mu, spec, "e"), mu
    _report(7, "hook identity (m,n <= 8), 30 tall vanishing cases, and "
               "h/e determinant agreement verified")


def test_criterion_8_sum_specialization():
    weight = 13
    frame = AdmissibleFrame(airy_frame(16, 3 * 15 + 6))
    coords = frame.normalize(14)
    tp = tau_plus_two_point(coords, weight)
    a = wave_series(3 * weight)
    bt = slope_series(3 * weight).shift(-1)
    delta = Laurent2(("x", "y"), {(-1, 0): Rat(1), (0, -1): Rat(-1)})
    lhs = delta.mul(tp)
    cells: dict[tuple[int, int], Rat] = {}
    for j in range(weight // 3 + 2):
        for k in range(weight // 3 + 2):
            c = a.get(-3 * j) * bt.get(-3 * k)
            if c == 0:
                continue
            cells[(-3 * j - 1, -3 * k)] = \
                cells.get((-3 * j - 1, -3 * k), Rat(0)) + c
            cells[(-3 * k, -3 * j - 1)] = \
                cells.get((-3 * k, -3 * j - 1), Rat(0)) - c
    rhs = Laurent2(("x", "y"), cells)
    for key in set(lhs.coeffs) | set(rhs.coeffs):
        if -(key[0] + key[1]) <= weight + 1:
            assert lhs.coeff(*key) == rhs.coeff(*key), key
    assert lhs.coeff(-13, 0) == SUM_SPEC_HEADLINE[0]
    assert lhs.coeff(-1, -12) == SUM_SPEC_HEADLINE[1]
    _report(8, "sum-shift specialization reproduces the listed expansion "
               "including the weight-13 headline blocks")


def test_criterion_9_kdv_wave_layer(engine, tau9, tau12, tau15):
    # wave series at the origin through order 12
    stripped = wave(tau12).eval_zero()
    c = wave_series(12).negate_var()
    assert stripped.agrees_with(c.rename("xi"), through=12)
    # pairing at the stated degree/index caps
    f = free_energy(engine, 9, index_cap=9, degree_cap=3)
    capped = TruncatedTau(f.exp(), f,
                          reliable_weight_cap(degree_cap=3, index_cap=9),
                          9)
    assert wave_pairing_check(capped)
    assert wave_pairing_check(tau12)
    # the three one-point wave expressions agree mutually and with the
    # ladder-plus-gradient side
    assert theorem_one_point_check(tau12)
    exprs = one_point_expressions(tau12)
    assert exprs[0].agrees_with(exprs[1]) and exprs[1].agrees_with(exprs[2])
    # differential Fay identities through shift bidegree (3, 3)
    assert differential_fay_check(tau9, (3, 3))
    assert shifted_fay_check(tau9, (3, 3))
    # matrix data against the engine at the lowest two orders
    one_point = matrix_one_point_series(tau12)
    assert one_point.coeff(-6) == engine.connected((1, 5))
    assert one_point.coeff(-12) == engine.connected((1, 11))
    for j, k in ((1, 5), (3, 3), (5, 1)):
        assert matrix_two_point_coeff(tau12, j, k) == \
            engine.connected((j, k))
    for j, k in ((1, 11), (3, 9), (5, 7), (7, 5), (9, 3), (11, 1)):
        assert matrix_two_point_coeff(tau15, j, k) == \
            engine.connected((j, k))
    _report(9, "wave layer: origin series, -2xi pairing, one-point "
               "expressions, Fay identities, and matrix one/two-point "
               "data all verified")


def test_criterion_10_property_suites(engine):
    rng = random.Random(5150)
    keys = _random_valid_keys(rng, 20, 8, 4)
    for ms in keys:
        js = [2 * m + 1 for m in ms]
        rng.shuffle(js)
        shuffled = engine.connected(tuple(js))
        assert shuffled == engine.connected(tuple(sorted(js))), ms
        base = engine.connected_at(tuple(js), engine.cutoff)
        grown = engine.connected_at(tuple(js), engine.cutoff + 3)
        assert base == grown, ms
    kernel = engine.kernel()
    for js in ((1, 5), (1, 1, 1), (1, 1, 1, 3)):
        family = disconnected_family_brute(kernel, js)
        connected = mobius_connect_brute(family)
        assert connected[frozenset(range(len(js)))] == \
            engine.connected(js), js
        assert mobius_disconnect_brute(connected) == family
    rand = _RandomKernel(random.Random(99), 4)
    probe = NPointEngine(lambda m: rand, 4)
    for js in ((2, 3), (1, 2, 2), (1, 1, 2, 3)):
        family = disconnected_family_brute(rand, js)
        connected = mobius_connect_brute(family)
        assert connected[frozenset(range(len(js)))] == \
            probe.connected_at(js, 4), js
        assert mobius_disconnect_brute(connected) == family
    _report(10, "permutation symmetry, truncation stability, cycle vs "
                "determinant equivalence, and inversion round-trips hold")
