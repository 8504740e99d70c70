from __future__ import annotations

import json
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airytau import wave as wave_module
from airytau.errors import InsufficientCutoffError, InvalidKeyError
from airytau.multipoly import MultiPoly, mono_str
from airytau.npoint import free_energy
from airytau.rational import Rat, format_rat
from airytau.series import Laurent2
from airytau.wave import (DIFFERENTIAL_FAY, INF, SHIFTED_FAY, TruncatedTau,
                          WaveSeries, bilinear_matrix,
                          differential_fay_check, dual_wave, fay_sides,
                          gradient_series, matrix_one_point_series,
                          matrix_two_point_coeff, one_point_expressions,
                          padded_weight_cap, reliable_weight_cap,
                          shifted_fay_check, shifted_tau,
                          tau_from_free_energy, theorem_one_point_check,
                          time_ladder, wave, wave_pairing_check, wronskian)
from oracles import (airy_pair_fraction, assert_lowest_terms, fraction_agrees,
                     fraction_combine, fraction_dx, fraction_dxi,
                     fraction_shift, full_product_pruned,
                     geometric_inv_diff_squares_sq, outer, prune_terms,
                     sato_quotient_cells, shifted_tau_terms)


GOLDEN = Path(__file__).parent / "golden" / "wave_layer.json"


def _cells(series):
    """Terms grouped by shift depths: {key: {monomial: coefficient}}."""
    cells = {}
    for (key, mono), c in series.terms.items():
        cells.setdefault(key, {})[mono] = c
    return cells


def _terms(cells):
    """Terms of {key: MultiPoly} cells."""
    return {(key, mono): c for key, poly in cells.items()
            for mono, c in poly.terms.items()}


def _xi_cells(series):
    """One-variable cells keyed by xi exponent: depth k is the xi^(-k)
    cell."""
    return {-k: terms for (k,), terms in _cells(series).items()}


def vacuum_tau(weight=9):
    return TruncatedTau(MultiPoly.const(1, weight_cap=weight),
                        MultiPoly.zero(weight_cap=weight), weight, weight)


def test_vacuum_wave_is_bare_exponential():
    w = wave(vacuum_tau())
    assert w.tag == 1
    assert list(_xi_cells(w)) == [0]
    assert _xi_cells(w)[0] == MultiPoly.const(1).terms
    ws = dual_wave(vacuum_tau())
    assert ws.tag == -1


def test_vacuum_exponential_pairing():
    # {e^(x xi), e^(-x xi)} = -2 xi
    assert wave_pairing_check(vacuum_tau())


def test_wave_normalization(tau12):
    stripped = wave(tau12).eval_zero()
    assert stripped.coeff(0) == 1


def test_wave_at_origin_matches_alternating_series(tau12):
    stripped = wave(tau12).eval_zero()
    reference = airy_pair_fraction(12, alternating=True)[0].rename("xi")
    assert stripped.agrees_with(reference, through=12)


def test_wave_x_derivative_at_origin(tau12):
    # the mixed constant: d/dx of the wave at the origin is the
    # alternating slope series
    slope = wave(tau12).dx().eval_zero()
    reference = airy_pair_fraction(12, alternating=True)[1].rename("xi")
    assert slope.agrees_with(reference, through=11)


def test_wronskian_antisymmetry(tau9):
    w = wave(tau9)
    self_pair = wronskian(w, w)
    assert all(not cell for cell in _xi_cells(self_pair).values())


def test_pairing_equals_minus_two_xi(tau12):
    assert wave_pairing_check(tau12)


def test_one_point_identity_vacuum():
    tau = vacuum_tau()
    lhs = time_ladder(tau) + gradient_series(tau)
    for expr in one_point_expressions(tau):
        assert lhs.agrees_with(expr)


def test_one_point_identity_airy(tau12):
    assert theorem_one_point_check(tau12)


def test_one_point_expressions_match_diagonal(tau12):
    # at the origin every expression reduces to the kernel diagonal
    from airytau.airy import kernel_diagonal

    diag = kernel_diagonal(10)
    for expr in one_point_expressions(tau12):
        series = expr.eval_zero()
        assert series.agrees_with(diag, through=10)


def test_two_point_data_in_gradient(tau12, engine):
    lhs = time_ladder(tau12) + gradient_series(tau12)
    cell = _xi_cells(lhs)[-6][((1, 1),)]
    assert cell == engine.connected((1, 5))


def test_differential_fay_trivial_and_toy():
    # tau = 1: both sides vanish
    assert differential_fay_check(vacuum_tau(), (3, 3))
    # tau = exp(T_1)
    f = MultiPoly.var(1, weight_cap=8)
    toy = TruncatedTau(f.exp(), f, 8, 1)
    assert differential_fay_check(toy, (3, 3))
    assert shifted_fay_check(toy, (3, 3))


def test_differential_fay_airy(tau9):
    assert differential_fay_check(tau9, (3, 3))
    assert shifted_fay_check(tau9, (3, 3))


def test_fay_reach_error(tau9):
    from airytau.errors import InsufficientCutoffError

    with pytest.raises(InsufficientCutoffError):
        differential_fay_check(tau9, (6, 6))


def test_theta_requires_kdv():
    f = MultiPoly.var(2, weight_cap=6)
    non_kdv = TruncatedTau(f.exp(), f, 6, 6)
    with pytest.raises(InvalidKeyError):
        bilinear_matrix(non_kdv)


def test_theta_vacuum_entries():
    theta = bilinear_matrix(vacuum_tau())
    assert theta[0][0].is_zero()
    assert theta[1][1].is_zero()
    assert theta[0][1].coeffs == {0: Rat(-1)}
    assert theta[1][0].coeffs == {2: Rat(-1)}


def test_theta_is_traceless(tau9):
    theta = bilinear_matrix(tau9)
    assert not theta[0][0].is_zero()
    assert (theta[0][0] + theta[1][1]).is_zero()


def _theta_oracle(tau):
    """Theta from the T-dependent wave pair: the products and
    x-derivatives of ``wave`` and ``dual_wave``, then T = 0, in z."""
    w, ws = wave(tau), dual_wave(tau)
    product = w * ws
    product_x = product.dx()
    rows = ((product_x.scale(Rat(-1, 2)), product.scale(-1)),
            (w.dx() * ws.dx(), product_x.scale(Rat(1, 2))))
    return tuple(tuple(entry.eval_zero().rename("z") for entry in row)
                 for row in rows)


def _oracle_taus(tau9, tau12, tau15, engine):
    fdeg = free_energy(engine, 9, index_cap=9, degree_cap=3)
    t1 = MultiPoly.var(1, weight_cap=8)
    return {
        "tau9": tau9,
        "tau12": tau12,
        "tau15": tau15,
        "tau12_unpadded": tau_from_free_energy(tau12.free_energy, 12),
        "degree_capped": TruncatedTau(
            fdeg.exp(), fdeg, reliable_weight_cap(degree_cap=3, index_cap=9),
            9),
        "toy_exp_t1": TruncatedTau(t1.exp(), t1, 8, 1),
        "vacuum": vacuum_tau(),
    }


def test_theta_matches_wave_product_oracle(tau9, tau12, tau15, engine):
    for name, tau in _oracle_taus(tau9, tau12, tau15, engine).items():
        theta = bilinear_matrix(tau)
        assert theta == _theta_oracle(tau), name
        cap = tau.weight_cap
        assert [[s.order for s in row] for row in theta] == \
            [[cap - 1, cap], [cap - 2, cap - 1]], name


def test_two_point_sum_matches_trace_oracle(tau9, tau12, tau15, engine):
    # the trace of Theta(z1) Theta(z2) times the expansion of
    # 1/(z1^2 - z2^2)^2, read at one cell, on every pair through the cap;
    # the sum reads down to z^(-(j + k)) and the smallest entry order is
    # W - 2, so pairs with j + k > W - 2 raise, and so do orders below 1
    pair = ("z1", "z2")
    for name, tau in _oracle_taus(tau9, tau12, tau15, engine).items():
        cap = tau.weight_cap
        theta = _theta_oracle(tau)
        trace = Laurent2.zero(pair)
        for r in range(2):
            for c in range(2):
                trace = trace + outer(theta[r][c].rename("z1"),
                                      theta[c][r].rename("z2"))
        product = trace.mul(geometric_inv_diff_squares_sq(pair, cap))
        for j in range(-3, cap + 1):
            for k in range(-3, cap + 1):
                if j < 1 or k < 1:
                    with pytest.raises(InvalidKeyError):
                        matrix_two_point_coeff(tau, j, k)
                elif j + k > cap - 2:
                    with pytest.raises(InsufficientCutoffError):
                        matrix_two_point_coeff(tau, j, k)
                else:
                    assert matrix_two_point_coeff(tau, j, k) == \
                        product.coeff(-j - 1, -k - 1), (name, j, k)


def test_matrix_one_point_matches_engine(tau12, engine):
    series = matrix_one_point_series(tau12)
    assert series.coeff(-6) == engine.connected((1, 5))
    assert series.coeff(-12) == engine.connected((1, 11))
    assert series.coeff(-4) == 0


def test_matrix_two_point_matches_engine(tau12, engine):
    for j, k in ((1, 5), (3, 3), (5, 1)):
        assert matrix_two_point_coeff(tau12, j, k) == \
            engine.connected((j, k))


@pytest.mark.parametrize("j, k", [(0, 5), (-3, 5), (5, 0), (1, -1)])
def test_matrix_two_point_refuses_orders_below_one(tau12, engine, j, k):
    # (1, 5) is served above; an order below 1 is refused as the engine
    # refuses it, not answered with 0
    with pytest.raises(InvalidKeyError) as wave_err:
        matrix_two_point_coeff(tau12, j, k)
    with pytest.raises(InvalidKeyError) as engine_err:
        engine.connected((j, k))
    assert str(wave_err.value) == str(engine_err.value)


def test_matrix_two_point_deep_block(tau15, engine):
    for j, k in ((1, 11), (3, 9), (5, 7)):
        assert matrix_two_point_coeff(tau15, j, k) == \
            engine.connected((j, k))


def test_wave_satisfies_spectral_square(tau12):
    # second x-derivative: w_xx = (xi^2 - 2 u) w with u the second
    # x-derivative of the free energy (the 2-reduction at wave level)
    w = wave(tau12)
    w_xx = w.dx().dx()
    u = tau12.free_energy.deriv(1).deriv(1)
    u_wave = WaveSeries(0, _terms({(0,): u}), tau12.weight_cap - 2, 0)
    rhs = w.shift(-2) - (u_wave * w).scale(2)
    assert w_xx.agrees_with(rhs)


def test_reliable_weight_cap():
    assert reliable_weight_cap(degree_cap=3) == 5
    assert reliable_weight_cap(degree_cap=3, index_cap=9) == 5
    assert reliable_weight_cap(index_cap=9) == 11
    # recorded before the key search moved onto npoint.valid_keys
    caps = (0, 1, 2, 3, 4, 5, 10, 11, 16, 17, 23, 24)
    assert [reliable_weight_cap(index_cap=j) for j in caps] == \
        [2, 2, 2, 5, 5, 8, 11, 14, 17, 20, 26, 26]
    assert reliable_weight_cap() is None
    assert padded_weight_cap(15) == 17
    assert padded_weight_cap(9) == 11


def test_degree_capped_pairing(engine):
    f = free_energy(engine, 9, index_cap=9, degree_cap=3)
    cap = reliable_weight_cap(degree_cap=3, index_cap=9)
    tau = TruncatedTau(f.exp(), f, cap, 9)
    assert wave_pairing_check(tau)


def test_tau_constant_term_validation():
    with pytest.raises(InvalidKeyError):
        TruncatedTau(MultiPoly.zero(weight_cap=3),
                     MultiPoly.zero(weight_cap=3), 3, 3)


def test_tau_from_free_energy_invariants(engine):
    f = free_energy(engine, 9)
    tau = tau_from_free_energy(f, padded_weight_cap(9))
    assert tau.poly.constant == 1
    assert tau.is_kdv()
    # three-point cube: coefficient of T_1^3 is 1/6
    assert tau.poly.coeff(((1, 3),)) == Rat(1, 6)


# ---------------------------------------------------------------------------
# Products truncate at the TW cap while multiplying: the cells must equal the
# full product pruned afterwards.
# ---------------------------------------------------------------------------

def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        mono = {}
        for _ in range(rng.randint(0, 3)):
            idx = rng.choice((1, 2, 3, 5))
            mono[idx] = mono.get(idx, 0) + rng.randint(1, 2)
        terms[tuple(sorted(mono.items()))] = Fraction(rng.randint(-9, 9),
                                                      rng.randint(1, 6))
    return MultiPoly(terms)


def _random_meta(rng):
    """A TW cap (INF for about 40%, so both factors of some products are
    uncapped) and a TW floor."""
    cap = INF if rng.random() < 0.4 else rng.randint(-2, 12)
    return cap, rng.randint(-4, 4)


def _random_wave(rng):
    cap, twmin = _random_meta(rng)
    exps = rng.sample(range(-6, 5), rng.randint(1, 5))
    return WaveSeries(rng.choice((-1, 0, 1)),
                      _terms({(-e,): _random_poly(rng) for e in exps}), cap,
                      twmin)


def _random_shift(rng):
    cap, twmin = _random_meta(rng)
    keys = {(rng.randint(-1, 3), rng.randint(-1, 3))
            for _ in range(rng.randint(1, 5))}
    return WaveSeries(0, _terms({key: _random_poly(rng) for key in keys}),
                      cap, twmin)


def _product_cap(a, b):
    return min(INF if a.cap >= INF else a.cap + b.twmin,
               INF if b.cap >= INF else b.cap + a.twmin)


def _cell_cap(cap, offset):
    return None if cap >= INF else cap + offset


@pytest.mark.parametrize("seed", range(40))
def test_wave_product_equals_full_product_then_prune(seed):
    rng = random.Random(seed)
    a, b = _random_wave(rng), _random_wave(rng)
    index_cap = rng.choice((1, 3, 5))
    cap = _product_cap(a, b)
    prod = a * b
    assert (prod.tag, prod.cap, prod.twmin) == (a.tag + b.tag, cap,
                                                a.twmin + b.twmin)
    assert _xi_cells(prod) == full_product_pruned(
        _xi_cells(a), _xi_cells(b), operator.add,
        lambda e: _cell_cap(cap, e))

    # dxi multiplies by the prefactor ladder tag * sum n T_n xi^(n-1)
    termwise = {e - 1: {m: c * e for m, c in p.items()}
                for e, p in _xi_cells(a).items() if e != 0}
    ladder = {n - 1: {((n, 1),): Fraction(n * a.tag)}
              for n in range(1, index_cap + 1, 2)} if a.tag else {}
    merged = full_product_pruned(_xi_cells(a), ladder, operator.add,
                                 lambda e: None)
    for e, cell in termwise.items():
        bucket = merged.setdefault(e, {})
        for m, c in cell.items():
            bucket[m] = bucket.get(m, Fraction(0)) + c
    dcap = INF if a.cap >= INF else a.cap + 1
    expected = full_product_pruned(merged, {0: {(): Fraction(1)}},
                                   operator.add, lambda e: _cell_cap(dcap, e))
    assert _xi_cells(a.dxi(index_cap)) == expected


@pytest.mark.parametrize("seed", range(40))
def test_shift_product_equals_full_product_then_prune(seed):
    rng = random.Random(seed)
    a, b = _random_shift(rng), _random_shift(rng)
    cap = _product_cap(a, b)
    prod = a * b
    assert (prod.cap, prod.twmin) == (cap, a.twmin + b.twmin)
    assert _cells(prod) == full_product_pruned(
        _cells(a), _cells(b),
        lambda x, y: (x[0] + y[0], x[1] + y[1]),
        lambda key: _cell_cap(cap, -key[0] - key[1]))


def test_wave_quotients_match_full_product_oracle(tau12):
    # weights of the 2-reduced tau are multiples of 3, so the padded cap of
    # tau12 hides cap errors of up to 2; the unpadded and toy taus do not
    toy = MultiPoly({((1, 1),): Fraction(1), ((1, 1), (3, 1)): Fraction(1, 2)},
                    weight_cap=8)
    taus = (tau12, tau_from_free_energy(tau12.free_energy, 12),
            TruncatedTau(toy.exp(), toy, 8, 3))
    for tau in taus:
        inverse = dict(tau.poly.inverse().terms)
        for build, direction, tag in ((wave, -1, 1), (dual_wave, 1, -1)):
            w = build(tau)
            assert (w.tag, w.cap, w.twmin) == (tag, tau.weight_cap, 0)
            assert _xi_cells(w) == sato_quotient_cells(
                tau.poly.terms, inverse, tau.weight_cap, direction)


def test_theta_at_zero_built_once_per_tau(tau9, engine, monkeypatch):
    builds = []
    original = wave_module.bilinear_matrix

    def counting(tau):
        builds.append(tau)
        return original(tau)

    monkeypatch.setattr(wave_module, "bilinear_matrix", counting)

    def fresh():
        # tau9 is shared across tests and may already hold its matrix
        return TruncatedTau(tau9.poly, tau9.free_energy, tau9.weight_cap,
                            tau9.index_cap)

    pairs = ((1, 5), (3, 3), (5, 1))
    tau = fresh()
    series = matrix_one_point_series(tau)
    values = [matrix_two_point_coeff(tau, j, k) for j, k in pairs]
    assert values == [engine.connected(pair) for pair in pairs]
    # W = 11 serves j + k <= 9
    assert matrix_two_point_coeff(tau, 1, 7) == engine.connected((1, 7))
    with pytest.raises(InsufficientCutoffError):
        matrix_two_point_coeff(tau, 1, 9)
    assert len(builds) == 1 and builds[0] is tau

    twin = fresh()
    assert twin == tau and twin is not tau
    assert [matrix_two_point_coeff(twin, j, k) for j, k in pairs] == values
    assert matrix_one_point_series(twin) == series
    with pytest.raises(InsufficientCutoffError):
        matrix_two_point_coeff(twin, 9, 1)
    assert len(builds) == 2 and builds[1] is twin

    f = MultiPoly.var(2, weight_cap=6)
    non_kdv = TruncatedTau(f.exp(), f, 6, 6)
    for _ in range(2):
        with pytest.raises(InvalidKeyError):
            matrix_one_point_series(non_kdv)
        with pytest.raises(InvalidKeyError):
            matrix_two_point_coeff(non_kdv, 1, 1)
    assert len(builds) == 6


def test_shifted_tau_embeds_one_variable_shift(tau9):
    t1 = MultiPoly.var(1, weight_cap=8)
    f = MultiPoly({((1, 1),): Fraction(1), ((1, 1), (3, 1)): Fraction(1, 2)},
                  weight_cap=8)
    toys = (TruncatedTau(t1.exp(), t1, 8, 1),
            TruncatedTau(f.exp(), f, 8, 3))
    for tau in (tau9,) + toys:
        for s in (1, -1):
            one = shifted_tau(tau, (s,))
            assert one.terms
            for signs, embed in (((s, 0), lambda k: (k, 0)),
                                 ((0, s), lambda k: (0, k))):
                two = shifted_tau(tau, signs)
                assert (two.tag, two.cap, two.twmin) == (0, tau.weight_cap, 0)
                assert _cells(two) == {embed(k): terms
                                       for (k,), terms in _cells(one).items()}


# ---------------------------------------------------------------------------
# Golden cells of the wave layer, recorded before the wave and shift
# containers were merged.  One-variable cells are keyed by xi exponent and
# Fay cells by the two shift depths, so the record does not depend on how
# the container stores its keys.
# ---------------------------------------------------------------------------

def _golden_record(series, xi):
    if xi:
        cells = sorted((-k, m, c) for ((k,), m), c in series.terms.items())
    else:
        cells = sorted((key, m, c) for (key, m), c in series.terms.items())
    return {"tag": series.tag,
            "cap": None if series.cap >= INF else series.cap,
            "twmin": series.twmin,
            "cells": [f"{k if xi else ','.join(map(str, k))} {mono_str(m)} "
                      f"{format_rat(c)}" for k, m, c in cells]}


def _golden_entries(tau):
    w, ws = wave(tau), dual_wave(tau)
    entries = {"wave": w, "dual_wave": ws,
               "wave_dxi": w.dxi(tau.index_cap),
               "dual_wave_dx": ws.dx(), "wronskian": wronskian(w, ws)}
    for i, expr in enumerate(one_point_expressions(tau)):
        entries[f"one_point_{i}"] = expr
    out = {name: _golden_record(series, True)
           for name, series in entries.items()}
    for label, signs in (("differential_fay", DIFFERENTIAL_FAY),
                         ("shifted_fay", SHIFTED_FAY)):
        lhs, rhs = fay_sides(tau, signs)
        out[f"{label}_lhs"] = _golden_record(lhs, False)
        out[f"{label}_rhs"] = _golden_record(rhs, False)
    return out


def test_wave_layer_matches_golden(tau9, tau12, engine):
    fdeg = free_energy(engine, 9, index_cap=9, degree_cap=3)
    toy = MultiPoly.var(1, weight_cap=8)
    taus = {
        "tau9": tau9,
        "tau12": tau12,
        "tau12_unpadded": tau_from_free_energy(tau12.free_energy, 12),
        "degree_capped": TruncatedTau(
            fdeg.exp(), fdeg, reliable_weight_cap(degree_cap=3, index_cap=9),
            9),
        "toy_exp_t1": TruncatedTau(toy.exp(), toy, 8, 1),
    }
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(taus)
    for name, tau in taus.items():
        assert _golden_entries(tau) == golden[name], name


def test_agrees_with_reads_exactly_the_reliable_cells_within_depth():
    base_terms = {((1, 1), ((1, 1),)): Fraction(1)}

    def plus(key, mono):
        terms = dict(base_terms)
        terms[key, mono] = terms.get((key, mono), Fraction(0)) + 1
        return WaveSeries(0, terms, INF, 0)

    base = WaveSeries(0, base_terms, 6, 0)
    # TW of the differing cell: weight 4 + depth 2 = 6 is read, 5 + 2 is not
    assert not base.agrees_with(plus((1, 1), ((1, 1), (3, 1))))
    assert base.agrees_with(plus((1, 1), ((1, 2), (3, 1))))
    # depth (1, 2) reads key (1, 2) but not (2, 1)
    assert not base.agrees_with(plus((1, 2), ((1, 1),)), (1, 2))
    assert base.agrees_with(plus((2, 1), ((1, 1),)), (1, 2))
    assert not base.agrees_with(plus((2, 1), ((1, 1),)))
    # a different prefactor never agrees
    assert not WaveSeries(1, {}, INF, 0).agrees_with(
        WaveSeries(0, {}, INF, 0))


# ---------------------------------------------------------------------------
# Integer numerators over one denominator: every operation equals the same
# operation on plain Fractions.
# ---------------------------------------------------------------------------

def _random_terms(rng, nvars, dens):
    """Random terms whose coefficient denominators come from ``dens``."""
    terms = {}
    for _ in range(rng.randint(0, 8)):
        key = tuple(rng.randint(-3, 4) for _ in range(nvars))
        mono = {}
        for _ in range(rng.randint(0, 3)):
            idx = rng.choice((1, 3, 5, 7))
            mono[idx] = mono.get(idx, 0) + rng.randint(1, 2)
        terms[key, tuple(sorted(mono.items()))] = Fraction(
            rng.randint(-12, 12), rng.choice(dens))
    return terms


def _cap_of(cap):
    return None if cap >= INF else cap


def _assert_lowest_terms(series):
    assert_lowest_terms(series)
    assert all(_cap_of(series.cap) is None or
               sum(k) + sum(i * e for i, e in m) <= series.cap
               for k, m in series.terms)


def _random_pair(rng, nvars):
    """Two series with the same tag and mismatched denominators."""
    tag = rng.choice((-1, 0, 1)) if nvars == 1 else 0
    out = []
    for dens in ((1, 2, 4, 8, 3, 9), (1, 5, 7, 25, 6, 49)):
        cap, twmin = _random_meta(rng)
        out.append(WaveSeries(tag, _random_terms(rng, nvars, dens), cap,
                              twmin))
    return out


@pytest.mark.parametrize("seed", range(30))
def test_integer_series_match_fraction_reference(seed):
    rng = random.Random(1000 + seed)
    nvars = 1 if seed % 2 else 2
    a, b = _random_pair(rng, nvars)
    for series in (a, b):
        _assert_lowest_terms(series)
    cap = min(a.cap, b.cap)
    for sign, result in ((1, a + b), (-1, a - b)):
        _assert_lowest_terms(result)
        assert (result.tag, result.cap, result.twmin) == \
            (a.tag, cap, min(a.twmin, b.twmin))
        assert result.terms == fraction_combine(a.terms, b.terms, sign,
                                                _cap_of(cap))
    factor = Fraction(rng.randint(-9, 9), rng.randint(1, 14))
    scaled = a.scale(factor)
    _assert_lowest_terms(scaled)
    assert scaled.terms == prune_terms(
        {term: c * factor for term, c in a.terms.items()}, None)
    deltas = tuple(rng.randint(-2, 2) for _ in range(nvars))
    shifted = a.shift(*deltas)
    _assert_lowest_terms(shifted)
    assert shifted.terms == fraction_shift(a.terms, deltas)
    assert (shifted.cap, shifted.twmin) == (
        INF if a.cap >= INF else a.cap + sum(deltas), a.twmin + sum(deltas))
    dx = a.dx()
    _assert_lowest_terms(dx)
    assert dx.terms == fraction_dx(a.terms, a.tag)
    if nvars == 1:
        index_cap = rng.choice((1, 3, 5))
        dxi = a.dxi(index_cap)
        _assert_lowest_terms(dxi)
        assert dxi.terms == fraction_dxi(a.terms, a.tag, index_cap)
    for depth in (None, (1,) * nvars, (3,) * nvars):
        assert a.agrees_with(b, depth) == fraction_agrees(
            a.terms, b.terms, _cap_of(cap), depth)


@pytest.mark.parametrize("seed", range(20))
def test_agrees_with_across_denominators(seed):
    rng = random.Random(2000 + seed)
    nvars = 1 if seed % 2 else 2
    a, _ = _random_pair(rng, nvars)
    cap = rng.randint(0, 8)
    base = WaveSeries(a.tag, a.terms, cap, a.twmin)
    # equal within the cap, differing beyond it with a new denominator
    beyond = ((cap + 1,) + (0,) * (nvars - 1), ((1, 1),))
    twin_terms = dict(base.terms)
    twin_terms[beyond] = Fraction(rng.choice((1, 2, 4, 5, 8)), 7 * 11)
    twin = WaveSeries(a.tag, twin_terms, INF, a.twmin)
    assert twin.den % 77 == 0
    assert base.agrees_with(twin) and twin.agrees_with(base)
    if base.num:
        term = rng.choice(sorted(base.terms))
        twin_terms[term] += Fraction(1, 13)
        changed = WaveSeries(a.tag, twin_terms, INF, a.twmin)
        assert not base.agrees_with(changed)
        assert base.agrees_with(changed, tuple(k - 1 for k in term[0]))


def _toy_odd_tau(weight_cap, poly_cap):
    """A tau in odd times up to T_9 with coefficient denominators 2 ... 9;
    with poly_cap above weight_cap, the polynomial holds monomials beyond
    the completeness cap, as a degree-capped tau does."""
    f = MultiPoly({((1, 1),): Fraction(1, 2), ((3, 1),): Fraction(-2, 3),
                   ((1, 1), (3, 1)): Fraction(3, 5), ((5, 1),): Fraction(1, 4),
                   ((7, 1),): Fraction(-5, 7), ((9, 1),): Fraction(2, 9),
                   ((1, 2), (5, 1)): Fraction(7, 6)}, weight_cap=poly_cap)
    return TruncatedTau(f.exp(), f, weight_cap, 9)


def test_shifted_tau_matches_fraction_reference():
    signs_list = [(s,) for s in (-1, 0, 1)] + \
        [(s, t) for s in (-1, 0, 1) for t in (-1, 0, 1)]
    for tau in (_toy_odd_tau(11, 11), _toy_odd_tau(9, 14)):
        for signs in signs_list:
            series = shifted_tau(tau, signs)
            _assert_lowest_terms(series)
            assert (series.tag, series.cap, series.twmin) == \
                (0, tau.weight_cap, 0)
            assert series.terms == shifted_tau_terms(
                tau.poly.terms, signs, tau.weight_cap), signs
            assert shifted_tau(tau, signs) is series


def test_one_wave_bundle_per_tau(tau9, monkeypatch):
    quotients, expansions = [], []
    for name, calls in (("_sato_quotient", quotients),
                        ("_shift_expansion", expansions)):
        original = getattr(wave_module, name)

        def counting(*args, original=original, calls=calls):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(wave_module, name, counting)
    tau = TruncatedTau(tau9.poly, tau9.free_energy, tau9.weight_cap,
                       tau9.index_cap)
    assert theorem_one_point_check(tau)
    assert wave_pairing_check(tau)
    assert len(quotients) == 2
    assert wave(tau) is wave(tau) and dual_wave(tau) is dual_wave(tau)
    # both Fay checks share (1, 0) and (0, 0): six expansions, not eight,
    # after the two behind the quotients
    assert differential_fay_check(tau, (3, 3))
    assert shifted_fay_check(tau, (3, 3))
    assert len(expansions) == 2 + len(set(DIFFERENTIAL_FAY + SHIFTED_FAY))
    assert len(quotients) == 2


# ---------------------------------------------------------------------------
# Property test: every operation on random series equals the same operation
# on plain Fraction terms.
# ---------------------------------------------------------------------------

def _series_terms(nvars):
    depths = st.tuples(*[st.integers(-6, 6)] * nvars)
    mono = st.dictionaries(st.integers(1, 13), st.integers(1, 3),
                           max_size=3).map(lambda m: tuple(sorted(m.items())))
    coeff = st.builds(Fraction, st.integers(1, 20).flatmap(
        lambda n: st.sampled_from((n, -n))), st.integers(1, 12))
    return st.dictionaries(st.tuples(depths, mono), coeff, max_size=8)


_caps = st.one_of(st.just(INF), st.integers(-4, 20))


@st.composite
def _series_pairs(draw):
    """(nvars, given terms and series) x 2 with one tag, random caps and
    TW floors."""
    nvars = draw(st.sampled_from((1, 2)))
    tag = draw(st.sampled_from((-1, 0, 1)))
    out = []
    for _ in range(2):
        terms = draw(_series_terms(nvars))
        out.append((terms, WaveSeries(tag, terms, draw(_caps),
                                      draw(st.integers(-4, 4)))))
    return nvars, out


@settings(max_examples=150, deadline=None)
@given(_series_pairs(), st.data())
def test_series_operations_match_fraction_oracles(pair, data):
    nvars, ((source_a, a), (source_b, b)) = pair
    for source, series in ((source_a, a), (source_b, b)):
        assert series.terms == prune_terms(source, _cap_of(series.cap))
        if series.cap >= INF:
            assert series.terms == source
    cap = _product_cap(a, b)
    assert _cells(a * b) == full_product_pruned(
        _cells(a), _cells(b), lambda x, y: tuple(map(operator.add, x, y)),
        lambda key: _cell_cap(cap, -sum(key)))
    both = min(a.cap, b.cap)
    assert (a + b).terms == fraction_combine(a.terms, b.terms, 1,
                                             _cap_of(both))
    assert (a - b).terms == fraction_combine(a.terms, b.terms, -1,
                                             _cap_of(both))
    deltas = data.draw(st.tuples(*[st.integers(-3, 3)] * nvars))
    assert a.shift(*deltas).terms == fraction_shift(a.terms, deltas)
    assert a.dx().terms == fraction_dx(a.terms, a.tag)
    if nvars == 1:
        index_cap = data.draw(st.sampled_from((9, 11, 13)))
        assert a.dxi(index_cap).terms == fraction_dxi(a.terms, a.tag,
                                                      index_cap)
    depth = data.draw(st.one_of(st.none(),
                                st.tuples(*[st.integers(-2, 4)] * nvars)))
    assert a.agrees_with(b, depth) == fraction_agrees(
        a.terms, b.terms, _cap_of(both), depth)
    twin = WaveSeries(a.tag, {**a.terms, **b.terms}, INF, a.twmin)
    assert a.agrees_with(twin, depth) == fraction_agrees(
        a.terms, twin.terms, _cap_of(a.cap), depth)


# ---------------------------------------------------------------------------
# The packed key's field widths: a term that does not fit is refused up
# front, and an operation whose result leaves a field is refused too.
# ---------------------------------------------------------------------------

_FIELDS = ("at most 2 shift depths in [-128, 127], time indices 1..32 with "
           "exponents 1..63")
_TOP = tuple((idx, 63) for idx in range(1, 33))


def _single(depths, mono, cap=INF):
    return WaveSeries(0, {(depths, mono): Fraction(1)}, cap, 0)


@pytest.mark.parametrize("depths, mono", [
    ((127,), ()), ((-128,), ()), ((127, -128), ()), ((0,), ((32, 1),)),
    ((0,), ((1, 63),)), ((127, 127), _TOP), ((-128, -128), _TOP)])
def test_packed_fields_hold_their_extremes(depths, mono):
    series = _single(depths, mono)
    assert series.terms == {(depths, mono): 1}
    # TW sits in the top field: the cap keeps the term at its TW, not below
    tw = sum(depths) + sum(idx * e for idx, e in mono)
    assert _single(depths, mono, tw).terms == series.terms
    assert _single(depths, mono, tw - 1).terms == {}


@pytest.mark.parametrize("depths, mono", [
    ((128,), ()), ((-129,), ()), ((0, 128), ()), ((0, 0, 0), ()),
    ((0,), ((33, 1),)), ((0,), ((0, 1),)), ((0,), ((1, 64),)),
    ((0,), ((1, 0),))])
def test_packed_fields_refuse_terms_that_do_not_fit(depths, mono):
    with pytest.raises(InvalidKeyError) as err:
        _single(depths, mono)
    assert str(err.value) == (f"wave term s^{depths}*{mono_str(mono)} does "
                              f"not fit a packed key: {_FIELDS}")


def test_operations_refuse_results_that_leave_a_field():
    left = f"a wave term left its packed key fields: {_FIELDS}"
    deep, shallow = _single((127,), ()), _single((-128,), ())
    t1 = _single((0,), ((1, 62),))
    # one step inside each edge still fits
    assert deep.shift(-1).terms == {((126,), ()): 1}
    assert shallow.shift(1).terms == {((-127,), ()): 1}
    assert (t1 * _single((0,), ((1, 1),))).terms == {((0,), ((1, 63),)): 1}
    for result in (lambda: deep.shift(1), lambda: shallow.shift(-1),
                   lambda: deep * _single((1,), ()),
                   lambda: shallow * _single((-1,), ()),
                   lambda: t1 * _single((0,), ((1, 2),))):
        with pytest.raises(InvalidKeyError) as err:
            result()
        assert str(err.value) == left
    with pytest.raises(InvalidKeyError) as err:
        deep.shift(128)
    assert str(err.value) == (f"wave term s^(128,)*1 does not fit a packed "
                              f"key: {_FIELDS}")


@pytest.mark.parametrize("mono", [((1, 63), (2, 33)), ((33, 1),)])
def test_shift_expansion_refuses_a_tau_whose_terms_do_not_fit(mono):
    # a weight of 129 is a depth of 129 past the depth field, and T_33 has
    # no field
    weight = sum(idx * e for idx, e in mono)
    poly = MultiPoly({(): Fraction(1), mono: Fraction(1)}, weight_cap=weight)
    tau = TruncatedTau(poly, MultiPoly.zero(weight_cap=weight), weight,
                       weight)
    with pytest.raises(InvalidKeyError) as err:
        shifted_tau(tau, (1,))
    assert str(err.value) == (f"wave term s^({weight},)*{mono_str(mono)} "
                              f"does not fit a packed key: {_FIELDS}")


def test_wave_pair_refuses_a_tau_beyond_the_wave_fields():
    def tau_with(index):
        poly = MultiPoly({(): Fraction(1), ((index, 1),): Fraction(1)},
                         weight_cap=index)
        return TruncatedTau(poly, MultiPoly.zero(weight_cap=index), index,
                            index)

    # 1/tau reaches the wave layer first, at depth 0
    with pytest.raises(InvalidKeyError) as err:
        wave(tau_with(33))
    assert str(err.value) == (f"wave term s^(0,)*T33 does not fit a packed "
                              f"key: {_FIELDS}")
    assert wave(tau_with(32)).cap == 32


def test_constructor_refuses_mixed_shift_variables():
    with pytest.raises(InvalidKeyError) as err:
        WaveSeries(0, {((0,), ()): Fraction(1), ((0, 0), ()): Fraction(1)},
                   INF, 0)
    assert str(err.value) == "wave terms mix shift variables {1, 2}"


def test_package_attribute_wave_is_the_module():
    import sys

    import airytau

    assert airytau.wave is sys.modules["airytau.wave"]
