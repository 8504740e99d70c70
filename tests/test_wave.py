from __future__ import annotations

import importlib
import json
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from airytau.airy import slope_series, wave_series
from airytau.errors import InsufficientCutoffError, InvalidKeyError
from airytau.multipoly import MultiPoly, mono_str
from airytau.npoint import free_energy
from airytau.rational import Rat, format_rat
from airytau.wave import (DIFFERENTIAL_FAY, INF, SHIFTED_FAY, TruncatedTau,
                          WaveSeries, bilinear_matrix,
                          differential_fay_check, dual_wave, fay_sides,
                          gradient_series, matrix_one_point_series,
                          matrix_two_point_coeff, one_point_expressions,
                          padded_weight_cap, reliable_weight_cap,
                          shifted_fay_check, shifted_tau,
                          tau_from_free_energy, theorem_one_point_check,
                          time_ladder, wave, wave_pairing_check, wronskian)
from oracles import full_product_pruned, sato_quotient_cells

# the package re-exports the function ``wave``, which shadows the module name
wave_module = importlib.import_module("airytau.wave")

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
                        MultiPoly.zero(weight_cap=weight), weight, weight,
                        "vacuum")


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
    reference = wave_series(12, alternating=True, var="xi")
    assert stripped.agrees_with(reference, through=12)


def test_wave_x_derivative_at_origin(tau12):
    # the mixed constant: d/dx of the wave at the origin is the
    # alternating slope series
    slope = wave(tau12).dx().eval_zero()
    reference = slope_series(12, alternating=True, var="xi")
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
    toy = TruncatedTau(f.exp(), f, 8, 1, "toy")
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
    non_kdv = TruncatedTau(f.exp(), f, 6, 6, "even time")
    with pytest.raises(InvalidKeyError):
        bilinear_matrix(non_kdv)


def test_theta_vacuum_entries():
    theta = bilinear_matrix(vacuum_tau())
    assert theta[0][0].eval_zero().is_zero()
    assert theta[1][1].eval_zero().is_zero()
    top_right = theta[0][1].eval_zero()
    assert top_right.coeffs == {0: Rat(-1)}
    bottom_left = theta[1][0].eval_zero()
    assert bottom_left.coeffs == {2: Rat(-1)}


def test_theta_is_traceless(tau9):
    theta = bilinear_matrix(tau9)
    trace = theta[0][0] + theta[1][1]
    assert all(not cell for cell in _xi_cells(trace).values())


def test_matrix_one_point_matches_engine(tau12, engine):
    series = matrix_one_point_series(tau12)
    assert series.coeff(-6) == engine.connected((1, 5))
    assert series.coeff(-12) == engine.connected((1, 11))
    assert series.coeff(-4) == 0


def test_matrix_two_point_matches_engine(tau12, engine):
    for j, k in ((1, 5), (3, 3), (5, 1)):
        assert matrix_two_point_coeff(tau12, j, k) == \
            engine.connected((j, k))


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
    u_wave = WaveSeries(0, _terms({(0,): u}), tau12.weight_cap - 2, 0,
                        tau12.index_cap)
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
    tau = TruncatedTau(f.exp(), f, cap, 9, "degree-capped")
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
                      twmin,
                      rng.choice((1, 3, 5)))


def _random_shift(rng):
    cap, twmin = _random_meta(rng)
    keys = {(rng.randint(-1, 3), rng.randint(-1, 3))
            for _ in range(rng.randint(1, 5))}
    return WaveSeries(0, _terms({key: _random_poly(rng) for key in keys}),
                      cap, twmin, 1)


def _product_cap(a, b):
    return min(INF if a.cap >= INF else a.cap + b.twmin,
               INF if b.cap >= INF else b.cap + a.twmin)


def _cell_cap(cap, offset):
    return None if cap >= INF else cap + offset


@pytest.mark.parametrize("seed", range(40))
def test_wave_product_equals_full_product_then_prune(seed):
    rng = random.Random(seed)
    a, b = _random_wave(rng), _random_wave(rng)
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
              for n in range(1, a.index_cap + 1, 2)} if a.tag else {}
    merged = full_product_pruned(_xi_cells(a), ladder, operator.add,
                                 lambda e: None)
    for e, cell in termwise.items():
        bucket = merged.setdefault(e, {})
        for m, c in cell.items():
            bucket[m] = bucket.get(m, Fraction(0)) + c
    dcap = INF if a.cap >= INF else a.cap + 1
    expected = full_product_pruned(merged, {0: {(): Fraction(1)}},
                                   operator.add, lambda e: _cell_cap(dcap, e))
    assert _xi_cells(a.dxi()) == expected


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
            TruncatedTau(toy.exp(), toy, 8, 3, "toy"))
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
                            tau9.index_cap, tau9.provenance)

    pairs = ((1, 5), (3, 3), (5, 1))
    tau = fresh()
    series = matrix_one_point_series(tau)
    values = [matrix_two_point_coeff(tau, j, k) for j, k in pairs]
    assert values == [engine.connected(pair) for pair in pairs]
    with pytest.raises(InsufficientCutoffError):
        matrix_two_point_coeff(tau, 1, 7)
    assert len(builds) == 1 and builds[0] is tau

    twin = fresh()
    assert twin == tau and twin is not tau
    assert [matrix_two_point_coeff(twin, j, k) for j, k in pairs] == values
    assert matrix_one_point_series(twin) == series
    with pytest.raises(InsufficientCutoffError):
        matrix_two_point_coeff(twin, 7, 1)
    assert len(builds) == 2 and builds[1] is twin

    f = MultiPoly.var(2, weight_cap=6)
    non_kdv = TruncatedTau(f.exp(), f, 6, 6, "even time")
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
    toys = (TruncatedTau(t1.exp(), t1, 8, 1, "toy"),
            TruncatedTau(f.exp(), f, 8, 3, "toy"))
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
    entries = {"wave": w, "dual_wave": ws, "wave_dxi": w.dxi(),
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
            9, "degree-capped"),
        "toy_exp_t1": TruncatedTau(toy.exp(), toy, 8, 1, "toy"),
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
        return WaveSeries(0, terms, INF, 0, 3)

    base = WaveSeries(0, base_terms, 6, 0, 3)
    # TW of the differing cell: weight 4 + depth 2 = 6 is read, 5 + 2 is not
    assert not base.agrees_with(plus((1, 1), ((1, 1), (3, 1))))
    assert base.agrees_with(plus((1, 1), ((1, 2), (3, 1))))
    # depth (1, 2) reads key (1, 2) but not (2, 1)
    assert not base.agrees_with(plus((1, 2), ((1, 1),)), (1, 2))
    assert base.agrees_with(plus((2, 1), ((1, 1),)), (1, 2))
    assert not base.agrees_with(plus((2, 1), ((1, 1),)))
    # a different prefactor never agrees
    assert not WaveSeries(1, {}, INF, 0, 3).agrees_with(
        WaveSeries(0, {}, INF, 0, 3))
