from __future__ import annotations

import itertools
import random

import pytest

from airytau.errors import (CrossCheckError, InsufficientCutoffError,
                            InvalidKeyError)
from airytau.npoint import (NPointEngine, disconnected_coeff,
                            disconnected_family, free_energy, genus0_check,
                            genus_of, intersection_number, mobius_connect,
                            mobius_disconnect, puncture_check, set_partitions,
                            valid_keys)
from airytau.rational import Rat, double_factorial
from airytau.verify import _RandomKernel, dvv_correlator
from airytau.airy import kernel_closed

from oracles import LITERATURE_CORRELATORS


def test_genus_of():
    assert genus_of((0, 0, 0)) == 0
    assert genus_of((1,)) == 1
    assert genus_of((4,)) == 2
    assert genus_of((0, 0)) is None          # unstable
    assert genus_of((0, 1)) is None          # wrong residue
    assert genus_of((2, 2)) is None
    assert genus_of(()) is None


def test_recursion_oracle_against_literature():
    for key, value in LITERATURE_CORRELATORS.items():
        assert dvv_correlator(key) == value, key


def test_connected_examples(engine):
    assert engine.connected((1, 1, 1)) == 1
    assert engine.connected((3,)) == Rat(1, 8)
    assert engine.connected((1, 5)) == Rat(5, 8)
    assert engine.connected((3, 3)) == Rat(3, 8)
    assert engine.connected((9,)) == Rat(105, 128)


def test_intersection_values(engine):
    assert intersection_number(engine, (0, 0, 0)) == 1
    assert intersection_number(engine, (1,)) == Rat(1, 24)
    assert intersection_number(engine, (4,)) == Rat(1, 1152)
    assert intersection_number(engine, (7,)) == Rat(1, 82944)
    assert intersection_number(engine, (0, 2)) == Rat(1, 24)
    # selection-rule rejects: explicit zeros
    assert intersection_number(engine, (0, 0)) == 0
    assert intersection_number(engine, (2, 2)) == 0


def test_engine_matches_oracle_everywhere(engine):
    for key, value in LITERATURE_CORRELATORS.items():
        if sum(2 * m + 1 for m in key) <= 18:
            assert intersection_number(engine, key) == value, key


def test_parity_and_dimension_vanishing(engine):
    # even orders and residue-violating keys are honest zeros of the cycle
    # sum, not shortcuts
    assert engine.connected((2,)) == 0
    assert engine.connected((1, 2)) == 0
    assert engine.connected((2, 4)) == 0
    assert engine.connected((1, 1)) == 0
    assert engine.connected((1, 3)) == 0


def test_permutation_symmetry(engine):
    assert engine.connected((5, 1)) == engine.connected((1, 5))
    assert engine.connected((3, 1, 1, 1)) == engine.connected((1, 1, 3, 1))


def test_genus_zero_suite(engine):
    for n in (3, 4, 5):
        assert genus0_check(engine, n)
    # explicit multinomials at n = 5
    assert intersection_number(engine, (2, 0, 0, 0, 0)) == 1
    assert intersection_number(engine, (1, 1, 0, 0, 0)) == 2


def test_puncture_examples(engine):
    assert puncture_check(engine, (0, 2))
    assert puncture_check(engine, (0, 1, 0, 0))
    assert puncture_check(engine, (0, 5))
    with pytest.raises(InvalidKeyError):
        puncture_check(engine, (1, 1))      # no zero present
    with pytest.raises(InvalidKeyError):
        puncture_check(engine, (0, 0, 0))   # no valid lowering


@pytest.mark.parametrize("js", [(3, 9), (1, 3, 5), (1, 1, 3, 7),
                                (1, 1, 1, 1, 3, 5)])
def test_connected_on_every_vertex_order(engine, js):
    # the cycle sum skips first rows by the order at vertex 0, so every
    # order must reach vertex 0, the largest one included
    ms = tuple((j - 1) // 2 for j in js)
    expected = dvv_correlator(tuple(sorted(ms)))
    for j in js:
        expected *= double_factorial(j)
    for order in set(itertools.permutations(js)):
        assert engine.connected(order) == expected, order


def test_orders_validation(engine):
    with pytest.raises(InvalidKeyError):
        engine.connected(())
    with pytest.raises(InvalidKeyError):
        engine.connected((0, 1))


def test_one_point_cutoff_error():
    engine = NPointEngine(kernel_closed, 6)
    with pytest.raises(InsufficientCutoffError):
        engine.connected((9,))


def test_certification_catches_small_cutoff():
    engine = NPointEngine(kernel_closed, 8)
    with pytest.raises(InsufficientCutoffError):
        engine.connected((3, 15))


# Keys and explicit cutoffs at which a regrowth of only +3 stays below the
# reach sum(j) - 1 and reproduces a wrong value (0).
BELOW_REACH = (((8, 0), 2), ((8, 0), 3), ((8, 0), 4), ((7, 1), 2),
               ((7, 1), 3), ((6, 2), 2), ((6, 0, 0), 2), ((6, 0, 0), 3),
               ((7, 0, 0, 0), 2), ((7, 0, 0, 0), 3), ((6, 1, 0, 0), 2),
               ((6, 1, 0, 0), 3), ((6, 0, 0, 0, 0, 0), 2))


@pytest.mark.parametrize("ms, cutoff", BELOW_REACH)
def test_certification_regrows_to_reach(ms, cutoff):
    js = tuple(2 * m + 1 for m in sorted(ms))
    engine = NPointEngine(kernel_closed, cutoff)
    assert engine.certified_cutoff(js) == sum(js) - 1
    assert engine.connected_at(js, cutoff) == 0
    with pytest.raises(InsufficientCutoffError, match="unstable"):
        intersection_number(engine, ms)
    at_reach = NPointEngine(kernel_closed, sum(js) - 1)
    assert at_reach.certified_cutoff(js) == sum(js) + 2
    assert intersection_number(at_reach, ms) == dvv_correlator(ms)


def test_set_partitions_count():
    # Bell numbers 1, 1, 2, 5, 15
    for n, bell in ((0, 1), (1, 1), (2, 2), (3, 5), (4, 15)):
        assert sum(1 for _ in set_partitions(list(range(n)))) == bell


def test_mobius_examples():
    one = frozenset({0})
    two = frozenset({1})
    both = frozenset({0, 1})
    family = {one: Rat(3), two: Rat(5), both: Rat(4)}
    connected = mobius_connect(family)
    assert connected[one] == 3
    assert connected[both] == Rat(4) - Rat(15)
    assert mobius_disconnect(connected) == family


def test_mobius_roundtrip_random():
    rng = random.Random(23)
    for n in range(1, 5):
        family = {}
        for mask in range(1, 1 << n):
            labels = frozenset(i for i in range(n) if mask & (1 << i))
            family[labels] = Rat(rng.randint(-9, 9), rng.randint(1, 5))
        assert mobius_disconnect(mobius_connect(family)) == family
        assert mobius_connect(mobius_disconnect(family)) == family


def test_ahat_entries(engine):
    from airytau.npoint import ahat_entry

    kernel = engine.kernel()
    diag = ahat_entry(kernel, 1, 1, 8)
    assert diag.coeff(-4) == Rat(1, 8)   # antidiagonal sum 5/24 - 7/24 + 5/24
    assert all(e <= -2 for e in diag.coeffs)  # no singular part
    off = ahat_entry(kernel, 1, 2, 6)
    assert off.coeff(-1, 0) == 1         # leading geometric term
    assert off.coeff(-1, -3) == kernel.entry(0, 2)
    mirrored = ahat_entry(kernel, 2, 1, 6)
    assert mirrored.coeff(0, -1) == -1   # mirrored expansion sign
    assert mirrored.coeff(-1, 0) == 0


def test_edge_table_expansion_signs(engine):
    from airytau.npoint import _edge_table

    kernel = engine.kernel()
    ascending = _edge_table(kernel, 3, True)
    # leading geometric term of the first-index-smaller factor: +1 at
    # (first exponent -1, second exponent 0)
    assert (0, Rat(1)) in ascending[-1]
    descending = _edge_table(kernel, 3, False)
    # mirrored region: -1 at (first exponent 0, second exponent -1)
    assert (-1, Rat(-1)) in descending[0]
    # kernel terms appear under both orderings
    assert (-3, kernel.entry(0, 2)) in ascending[-1]
    assert (-3, kernel.entry(0, 2)) in descending[-1]


def test_determinant_route_single_point(engine):
    kernel = engine.kernel()
    assert disconnected_coeff(kernel, (3,)) == engine.connected((3,))


def test_cycle_vs_determinant_airy(engine):
    kernel = engine.kernel()
    for js in ((1, 5), (3, 3), (1, 1, 1), (1, 1, 1, 3)):
        family = disconnected_family(kernel, js)
        connected = mobius_connect(family)
        assert connected[frozenset(range(len(js)))] == \
            engine.connected(js), js


def test_cycle_vs_determinant_random_kernel():
    rng = random.Random(91)
    kernel = _RandomKernel(rng, 4)
    probe = NPointEngine(lambda m: kernel, 4)
    for js in ((1, 2), (2, 1, 3), (1, 1, 2, 2)):
        family = disconnected_family(kernel, js, window=16)
        connected = mobius_connect(family)
        assert connected[frozenset(range(len(js)))] == \
            probe.connected_at(js, 4, window=16), js


class _PrimeDenominatorKernel:
    """Duck-typed table whose denominators carry 5, 7, 11, 7^3 and 17^2
    (17 lies past the trial primes of the integer scaling)."""

    DENOMINATORS = (1, 5, 7, 11, 7 ** 3, 5 * 11, 2 * 7 ** 2, 17 ** 2)

    def __init__(self, rng: random.Random, cutoff: int):
        self.cutoff = cutoff
        self.table = {(m, n): Rat(rng.randint(-6, 6),
                                  rng.choice(self.DENOMINATORS))
                      for m in range(cutoff + 1) for n in range(cutoff + 1)
                      if rng.random() < 0.6}

    def entry(self, m: int, n: int) -> Rat:
        return self.table.get((m, n), Rat(0))


def test_cycle_vs_determinant_prime_denominator_kernels():
    # the integer cycle sum against the Fraction determinant route, on
    # tables with no grading rule, at orders of both parities
    for seed in range(3):
        kernel = _PrimeDenominatorKernel(random.Random(seed), 4)
        probe = NPointEngine(lambda m: kernel, 4)
        for js in ((1, 2), (3, 3), (2, 1, 4), (1, 1, 2, 2)):
            family = disconnected_family(kernel, js, window=16)
            connected = mobius_connect(family)
            assert connected[frozenset(range(len(js)))] == \
                probe.connected_at(js, 4, window=16), (seed, js)


def test_scale_table_rejects_too_small_base(engine):
    from airytau.npoint import _edge_table, _scale_base, _scale_table

    table = _edge_table(engine.kernel(), 30, True)
    base = _scale_base(table)
    assert base == 12
    assert all(isinstance(c, int)
               for terms in _scale_table(table, base).values()
               for _, c in terms)
    for smaller in (base // 2, base // 3):
        with pytest.raises(CrossCheckError):
            _scale_table(table, smaller)
    kernel = _PrimeDenominatorKernel(random.Random(5), 4)
    table = _edge_table(kernel, 16, False)
    base = _scale_base(table)
    assert base % (7 * 17 ** 2) == 0
    with pytest.raises(CrossCheckError):
        _scale_table(table, base // 7)


def test_engine_matches_dvv_on_every_key_through_weight_15(engine):
    keys = list(valid_keys(15))
    assert len(keys) == 42
    for ms in keys:
        assert intersection_number(engine, ms) == dvv_correlator(ms), ms


def test_truncation_stability(engine):
    for js in ((1, 5), (1, 1, 1), (3, 3), (1, 1, 3, 3)):
        base = engine.connected_at(js, engine.cutoff)
        grown = engine.connected_at(js, engine.cutoff + 3,
                                    engine.cutoff + sum(js) + 5)
        assert base == grown


def test_valid_keys_enumeration():
    keys = list(valid_keys(6))
    assert (0, 0, 0) in keys
    assert (1,) in keys
    assert all(genus_of(k) is not None for k in keys)
    assert all(sum(2 * m + 1 for m in k) <= 6 for k in keys)
    capped = list(valid_keys(9, index_cap=3, degree_cap=2))
    assert all(len(k) <= 2 and max(k, default=0) <= 1 for k in capped)


def test_free_energy_low_weight(engine):
    f = free_energy(engine, 9)
    assert f.coeff(((3, 1),)) == Rat(1, 8)
    assert f.coeff(((9, 1),)) == Rat(105, 128)
    assert f.coeff(((1, 3),)) == Rat(1, 6)
    assert f.coeff(((1, 1), (5, 1))) == Rat(5, 8)
    # only odd indices appear
    assert all(idx % 2 == 1 for mono in f.terms for idx, _ in mono)
    # weight-9 three-point block: <tau_1^3> = 1/12 times 3!!^3 / 3!
    assert f.coeff(((3, 3),)) == Rat(1, 12) * 27 / 6


def test_free_energy_reach_error():
    engine = NPointEngine(kernel_closed, 6)
    with pytest.raises(InsufficientCutoffError) as info:
        free_energy(engine, 15)
    assert "key" in str(info.value)
