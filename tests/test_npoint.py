from __future__ import annotations

import itertools
import random

import pytest

from airytau.errors import (CrossCheckError, InsufficientCutoffError,
                            InvalidKeyError)
from airytau.npoint import (NPointEngine, antidiagonal_sum, free_energy,
                            genus0_check, genus_of, intersection_number,
                            puncture_check, valid_keys)
from airytau.rational import Rat, double_factorial
from airytau.verify import dvv_correlator
from airytau.airy import kernel_closed

from oracles import (LITERATURE_CORRELATORS, _edge_table, _RandomKernel,
                     cycle_sum_brute, disconnected_family_brute,
                     mobius_connect_brute, mobius_disconnect_brute,
                     scaled_tables_two_step, set_partitions,
                     valid_keys_recursive)


def test_genus_of():
    assert genus_of((0, 0, 0)) == 0
    assert genus_of((1,)) == 1
    assert genus_of((4,)) == 2
    assert genus_of((0, 0)) is None          # wrong residue
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


def test_antidiagonal_sum_refuses_order_zero():
    for kernel in (kernel_closed(6), _RandomKernel(random.Random(3), 4)):
        with pytest.raises(InvalidKeyError) as err:
            antidiagonal_sum(kernel, 0)
        assert str(err.value) == "orders must be >= 1: (0,)"


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
    connected = mobius_connect_brute(family)
    assert connected[one] == 3
    assert connected[both] == Rat(4) - Rat(15)
    assert mobius_disconnect_brute(connected) == family


def test_mobius_roundtrip_random():
    rng = random.Random(23)
    for n in range(1, 5):
        family = {}
        for mask in range(1, 1 << n):
            labels = frozenset(i for i in range(n) if mask & (1 << i))
            family[labels] = Rat(rng.randint(-9, 9), rng.randint(1, 5))
        assert mobius_disconnect_brute(mobius_connect_brute(family)) == family
        assert mobius_connect_brute(mobius_disconnect_brute(family)) == family


def test_edge_table_expansion_signs(engine):
    kernel = engine.kernel()
    ascending = _edge_table(kernel, True)
    # leading geometric term of the first-index-smaller factor: +1 at
    # (first exponent -1, second exponent 0)
    assert (0, Rat(1)) in ascending[-1]
    descending = _edge_table(kernel, False)
    # mirrored region: -1 at (first exponent 0, second exponent -1)
    assert (-1, Rat(-1)) in descending[0]
    # kernel terms appear under both orderings
    assert (-3, kernel.entry(0, 2)) in ascending[-1]
    assert (-3, kernel.entry(0, 2)) in descending[-1]


def test_determinant_route_single_point(engine):
    kernel = engine.kernel()
    assert disconnected_family_brute(kernel, (3,))[frozenset({0})] == \
        engine.connected((3,))


def test_cycle_vs_determinant_airy(engine):
    kernel = engine.kernel()
    for js in ((1, 5), (3, 3), (1, 1, 1), (1, 1, 1, 3)):
        family = disconnected_family_brute(kernel, js)
        connected = mobius_connect_brute(family)
        assert connected[frozenset(range(len(js)))] == \
            engine.connected(js), js


def test_cycle_vs_determinant_random_kernel():
    rng = random.Random(91)
    kernel = _RandomKernel(rng, 4)
    probe = NPointEngine(lambda m: kernel, 4)
    for js in ((1, 2), (2, 1, 3), (1, 1, 2, 2)):
        family = disconnected_family_brute(kernel, js)
        connected = mobius_connect_brute(family)
        assert connected[frozenset(range(len(js)))] == \
            probe.connected_at(js, 4), js


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


def test_cycle_vs_determinant_prime_denominator_kernels():
    # the integer cycle sum against the Fraction determinant route, on
    # tables with no grading rule, at orders of both parities
    for seed in range(3):
        kernel = _PrimeDenominatorKernel(random.Random(seed), 4)
        probe = NPointEngine(lambda m: kernel, 4)
        for js in ((1, 2), (3, 3), (2, 1, 4), (1, 1, 2, 2)):
            family = disconnected_family_brute(kernel, js)
            connected = mobius_connect_brute(family)
            assert connected[frozenset(range(len(js)))] == \
                probe.connected_at(js, 4), (seed, js)


def test_cycle_sum_matches_brute_oracle_on_random_tables():
    # the derived Cauchy window k <= cutoff - 1 against explicit products
    # over every n-cycle with a much larger window; the determinant route
    # shares the edge tables, so it cannot see a wrong window
    rng = random.Random(4417)
    for cutoff in range(3, 7):
        for js in ((1, 2), (2, 1), (3, 2), (1, 1, 2), (2, 3, 1), (1, 2, 1, 3)):
            kernel = _PrimeDenominatorKernel(rng, cutoff)
            probe = NPointEngine(lambda m: kernel, cutoff)
            expected = cycle_sum_brute(kernel.table, js, cutoff + sum(js) + 2)
            assert probe.connected_at(js, cutoff) == expected, (cutoff, js)


def test_cycle_sum_matches_brute_oracle_through_six_points():
    # five and six points run the DP through three and four extension steps,
    # with unsorted orders so that edges both ascend and descend
    rng = random.Random(5171)
    for cutoff in (3, 4):
        for js in ((2, 1, 3, 1, 2), (1, 3, 2, 1, 2, 1)):
            kernel = _PrimeDenominatorKernel(rng, cutoff)
            probe = NPointEngine(lambda m: kernel, cutoff)
            expected = cycle_sum_brute(kernel.table, js, cutoff + sum(js) + 2)
            assert expected != 0, (cutoff, js)
            assert probe.connected_at(js, cutoff) == expected, (cutoff, js)


def _multi_point_keys_through_weight_18():
    keys = [ms for ms in valid_keys(18) if len(ms) > 1]
    assert len(keys) == 73
    return keys


def _counting_factory():
    built = []

    def factory(cutoff):
        built.append(cutoff)
        return kernel_closed(cutoff)

    return factory, built


def test_engine_at_reach_matches_dvv_through_weight_18():
    for ms in _multi_point_keys_through_weight_18():
        reach = sum(2 * m + 1 for m in ms) - 1
        factory, built = _counting_factory()
        engine = NPointEngine(factory, reach)
        assert intersection_number(engine, ms) == dvv_correlator(ms), ms
        assert built == [reach], ms


def test_reach_is_tight():
    # one cutoff below the reach loses an entry every key needs, so an
    # engine there must recompute and refuse
    for ms in _multi_point_keys_through_weight_18():
        js = tuple(2 * m + 1 for m in sorted(ms))
        probe = NPointEngine(kernel_closed, sum(js) - 2)
        expected = dvv_correlator(ms)
        for j in js:
            expected *= double_factorial(j)
        assert probe.connected_at(js, sum(js) - 2) != expected, ms
        with pytest.raises(InsufficientCutoffError, match="unstable"):
            probe.connected(js)


def test_free_energy_builds_one_kernel_and_one_table_pair(monkeypatch):
    from airytau import npoint

    tables = []
    real = npoint._scaled_tables

    def counting(kernel, base):
        tables.append(kernel.cutoff)
        return real(kernel, base)

    monkeypatch.setattr(npoint, "_scaled_tables", counting)
    factory, built = _counting_factory()
    free_energy(NPointEngine(factory, 18), 11)
    assert built == [18]
    # one call builds the ascending and the descending table
    assert tables == [18]


def test_scale_table_rejects_too_small_base(engine):
    from airytau.npoint import _scale_base, _scaled_tables

    kernel = engine.kernel()
    base = _scale_base(kernel.table)
    assert base == 12
    assert all(isinstance(c, int)
               for table in _scaled_tables(kernel, base)
               for terms in table.values()
               for _, c in terms)
    for smaller in (base // 2, base // 3):
        with pytest.raises(CrossCheckError):
            _scaled_tables(kernel, smaller)
    kernel = _PrimeDenominatorKernel(random.Random(5), 4)
    base = _scale_base(kernel.table)
    assert base % (7 * 17 ** 2) == 0
    with pytest.raises(CrossCheckError):
        _scaled_tables(kernel, base // 7)


def test_scaled_tables_match_two_step_oracle():
    # one sorted pass and the lcm-merged base against the Fraction edge
    # tables scaled term by term: same base, rows, row order and terms,
    # and the same refusal of a base one trial prime short
    from airytau.npoint import _scale_base, _scaled_tables

    rng = random.Random(1913)
    kernels = [kernel_closed(cutoff) for cutoff in range(2, 25)]
    kernels += [_RandomKernel(rng, cutoff) for cutoff in (2, 3, 4, 5, 6)]
    kernels += [_PrimeDenominatorKernel(rng, cutoff)
                for cutoff in (2, 3, 4, 5, 6)]
    for kernel in kernels:
        lt, gt, base = scaled_tables_two_step(kernel)
        assert _scale_base(kernel.table) == base, kernel.cutoff
        new_lt, new_gt = _scaled_tables(kernel, base)
        assert list(new_lt.items()) == list(lt.items()), kernel.cutoff
        assert list(new_gt.items()) == list(gt.items()), kernel.cutoff
        # a trial prime short of its power leaves a term fractional
        for prime in (2, 3, 5, 7, 11, 13):
            if base % prime:
                continue
            with pytest.raises(CrossCheckError) as expected:
                scaled_tables_two_step(kernel, base // prime)
            with pytest.raises(CrossCheckError) as found:
                _scaled_tables(kernel, base // prime)
            assert str(found.value) == str(expected.value), prime


def test_engine_matches_dvv_on_every_key_through_weight_15(engine):
    keys = list(valid_keys(15))
    assert len(keys) == 42
    for ms in keys:
        assert intersection_number(engine, ms) == dvv_correlator(ms), ms


def test_value_at_the_reach_is_the_value_at_the_cli_default_cutoff():
    # the CLI reads the kernel only to the reach and prints the default
    # cutoff max(12, sum(j) + 1)
    keys = list(valid_keys(15, degree_cap=6))
    assert len(keys) == 37
    for ms in keys:
        total = sum(2 * m + 1 for m in ms)
        at_reach = NPointEngine(kernel_closed, total - 1)
        default = NPointEngine(kernel_closed, max(12, total + 1))
        assert intersection_number(at_reach, ms) \
            == intersection_number(default, ms), ms


def test_truncation_stability(engine):
    for js in ((1, 5), (1, 1, 1), (3, 3), (1, 1, 3, 3)):
        base = engine.connected_at(js, engine.cutoff)
        grown = engine.connected_at(js, engine.cutoff + 3)
        assert base == grown


def test_valid_keys_enumeration():
    keys = list(valid_keys(6))
    assert (0, 0, 0) in keys
    assert (1,) in keys
    assert all(genus_of(k) is not None for k in keys)
    assert all(sum(2 * m + 1 for m in k) <= 6 for k in keys)
    capped = list(valid_keys(9, index_cap=3, degree_cap=2))
    assert all(len(k) <= 2 and max(k, default=0) <= 1 for k in capped)


def test_valid_keys_match_the_recursive_enumeration_in_order():
    for weight in range(24):
        for index_cap in (None, 1, 3, 5, 9):
            for degree_cap in (None, 1, 2, 3, 5):
                caps = (weight, index_cap, degree_cap)
                assert list(valid_keys(*caps)) == \
                    list(valid_keys_recursive(*caps)), caps


def test_genus_zero_check_through_eight_points(engine):
    for n in range(3, 9):
        assert genus0_check(engine, n), n


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
