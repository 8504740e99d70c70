"""Named verification checks, grouped into suites for the CLI and tests.

Each check exercises one identity or cross-route agreement end to end.  A
run is one ``VerifyContext``: every suite takes it and returns nothing,
``@ctx.check(name)`` runs a check at once and appends its CheckResult to
``ctx.results`` under the current ``ctx.suite``, and the suites share
expensive artifacts (kernels, the n-point engine, truncated
tau-functions) through the context's lazily filled caches.  The recursion
oracle ``dvv_correlator`` lives here, deliberately outside the
kernel/cycle computation path it is used to check, and so does the KdV
and string certificate of the free energy, on its own arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .airy import (airy_d_check, airy_frame, check_all_routes,
                   diagonal_closed_coeff, faber_zagier_identity_check,
                   kernel_closed, kernel_diagonal, required_order,
                   slope_series, wave_series)
from .errors import AirytauError, CrossCheckError
from .grassmann import (AdmissibleFrame, kernel_pairing_form, plucker_minor,
                        plucker_from_admissible, reduction_check,
                        tau_minus_two_point, tau_plus_two_point,
                        tau_polynomial)
from .multipoly import MultiPoly
from .npoint import (NPointEngine, antidiagonal_sum, free_energy,
                     genus0_check, genus_of, intersection_number,
                     puncture_check, valid_keys)
from .partitions import Partition, partitions_up_to
from .rational import Rat, double_factorial
from .schur import (PowerSums, hook_minus_identity_check,
                    minus_spec_nonhook_vanishing, plus_spec,
                    plus_spec_h, plus_spec_tall_vanishing, schur_at)
from .series import Laurent2, Series1
from .wave import (TruncatedTau, differential_fay_check,
                   matrix_one_point_series, matrix_two_point_coeff,
                   padded_weight_cap, reliable_weight_cap, shifted_fay_check,
                   tau_from_free_energy, theorem_one_point_check, wave,
                   wave_pairing_check)


# ---------------------------------------------------------------------------
# The recursion oracle (independent of the kernel route).
# ---------------------------------------------------------------------------

def dvv_correlator(ms) -> Rat:
    """Psi-class correlator by the dilaton/string-type recursion on the
    largest exponent, with the quadratic genus-reduction and splitting
    terms.  Completely independent of the kernel and cycle-sum machinery.
    """
    ms = tuple(sorted(int(m) for m in ms))
    g = genus_of(ms)
    if g is None:
        return Rat(0)
    return _dvv(ms, g)


@lru_cache(maxsize=None)
def _dvv(ms: tuple[int, ...], g: int) -> Rat:
    n = len(ms)
    if g < 0 or n < 1 or sum(ms) != 3 * g - 3 + n or n + 2 * g < 3:
        return Rat(0)
    if ms == (1,) and g == 1:
        return Rat(1, 24)
    if ms[-1] == 0:
        return Rat(1) if (g, n) == (0, 3) else Rat(0)
    k = ms[-1] - 1
    rest = ms[:-1]
    total = Rat(0)
    for j, mj in enumerate(rest):
        lowered = tuple(sorted(rest[:j] + (k + mj,) + rest[j + 1:]))
        total += Rat(double_factorial(2 * (k + mj) + 1),
                     double_factorial(2 * mj - 1)) * _dvv(lowered, g)
    for a in range(k):
        b = k - 1 - a
        coef = Rat(double_factorial(2 * a + 1)
                   * double_factorial(2 * b + 1), 2)
        total += coef * _dvv(tuple(sorted(rest + (a, b))), g - 1)
        for mask in range(1 << len(rest)):
            left = tuple(rest[i] for i in range(len(rest))
                         if mask & (1 << i))
            right = tuple(rest[i] for i in range(len(rest))
                          if not mask & (1 << i))
            for g1 in range(g + 1):
                total += coef * _dvv(tuple(sorted((a,) + left)), g1) \
                    * _dvv(tuple(sorted((b,) + right)), g - g1)
    return total / double_factorial(2 * k + 3)


# ---------------------------------------------------------------------------
# Frozen reference tables.
# ---------------------------------------------------------------------------

# Nonzero kernel entries through the antidiagonal m + n = 8, in the
# generating-function orientation entry(m, n) <-> x^(-m-1) y^(-n-1).
KERNEL_BLOCKS = {
    (0, 2): Rat(5, 24), (1, 1): Rat(-7, 24), (2, 0): Rat(5, 24),
    (0, 5): Rat(385, 1152), (1, 4): Rat(-455, 1152),
    (2, 3): Rat(385, 1152), (3, 2): Rat(-385, 1152),
    (4, 1): Rat(455, 1152), (5, 0): Rat(-385, 1152),
    (0, 8): Rat(85085, 82944), (1, 7): Rat(-95095, 82944),
    (2, 6): Rat(85085, 82944), (3, 5): Rat(-43505, 41472),
    (4, 4): Rat(45955, 41472), (5, 3): Rat(-43505, 41472),
    (6, 2): Rat(85085, 82944), (7, 1): Rat(-95095, 82944),
    (8, 0): Rat(85085, 82944),
}

DIAGONAL_VALUES = {4: Rat(1, 8), 10: Rat(105, 128), 16: Rat(25025, 1024)}

# Headline coefficients of the sum-specialization expansion: the pure
# x-block at weight 13 and its mirrored partner.
SUM_SPEC_HEADLINE = (Rat(37182145, 7962624), Rat(-40415375, 7962624))


# ---------------------------------------------------------------------------
# Check plumbing.
# ---------------------------------------------------------------------------

# Seed of every check's random inputs, so a run is reproducible.
SEED = 20240913


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail and not self.passed \
            else ""
        return f"{status}  {self.suite}:{self.name}{tail}"


class VerifyContext:
    """One verification run: its scale, the suite now running, the results
    in run order and the artifacts the suites share."""

    def __init__(self, scale: str):
        self.small = scale == "small"
        self.suite = ""
        self.results: list[CheckResult] = []
        self._engines: dict[int, NPointEngine] = {}
        self._taus: dict[int, TruncatedTau] = {}

    def check(self, name: str):
        """``@ctx.check(name)`` runs a check at once and appends its result
        under the current suite."""
        return lambda fn: self.results.append(_run(self.suite, name, fn))

    def engine_for(self, cutoff: int) -> NPointEngine:
        if cutoff not in self._engines:
            self._engines[cutoff] = NPointEngine(kernel_closed, cutoff)
        return self._engines[cutoff]

    @property
    def engine(self) -> NPointEngine:
        return self.engine_for(12 if self.small else 18)

    def tau(self, weight: int) -> TruncatedTau:
        if weight not in self._taus:
            f = free_energy(self.engine, weight)
            self._taus[weight] = tau_from_free_energy(
                f, padded_weight_cap(weight))
        return self._taus[weight]

    def rng(self) -> random.Random:
        return random.Random(SEED)


def _run(suite: str, name: str, fn: Callable[[], bool | str]
         ) -> CheckResult:
    try:
        outcome = fn()
    except AirytauError as exc:
        return CheckResult(suite, name, False, f"{type(exc).__name__}: {exc}")
    if outcome is True:
        return CheckResult(suite, name, True)
    if outcome is False:
        return CheckResult(suite, name, False, "predicate returned false")
    return CheckResult(suite, name, False, str(outcome))


# ---------------------------------------------------------------------------
# Suite: airy.
# ---------------------------------------------------------------------------

def suite_airy(ctx: VerifyContext) -> None:
    cutoff = 6 if ctx.small else 12

    @ctx.check("kernel-route-agreement")
    def routes():
        check_all_routes(cutoff)
        return True

    @ctx.check("kernel-table-blocks")
    def blocks():
        kernel = kernel_closed(8)
        for (m, n), expected in KERNEL_BLOCKS.items():
            if kernel.entry(m, n) != expected:
                return f"entry ({m},{n}) = {kernel.entry(m, n)}"
        listed = {(m, n) for m, n in kernel.table if m + n <= 8}
        if listed != set(KERNEL_BLOCKS):
            return "support differs from the reference blocks"
        return True

    @ctx.check("diagonal-one-point-series")
    def diagonal():
        series = kernel_diagonal(16)
        for exp, expected in DIAGONAL_VALUES.items():
            if series.coeff(-exp) != expected:
                return f"coefficient at -{exp}: {series.coeff(-exp)}"
        for e, c in series.terms():
            if c != 0 and (e > -4 or (-e - 4) % 6 != 0):
                return f"unexpected support at exponent {e}"
        for g in (1, 2, 3):
            if series.coeff(-(6 * g - 2)) != diagonal_closed_coeff(g):
                return f"closed form mismatch at g={g}"
        return True

    ctx.check("derivative-pairing-identity")(
        lambda: faber_zagier_identity_check(24))

    @ctx.check("kernel-congruence-support")
    def congruence():
        # the frame route's raw coordinates: a Kernel refuses an entry off
        # the class itself, so its table could never show one
        frame = AdmissibleFrame(airy_frame(cutoff + 1,
                                           required_order(cutoff)))
        for (m, n) in frame.normalize(cutoff).table:
            if (m + n) % 3 != 2:
                return f"nonzero entry off the residue class at ({m},{n})"
        return True

    @ctx.check("diagonal-antidiagonal-consistency")
    def diag_consistency():
        kernel = kernel_closed(cutoff)
        series = kernel_diagonal(cutoff + 1)
        for j in range(1, cutoff + 1):
            if antidiagonal_sum(kernel, j) != series.coeff(-j - 1):
                return f"antidiagonal sum differs at order {j}"
        return True


# ---------------------------------------------------------------------------
# Suite: schur.
# ---------------------------------------------------------------------------

def suite_schur(ctx: VerifyContext) -> None:
    bound = 4 if ctx.small else 8

    @ctx.check("hook-difference-specialization")
    def hooks():
        for arm in range(bound + 1):
            for leg in range(bound + 1):
                if not hook_minus_identity_check(arm, leg):
                    return f"hook ({arm}|{leg})"
        return True

    @ctx.check("difference-specialization-vanishing")
    def nonhook():
        for mu in partitions_up_to(6 if ctx.small else 8):
            if mu.parts and not mu.is_hook():
                if not minus_spec_nonhook_vanishing(mu):
                    return f"nonzero at {mu}"
        return True

    @ctx.check("two-row-vanishing")
    def tall():
        rng = ctx.rng()
        pool = [mu for mu in partitions_up_to(10)
                if mu.length > 2 and mu.weight >= 3]
        chosen = rng.sample(pool, 30 if not ctx.small else 10)
        for mu in chosen:
            if not plus_spec_tall_vanishing(mu):
                return f"nonzero at {mu}"
        return True

    @ctx.check("h-vs-e-route")
    def routes():
        rng = ctx.rng()
        for mu in partitions_up_to(6 if ctx.small else 10):
            spec = PowerSums.rational(
                {k: Rat(rng.randint(-6, 6), rng.randint(1, 4))
                 for k in range(1, mu.weight + 1)}, bound=max(mu.weight, 1))
            if schur_at(mu, spec, "h") != schur_at(mu, spec, "e"):
                return f"routes differ at {mu}"
        return True

    @ctx.check("geometric-h-closed-form")
    def geometric():
        spec = plus_spec(12)
        hs = spec.complete_homogeneous(12)
        for n in range(13):
            if hs[n] != plus_spec_h(n):
                return f"closed h differs at {n}"
        return True

    @ctx.check("frobenius-roundtrip")
    def frobenius_roundtrip():
        for mu in partitions_up_to(8):
            if Partition.from_frobenius(mu.frobenius()) != mu:
                return f"roundtrip failed at {mu}"
        return True


# ---------------------------------------------------------------------------
# Suite: sato.
# ---------------------------------------------------------------------------

def _random_admissible_frame(rng: random.Random, count: int,
                             depth: int) -> AdmissibleFrame:
    elements = []
    for n in range(count):
        coeffs = {n: Rat(1)}
        for e in range(n - 1, -depth - 1, -1):
            if rng.random() < 0.6:
                coeffs[e] = Rat(rng.randint(-5, 5), rng.randint(1, 3))
        elements.append(Series1("z", coeffs, depth))
    return AdmissibleFrame(elements)


def suite_sato(ctx: VerifyContext) -> None:
    cutoff = 6 if ctx.small else 9
    frame = AdmissibleFrame(airy_frame(cutoff + 1, required_order(cutoff)))
    coords = frame.normalize(cutoff)
    big = AdmissibleFrame(airy_frame(16, required_order(15)))

    @ctx.check("normalize-roundtrip")
    def roundtrip():
        rebuilt = AdmissibleFrame.from_coords(coords)
        return rebuilt.normalize(cutoff) == coords

    @ctx.check("plucker-route-agreement")
    def plucker_routes():
        rng = ctx.rng()
        for _ in range(4 if ctx.small else 8):
            depth = 9
            rand_frame = _random_admissible_frame(rng, 9, depth)
            rand_coords = rand_frame.normalize(8)
            for mu in partitions_up_to(4 if ctx.small else 8):
                if mu.length and (mu.frobenius()[0][0] > 8
                                  or mu.frobenius()[0][1] > 8):
                    continue
                left = plucker_from_admissible(rand_frame, mu)
                right = plucker_minor(rand_coords, mu)
                if left != right:
                    return f"sign/value mismatch at {mu}: {left} vs {right}"
        return True

    @ctx.check("tau-difference-pairing")
    def difference_pairing():
        weight = 6 if ctx.small else 9
        left = tau_minus_two_point(coords, weight)
        right = kernel_pairing_form(coords, weight)
        for key in set(left.coeffs) | set(right.coeffs):
            if -(key[0] + key[1]) > weight:
                continue
            if left.coeff(*key) != right.coeff(*key):
                return f"cell {key}: {left.coeff(*key)} vs {right.coeff(*key)}"
        return True

    @ctx.check("tau-sum-specialization")
    def sum_specialization():
        weight = 9 if ctx.small else 13
        big_coords = big.normalize(14)
        tp = tau_plus_two_point(big_coords, weight)
        a = wave_series(3 * weight)
        bt = slope_series(3 * weight).shift(-1)

        def at(f: Series1, axis: int) -> Laurent2:
            # f(x) on axis 0 or f(y) on axis 1, through the compared cells
            return Laurent2(("x", "y"), {(e, 0) if axis == 0 else (0, e): c
                                         for e, c in f.coeffs.items()
                                         if e >= -weight - 1})

        a1 = a.shift(-1)
        rhs = at(a1, 0).mul(at(bt, 1)) - at(bt, 0).mul(at(a1, 1))
        delta = Laurent2(("x", "y"), {(-1, 0): Rat(1), (0, -1): Rat(-1)})
        lhs = delta.mul(tp)
        for key in set(lhs.coeffs) | set(rhs.coeffs):
            if -(key[0] + key[1]) > weight + 1:
                continue
            if lhs.coeff(*key) != rhs.coeff(*key):
                return f"cell {key} differs"
        if not ctx.small:
            if (a.get(-12), bt.get(-12)) != SUM_SPEC_HEADLINE:
                return "headline coefficients differ"
            if lhs.coeff(-13, 0) != SUM_SPEC_HEADLINE[0]:
                return "pure block coefficient differs"
            if lhs.coeff(-1, -12) != SUM_SPEC_HEADLINE[1]:
                return "mixed block coefficient differs"
        return True

    @ctx.check("square-multiplier-invariance")
    def square_invariance():
        z2 = Series1.monomial("z", 2)
        if not reduction_check(frame, z2):
            return "square multiplier not absorbed by the frame"
        # vacuum frame passes trivially
        vacuum = AdmissibleFrame([Series1.monomial("z", n)
                                  for n in range(8)])
        if not reduction_check(vacuum, z2):
            return "vacuum frame failed"
        # a perturbed frame that is not square-invariant
        bad = AdmissibleFrame([
            Series1("z", {n: Rat(1), -1: Rat(n % 2)}, 5) for n in range(8)])
        if reduction_check(bad, z2):
            return "perturbed frame wrongly accepted"
        return True

    ctx.check("airy-operator-ladder")(
        lambda: airy_d_check(9 if ctx.small else 12))

    @ctx.check("schur-vs-exponential-tau")
    def schur_vs_exponential():
        # at full scale, weight 15 on the cutoff-15 coordinates of ``big``
        weight = 6 if ctx.small else 15
        left = tau_polynomial(coords if ctx.small else big.normalize(15),
                              weight)
        f = free_energy(ctx.engine, weight)
        right = f.with_caps(weight_cap=weight).exp()
        return left == right or "expansions differ"


# ---------------------------------------------------------------------------
# Suite: npoint.
# ---------------------------------------------------------------------------

def _random_valid_keys(rng: random.Random, count: int, weight_sum: int,
                       max_n: int, require_zero: bool = False
                       ) -> list[tuple[int, ...]]:
    """``count`` distinct valid sorted keys with entries in 0..4, at most
    ``max_n`` points and sum at most ``weight_sum``; with ``require_zero``,
    each holds a 0 and a positive entry.  Raises ValueError when fewer
    such keys exist."""
    pool = [ms for n in range(1, max_n + 1)
            for ms in itertools.combinations_with_replacement(range(5), n)
            if sum(ms) <= weight_sum and genus_of(ms) is not None
            and (not require_zero or ms[0] == 0 < ms[-1])]
    return rng.sample(pool, count)


def _d(poly: dict, i: int) -> dict:
    """d/dt_i of an exponent-tuple polynomial."""
    return {mono[:i] + (e - 1,) + mono[i + 1:]: c * e
            for mono, c in poly.items() if (e := mono[i])}


def _residue(name: str, cap: int, parts) -> str | None:
    """The first nonzero coefficient of weight <= ``cap`` of the sum of
    scale * poly over the (scale, poly) in ``parts``; None if none."""
    total: dict[tuple[int, ...], Rat] = {}
    for scale, poly in parts:
        for mono, c in poly.items():
            if sum(e * (2 * i + 1) for i, e in enumerate(mono)) <= cap:
                total[mono] = total.get(mono, 0) + scale * c
    for mono in sorted(total):
        if total[mono]:
            at = "*".join(f"t{i}^{e}" for i, e in enumerate(mono) if e)
            return f"{name} residue {total[mono]} at {at or '1'}"
    return None


def _kdv_string_residue(engine: NPointEngine, weight: int) -> str | None:
    """Witten's conjecture, Kontsevich's theorem: the string equation
    dF/dt_0 = t_0^2/2 + sum_i t_(i+1) dF/dt_i, KdV
    U_t1 = U U_t0 + U_t0t0t0 / 12 with U = d^2F/dt_0^2, and <tau_0^3> = 1,
    which the string equation carries, determine F.  On F through
    ``weight`` the string equation is exact at weights <= weight - 1 and
    KdV at weights <= weight - 5; key weights 6g - 6 + 3n are multiples of
    3, so the two certify every coefficient of weight <= weight - 3.  The
    derivatives and the product are this module's own, on Fraction dicts.
    Returns the first nonzero residue, named, or None."""
    # F = sum <prod tau_m_i> prod t_m_i / prod mult!, keyed by exponent
    # tuples (e_0, e_1, ...) with one slot past the largest index
    size = (weight + 3) // 2
    f = {}
    for ms in valid_keys(weight):
        exps = [0] * size
        for m in ms:
            exps[m] += 1
        f[tuple(exps)] = intersection_number(engine, ms) \
            / math.prod(map(math.factorial, exps))
    string = [(1, _d(f, 0)), (-1, {(2,) + (0,) * (size - 1): Rat(1, 2)})]
    for i in range(size - 1):
        string.append((-1, {mono[:i + 1] + (mono[i + 1] + 1,) + mono[i + 2:]:
                            c for mono, c in _d(f, i).items()}))
    u = _d(_d(f, 0), 0)
    u0 = _d(u, 0)
    product: dict[tuple[int, ...], Rat] = {}
    for m1, c1 in u.items():
        for m2, c2 in u0.items():
            mono = tuple(map(sum, zip(m1, m2)))
            product[mono] = product.get(mono, 0) + c1 * c2
    kdv = [(1, _d(u, 1)), (-1, product), (Rat(-1, 12), _d(_d(u0, 0), 0))]
    return _residue("string equation", weight - 1, string) \
        or _residue("KdV", weight - 5, kdv)


def suite_npoint(ctx: VerifyContext) -> None:
    engine = ctx.engine

    @ctx.check("three-point-initial-value")
    def initial_value():
        return intersection_number(engine, (0, 0, 0)) == 1

    @ctx.check("one-point-closed-form")
    def one_point():
        for g in ((1, 2) if ctx.small else (1, 2, 3)):
            expected = Rat(1, 24 ** g * math.factorial(g))
            if intersection_number(engine, (3 * g - 2,)) != expected:
                return f"one-point at genus {g}"
        return True

    @ctx.check("genus-zero-generating-function")
    def genus_zero():
        for n in (3, 4, 5):
            if not genus0_check(engine, n):
                return f"failed at n={n}"
        return True

    @ctx.check("puncture-recursion")
    def puncture():
        rng = ctx.rng()
        keys = _random_valid_keys(rng, 8 if ctx.small else 20,
                                  4 if ctx.small else 9,
                                  4 if ctx.small else 6, require_zero=True)
        # worst key reach: sum of orders up to 2*9 + 6, entries one less
        big = ctx.engine_for(engine.cutoff if ctx.small else 24)
        for ms in keys:
            if not puncture_check(big, ms):
                return f"puncture recursion failed at {ms}"
        return True

    @ctx.check("two-point-vs-recursion-oracle")
    def oracle():
        bound = 5 if ctx.small else 8
        for m1 in range(bound + 1):
            for m2 in range(m1, bound - m1 + 1):
                ms = (m1, m2)
                if genus_of(ms) is None:
                    continue
                if intersection_number(engine, ms) != dvv_correlator(ms):
                    return f"two-point differs from the oracle at {ms}"
        return True

    @ctx.check("permutation-symmetry")
    def symmetry():
        rng = ctx.rng()
        keys = _random_valid_keys(rng, 6 if ctx.small else 10,
                                  4 if ctx.small else 8, 4)
        for ms in keys:
            js = [2 * m + 1 for m in ms]
            rng.shuffle(js)
            if engine.connected(tuple(js)) != engine.connected(
                    tuple(sorted(js))):
                return f"permutation changed the value at {ms}"
        return True

    @ctx.check("truncation-stability")
    def stability():
        rng = ctx.rng()
        keys = _random_valid_keys(rng, 10 if ctx.small else 20,
                                  4 if ctx.small else 8, 4)
        for ms in keys:
            js = tuple(2 * m + 1 for m in ms)
            base = engine.connected_at(js, engine.cutoff)
            grown = engine.connected_at(js, engine.cutoff + 3)
            if base != grown:
                return f"unstable at {ms}"
        return True

    @ctx.check("kdv-string-certificate")
    def kdv_string():
        # F through W' certifies every coefficient of weight <= W' - 3:
        # W15 at full scale, W9 at small scale
        return _kdv_string_residue(engine, 12 if ctx.small else 18) or True


# ---------------------------------------------------------------------------
# Suite: kp.
# ---------------------------------------------------------------------------

def suite_kp(ctx: VerifyContext) -> None:
    engine = ctx.engine
    base_weight = 9 if ctx.small else 12

    @ctx.check("wave-series-at-origin")
    def wave_at_origin():
        tau = ctx.tau(base_weight)
        stripped = wave(tau).eval_zero()
        reference = wave_series(base_weight).negate_var().rename("xi")
        return stripped.agrees_with(reference, through=base_weight) \
            or "series differ"

    @ctx.check("wave-pairing")
    def pairing_capped():
        # the degree/index-capped truncation demanded by the acceptance
        # gate: degree <= 3, indices <= 9
        # all monomials of weight beyond the reliable cap are inert for
        # every verified cell, so the build stops at weight 9
        f = free_energy(engine, 9, index_cap=9, degree_cap=3)
        cap = reliable_weight_cap(degree_cap=3, index_cap=9)
        tau = TruncatedTau(f.exp(), f, cap, 9)
        if not wave_pairing_check(tau):
            return "degree-capped pairing failed"
        if not wave_pairing_check(ctx.tau(base_weight)):
            return "weight-capped pairing failed"
        return True

    ctx.check("one-point-wave-identity")(
        lambda: theorem_one_point_check(ctx.tau(base_weight)))

    @ctx.check("differential-fay")
    def fay():
        tau = ctx.tau(9)
        return differential_fay_check(tau, (3, 3)) \
            and shifted_fay_check(tau, (3, 3))

    @ctx.check("differential-fay-toy")
    def toy_fay():
        # one-variable exponential toy tau: exp(T_1) solves the hierarchy
        # trivially and the shift identity reduces to a polynomial identity
        f = MultiPoly.var(1, weight_cap=8)
        tau = TruncatedTau(f.exp(), f, 8, 1)
        return differential_fay_check(tau, (3, 3))

    @ctx.check("matrix-one-point")
    def matrix_one_point():
        tau = ctx.tau(base_weight)
        series = matrix_one_point_series(tau)
        orders = (5,) if ctx.small else (5, 11)
        for n in orders:
            if series.coeff(-n - 1) != engine.connected((1, n)):
                return f"mixed derivative at order {n}"
        nonzero = {e for e, c in series.terms() if c != 0}
        if not nonzero <= {-(6 * g) for g in range(1, 5)}:
            return f"unexpected support {sorted(nonzero)}"
        return True

    @ctx.check("matrix-two-point")
    def matrix_two_point():
        tau = ctx.tau(base_weight if ctx.small else 15)
        pairs = [(1, 5), (3, 3), (5, 1)]
        if not ctx.small:
            pairs += [(1, 11), (3, 9), (5, 7), (7, 5), (9, 3), (11, 1)]
        for j, k in pairs:
            if matrix_two_point_coeff(tau, j, k) != engine.connected((j, k)):
                return f"two-point differs at ({j},{k})"
        return True

    @ctx.check("matrix-vacuum-entries")
    def vacuum_matrix():
        vac = TruncatedTau(MultiPoly.const(1, weight_cap=9),
                           MultiPoly.zero(weight_cap=9), 9, 9)
        top_right = vac.theta_at_zero[0][1]
        bottom_left = vac.theta_at_zero[1][0]
        if top_right.get(0) != -1 or any(e != 0 for e in top_right.coeffs):
            return "vacuum top-right entry"
        if bottom_left.get(2) != -1 or any(e != 2
                                           for e in bottom_left.coeffs):
            return "vacuum bottom-left entry"
        return True


SUITES = {
    "airy": suite_airy,
    "schur": suite_schur,
    "sato": suite_sato,
    "npoint": suite_npoint,
    "kp": suite_kp,
}


def run_suites(names, scale: str = "full") -> list[CheckResult]:
    ctx = VerifyContext(scale)
    for name in names:
        if name not in SUITES:
            raise CrossCheckError(f"unknown suite {name!r}")
        ctx.suite = name
        SUITES[name](ctx)
    return ctx.results
