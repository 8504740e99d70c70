"""The four benchmark workloads.

Each workload makes its inputs from the seed (``build``), derives the
expected outputs from the DVV recursion oracle and other routes that share
no code with the op under test (``oracle``, never timed), runs one pass of
ops against the package (``run``), and judges every op's output after the
pass (``check``).  A pass builds fresh engines and tau-functions, as a user
process does; only the inputs and the oracle's values outlive it.

The package is reached through attribute lookups on its modules
(``pkg.npoint.free_energy``) at call time, so a pass sees the span wrappers
when they are installed and the plain functions otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement


# ---------------------------------------------------------------------------
# Oracle helpers: the selection rule, DVV values and a truncated exponential,
# written here so that the expected values do not come from the code under
# test.
# ---------------------------------------------------------------------------

def genus(ms) -> int | None:
    """Genus forced by sum(m) = 3g - 3 + n, or None for an invalid key."""
    n, total = len(ms), sum(ms) - len(ms) + 3
    if n < 1 or total < 0 or total % 3 or n + 2 * (total // 3) < 3:
        return None
    return total // 3


def keys_through(weight: int) -> list[tuple[int, ...]]:
    """All valid keys of weight sum(2 m + 1) <= weight, ascending."""
    return [ms for n in range(1, weight + 1)
            for ms in combinations_with_replacement(
                range((weight - n) // 2 + 1), n)
            if 2 * sum(ms) + n <= weight and genus(ms) is not None]


def odd_double_factorial(j: int) -> int:
    return math.prod(range(j, 0, -2))


def connected_dvv(pkg, ms) -> Fraction:
    """Connected coefficient at orders 2 m + 1: the DVV correlator times
    the double factorials."""
    value = pkg.verify.dvv_correlator(ms)
    for m in ms:
        value *= odd_double_factorial(2 * m + 1)
    return value


def weight_of(mono) -> int:
    return sum(k * e for k, e in mono)


def dvv_free_energy(pkg, weight: int) -> dict:
    """Free-energy terms {monomial: coefficient} through ``weight``, in the
    package's monomial format (sorted (index, exponent) pairs) and its
    exponential generating convention."""
    terms = {}
    for ms in keys_through(weight):
        value = connected_dvv(pkg, ms)
        orders: dict[int, int] = {}
        for m in ms:
            orders[2 * m + 1] = orders.get(2 * m + 1, 0) + 1
        for r in orders.values():
            value /= math.factorial(r)
        if value:
            terms[tuple(sorted(orders.items()))] = value
    return terms


def _mono_mul(a, b):
    merged = dict(a)
    for k, e in b:
        merged[k] = merged.get(k, 0) + e
    return tuple(sorted(merged.items()))


def exp_terms(terms: dict, cap: int) -> dict:
    """exp of a polynomial without constant term, truncated at weight cap."""
    result = {(): Fraction(1)}
    power = {(): Fraction(1)}
    low = min(weight_of(m) for m in terms)
    for k in range(1, cap // low + 1):
        nxt: dict = {}
        for m1, c1 in power.items():
            for m2, c2 in terms.items():
                if weight_of(m1) + weight_of(m2) <= cap:
                    key = _mono_mul(m1, m2)
                    nxt[key] = nxt.get(key, 0) + c1 * c2 / k
        power = nxt
        for m, c in power.items():
            result[m] = result.get(m, 0) + c
    return {m: c for m, c in result.items() if c}


def minus_two_point_cells(tau_terms: dict, cap: int) -> dict:
    """tau at T_k = (eta^-k - xi^-k) / k as {(xi exponent, eta exponent):
    coefficient}, through total degree -cap."""
    out: dict = {}
    for mono, c in tau_terms.items():
        if weight_of(mono) > cap:
            continue
        cells = {(0, 0): c}
        for k, e in mono:
            cells = _laurent_mul(cells, {
                (-k * i, -k * (e - i)):
                    Fraction(math.comb(e, i) * (-1) ** i, k ** e)
                for i in range(e + 1)})
        for key, value in cells.items():
            out[key] = out.get(key, 0) + value
    return {key: value for key, value in out.items() if value}


def _laurent_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (x1, y1), c1 in a.items():
        for (x2, y2), c2 in b.items():
            key = (x1 + x2, y1 + y2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

class FreeEnergy:
    """What ``tau --basis monomial`` does, preceded by correlator queries.

    One certified engine answers every key of F through the weight cap, in
    seeded order and with the exponents of each key in seeded order, then
    assembles the free energy and tau.  Many small-n keys share the engine,
    so this stresses the cycle sum at modest n, table and value memoization,
    and certification.
    """

    name = "free-energy"
    WEIGHT = 11
    CUTOFF = 18
    settings = {"weight_cap": WEIGHT, "kernel": "closed",
                "kernel_cutoff": CUTOFF, "certify": True}

    def build(self, pkg, rng):
        keys = keys_through(self.WEIGHT)
        rng.shuffle(keys)
        return [tuple(rng.sample(ms, len(ms))) for ms in keys]

    def oracle(self, pkg, keys):
        free_energy = dvv_free_energy(pkg, self.WEIGHT)
        tau_cap = pkg.wave.padded_weight_cap(self.WEIGHT)
        expected = {("correlator", ms): pkg.verify.dvv_correlator(ms)
                    for ms in keys}
        expected[("free_energy",)] = free_energy
        expected[("tau",)] = exp_terms(free_energy, tau_cap)
        return expected

    def run(self, pkg, keys, op):
        engine = pkg.npoint.NPointEngine(pkg.airy.kernel_closed, self.CUTOFF)
        for ms in keys:
            op(("correlator", ms),
               lambda: pkg.npoint.intersection_number(engine, ms))
        f = op(("free_energy",),
               lambda: pkg.npoint.free_energy(engine, self.WEIGHT))
        op(("tau",), lambda: pkg.wave.tau_from_free_energy(
            f, pkg.wave.padded_weight_cap(self.WEIGHT)))

    def check(self, expected, key, value):
        if key[0] == "correlator":
            return value == expected[key]
        if key[0] == "free_energy":
            return value.terms == expected[key]
        return value.poly.terms == expected[key]


def _cli_json(pkg, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


class ManyPoint:
    """In-process ``correlator --format json`` on keys of 6 points and
    genus 0 and of 5 points and genus 1, each with a fresh engine as the CLI builds one.

    Few keys, 2^(n-1) n cycle-sum states each and no reuse across keys: the
    npoint layer is used differently from free-energy, and the slowest key
    is the time a user waits.  The keys are fixed, so that every seed costs
    the same; the seed sets the key order and the index order in each key.
    """

    name = "many-point"
    KEYS = ((0, 0, 0, 0, 1, 2), (0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 4),
            (0, 0, 1, 1, 3))
    settings = {"keys": [list(ms) for ms in KEYS],
                "kernel_cutoff": "CLI default max(12, sum(j) + 1)",
                "certify": True}

    def build(self, pkg, rng):
        keys = [tuple(rng.sample(ms, len(ms))) for ms in self.KEYS]
        rng.shuffle(keys)
        return keys

    def oracle(self, pkg, keys):
        return {("correlator", ms): (genus(ms),
                                     pkg.verify.dvv_correlator(ms))
                for ms in keys}

    def run(self, pkg, keys, op):
        for ms in keys:
            argv = ["correlator", "--indices", ",".join(map(str, ms)),
                    "--format", "json"]
            op(("correlator", ms), lambda: _cli_json(pkg, argv))

    def check(self, expected, key, value):
        code, text = value
        g, correlator = expected[key]
        [record] = json.loads(text)
        return (code == 0 and record["indices"] == list(key[1])
                and record["genus"] == g
                and Fraction(record["value"]) == correlator)


class KpWave:
    """The KP wave layer on tau-functions built from the DVV free energy.

    Matrix two-point coefficients on seeded (j, k) pairs, the matrix
    one-point series, the one-point wave theorem and the wave pairing at
    weight 11, and both Fay identities at weight 9.  Wave, series and
    multipoly do the work and npoint does none; this covers the slowest
    check of ``verify``.
    """

    name = "kp-wave"
    TWO_POINT_WEIGHT = 13
    THEOREM_WEIGHT = 11
    FAY_WEIGHT = 9
    FAY_BIDEGREE = (3, 3)
    PAIR_SUMS = (6, 10)
    settings = {"two_point_tau_weight": TWO_POINT_WEIGHT,
                "theorem_tau_weight": THEOREM_WEIGHT,
                "fay_tau_weight": FAY_WEIGHT,
                "fay_bidegree": list(FAY_BIDEGREE),
                "pair_sums": list(PAIR_SUMS)}

    def build(self, pkg, rng):
        weights = (self.TWO_POINT_WEIGHT, self.THEOREM_WEIGHT,
                   self.FAY_WEIGHT)
        free = {w: pkg.multipoly.MultiPoly(dvv_free_energy(pkg, w),
                                           weight_cap=w)
                for w in weights}
        pairs = [rng.choice([(j, s - j) for j in range(1, s, 2)])
                 for s in self.PAIR_SUMS]
        return free, pairs

    def oracle(self, pkg, inputs):
        free, pairs = inputs
        expected = {("tau", w): exp_terms(f.terms,
                                          pkg.wave.padded_weight_cap(w))
                    for w, f in free.items()}
        for j, k in pairs:
            expected[("two_point", j, k)] = connected_dvv(
                pkg, ((j - 1) // 2, (k - 1) // 2))
        # the series is exact through xi^-(weight + 3) at most
        expected[("one_point",)] = {
            -n - 1: connected_dvv(pkg, (0, (n - 1) // 2))
            for n in range(1, self.TWO_POINT_WEIGHT + 4, 2)}
        return expected

    def run(self, pkg, inputs, op):
        free, pairs = inputs
        taus = {w: op(("tau", w), lambda: pkg.wave.tau_from_free_energy(
                    f, pkg.wave.padded_weight_cap(w)))
                for w, f in free.items()}
        top = taus[self.TWO_POINT_WEIGHT]
        for j, k in pairs:
            op(("two_point", j, k),
               lambda: pkg.wave.matrix_two_point_coeff(top, j, k))
        op(("one_point",), lambda: pkg.wave.matrix_one_point_series(top))
        mid = taus[self.THEOREM_WEIGHT]
        op(("theorem",), lambda: pkg.wave.theorem_one_point_check(mid))
        op(("pairing",), lambda: pkg.wave.wave_pairing_check(mid))
        low = taus[self.FAY_WEIGHT]
        op(("differential_fay",),
           lambda: pkg.wave.differential_fay_check(low, self.FAY_BIDEGREE))
        op(("shifted_fay",),
           lambda: pkg.wave.shifted_fay_check(low, self.FAY_BIDEGREE))

    def check(self, expected, key, value):
        if key[0] == "tau":
            return value.poly.terms == expected[key]
        if key[0] == "two_point":
            return value == expected[key]
        if key[0] == "one_point":
            # every exact coefficient: d^2 F / dT_1 dT_n at the origin
            coeffs = expected[key]
            return value.order is not None and all(
                value.coeff(e) == coeffs.get(e, 0)
                for e in range(0, -value.order - 1, -1))
        return value is True


def _plucker_pairs(pkg, frame, partitions, cutoff):
    coords = frame.normalize(cutoff)
    return [(pkg.grassmann.plucker_minor(coords, mu),
             pkg.grassmann.plucker_from_admissible(frame, mu))
            for mu in partitions]


class SatoSchur:
    """The kernel routes and the Sato-Grassmannian and Schur layers.

    Four-route kernel agreement at a large cutoff, the Airy frame's
    normalization, the Schur expansion of tau with its minus two-point
    specialization and polynomial form, and Plucker minors by both routes on
    seeded random admissible frames.  Without it the airy, grassmann, schur
    and linalg layers would go unmeasured.
    """

    name = "sato-schur"
    ROUTES_CUTOFF = 30
    WEIGHT = 11
    FRAMES = 8
    FRAME_SIZE = 9
    FRAME_DEPTH = 9
    MINOR_CUTOFF = 8
    settings = {"routes_cutoff": ROUTES_CUTOFF, "tau_weight_cap": WEIGHT,
                "coordinate_cutoff": WEIGHT, "random_frames": FRAMES,
                "random_frame_size": FRAME_SIZE,
                "random_frame_depth": FRAME_DEPTH,
                "minor_cutoff": MINOR_CUTOFF}

    def _random_frame(self, pkg, rng, pattern):
        """An admissible frame; ``pattern`` places its nonzero
        coefficients and ``rng`` draws their values."""
        elements = []
        for n in range(self.FRAME_SIZE):
            coeffs = {n: Fraction(1)}
            for e in range(n - 1, -self.FRAME_DEPTH - 1, -1):
                if pattern.random() < 0.6:
                    coeffs[e] = Fraction(rng.choice((-1, 1))
                                         * rng.randint(1, 5),
                                         rng.randint(1, 3))
            elements.append(pkg.series.Series1("z", coeffs, self.FRAME_DEPTH))
        return pkg.grassmann.AdmissibleFrame(elements)

    def build(self, pkg, rng):
        # the nonzero positions, and so the cost, are the same for every
        # seed; the seed draws the values
        pattern = random.Random(0)
        frames = [self._random_frame(pkg, rng, pattern)
                  for _ in range(self.FRAMES)]
        partitions = [mu for mu in pkg.partitions.partitions_up_to(
                          self.MINOR_CUTOFF)
                      if not mu.length
                      or max(mu.frobenius()[0]) <= self.MINOR_CUTOFF]
        return frames, partitions

    def _airy_coords(self, pkg):
        frame = pkg.grassmann.AdmissibleFrame(pkg.airy.airy_frame(
            self.WEIGHT + 1, pkg.airy.required_order(self.WEIGHT)))
        return frame, frame.normalize(self.WEIGHT)

    def oracle(self, pkg, inputs):
        tau = exp_terms(dvv_free_energy(pkg, self.WEIGHT), self.WEIGHT)
        frame, _ = self._airy_coords(pkg)
        schur = {}
        for mu in pkg.partitions.partitions_up_to(self.WEIGHT):
            value = pkg.grassmann.plucker_from_admissible(frame, mu)
            if value:
                schur[mu] = value
        blocks = pkg.verify.KERNEL_BLOCKS
        return {
            ("routes",): {(m, s - m): blocks.get((m, s - m), 0)
                          for s in range(9) for m in range(s + 1)},
            ("normalize",): pkg.airy.kernel_closed(self.WEIGHT).table,
            ("schur_coeffs",): schur,
            ("minus_two_point",): minus_two_point_cells(tau, self.WEIGHT),
            ("tau_polynomial",): tau,
        }

    def run(self, pkg, inputs, op):
        frames, partitions = inputs
        op(("routes",), lambda: pkg.airy.check_all_routes(self.ROUTES_CUTOFF))
        coords = op(("normalize",), lambda: self._airy_coords(pkg)[1])
        op(("schur_coeffs",),
           lambda: pkg.grassmann.tau_schur_coeffs(coords, self.WEIGHT))
        op(("minus_two_point",),
           lambda: pkg.grassmann.tau_minus_two_point(coords, self.WEIGHT))
        op(("tau_polynomial",),
           lambda: pkg.grassmann.tau_polynomial(coords, self.WEIGHT))
        for i, frame in enumerate(frames):
            op(("plucker", i), lambda: _plucker_pairs(
                pkg, frame, partitions, self.MINOR_CUTOFF))

    def check(self, expected, key, value):
        if key[0] == "plucker":
            return all(a == b for a, b in value)
        if key[0] == "routes":
            return value.cutoff == self.ROUTES_CUTOFF and all(
                value.entry(m, n) == v for (m, n), v in expected[key].items())
        if key[0] == "normalize":
            return value.table == expected[key]
        if key[0] == "schur_coeffs":
            return value == expected[key]
        if key[0] == "minus_two_point":
            cells = expected[key]
            return all(value.coeff(*cell) == cells.get(cell, 0)
                       for cell in set(cells) | set(value.coeffs)
                       if -(cell[0] + cell[1]) <= self.WEIGHT)
        return value.terms == expected[key]


WORKLOADS = {w.name: w for w in (FreeEnergy(), ManyPoint(), KpWave(),
                                 SatoSchur())}
