"""Generic big-cell machinery: admissible frames, Gauss normalization,
Plucker minors, Schur expansion of the tau-function, and two-point
specializations.

Basis elements are univariate Laurent series f_n = z^n + lower-order terms
with integer exponents; the conventional half-integer shift of the underlying
polarization is implicit and plays no role for any operation in scope, since
nothing here mixes the two parities across the shift.

Normalization and both Plucker routes run on Python ints, each row held
as integer numerators over one positive denominator; a Fraction is built
only for a table entry or a returned coordinate.  Normalization is
back-substitution: a stored row holds its pivot and negative exponents
only, so element n's own coefficients are its multipliers, and clearing
each row to the lcm of the denominators it meets keeps it exact.

Everything in this module is generic in the frame; the Airy-specific wiring
lives in ``airy`` and ``verify``.
"""

from __future__ import annotations

import math

from .errors import InsufficientCutoffError, InvalidKeyError
from .linalg import det_int
from .multipoly import MultiPoly
from .partitions import Partition, partitions_up_to
from .rational import Rat
from .schur import (MINUS_VARS, PowerSums, minus_spec, plus_spec, schur_at,
                    schur_sum_in_times, shorter_route)
from .series import Laurent2, Series1


class AffineCoords:
    """Table a[n][m]: element n of the normalized basis is
    z^n + sum_m a[n][m] z^(-m-1), for 0 <= n, m <= cutoff.

    Held as integer rows, a[n][m] = nums[n][m] / dens[n] with dens[n] > 0;
    ``table`` holds the nonzero entries as rationals, ``_schur`` the Schur
    expansion of tau per weight cap (``tau_schur_coeffs``)."""

    __slots__ = ("cutoff", "nums", "dens", "table", "_schur")

    def __init__(self, cutoff: int, nums: list[list[int]], dens: list[int]):
        self.cutoff, self.nums, self.dens = cutoff, nums, dens
        self.table = {(n, m): Rat(v, dens[n]) for n, row in enumerate(nums)
                      for m, v in enumerate(row) if v}
        self._schur: dict[int, dict[Partition, Rat]] = {}

    def entry(self, n: int, m: int) -> Rat:
        if n < 0 or m < 0 or n > self.cutoff or m > self.cutoff:
            raise InsufficientCutoffError(
                f"affine coordinate ({n},{m}) beyond cutoff {self.cutoff}")
        return self.table.get((n, m), Rat(0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, AffineCoords)
                and self.cutoff == other.cutoff and self.table == other.table)


class AdmissibleFrame:
    """A finite list of basis elements f_n = z^n + lower-order terms."""

    def __init__(self, elements: list[Series1]):
        self.elements = list(elements)
        for n, f in enumerate(self.elements):
            top = f.top
            if top is None or top != n or f.get(n) != 1:
                raise InvalidKeyError(
                    f"element {n} is not admissible (leading term "
                    f"{f.get(top) if top is not None else 0}*z^{top})")

    def __len__(self) -> int:
        return len(self.elements)

    def normalize(self, cutoff: int) -> AffineCoords:
        """Gauss-eliminate every nonnegative exponent except the leading one
        and read off the affine coordinates down to depth ``cutoff``.

        Back-substitution: a stored row r_k holds z^k and negative exponents
        only, so subtracting a multiple of it moves no other pivot, and
        r_n = f_n - sum_{k<n} f_n[k] r_k.  With r_k = R_k / D_k on integers,
        f_n = N / d in lowest terms once cut to the exponents read, and L
        the lcm of the D_k used, den = d L gives den r_n = den f_n -
        sum_k (den f_n[k] / D_k) R_k, each quotient exact as D_k divides L;
        one gcd reduces the row.  Keeping only
        z^-1 .. z^(-cutoff-1) is exact, as column z^e of r_n reads only
        column z^e of the inputs.  An element reliable to less than that
        depth raises WindowError.
        """
        if len(self.elements) <= cutoff:
            raise InsufficientCutoffError(
                f"frame has {len(self.elements)} elements, cutoff {cutoff} "
                f"needs {cutoff + 1}")
        size = cutoff + 1
        nums, dens = [], []
        for n, f in enumerate(self.elements[:size]):
            if f.order is not None and f.order < size:
                f.coeff(-max(f.order, 0) - 1)  # raises WindowError
            cut = f.truncated(size)
            lcm = math.lcm(*(dens[k] for k in cut.num if 0 <= k < n))
            den = lcm * cut.den
            num = [0] * size
            for e, c in cut.num.items():
                v = c * lcm
                if e < 0:
                    num[-e - 1] += v
                elif e < n:
                    s = v // dens[e]
                    for m, w in enumerate(nums[e]):
                        if w:
                            num[m] -= s * w
            g = math.gcd(den, *num)
            nums.append([v // g for v in num])
            dens.append(den // g)
        return AffineCoords(cutoff, nums, dens)

    @classmethod
    def from_coords(cls, coords: AffineCoords) -> AdmissibleFrame:
        """Rebuild the normalized basis a coordinate table describes."""
        size = coords.cutoff + 1
        coeffs = [{n: Rat(1)} for n in range(size)]
        for (n, m), value in coords.table.items():
            coeffs[n][-m - 1] = value
        return cls([Series1("z", c, size) for c in coeffs])


# ---------------------------------------------------------------------------
# Plucker coordinates.
# ---------------------------------------------------------------------------

def plucker_minor(coords: AffineCoords, mu: Partition) -> Rat:
    """(-1)^(sum of legs) times the minor of the coordinate table at the
    Frobenius coordinates of mu, from the table's integer rows."""
    pairs = mu.frobenius()
    if not pairs:
        return Rat(1)
    arms = [m for m, _ in pairs]
    legs = [n for _, n in pairs]
    if max(arms[0], legs[0]) > coords.cutoff:
        coords.entry(legs[0], arms[0])  # raises InsufficientCutoffError
    det = det_int([[coords.nums[n][m] for m in arms] for n in legs])
    return Rat((-1) ** sum(legs) * det,
               math.prod(coords.dens[n] for n in legs))


def plucker_from_admissible(frame: AdmissibleFrame, mu: Partition) -> Rat:
    """The same Plucker coordinate straight from raw frame coefficients.

    The matrix has one row per basis element 0..n_1; its columns are the
    arm depths -m_i-1 followed by the surviving nonnegative exponents.  Row
    operations of the Gauss normalization leave the determinant fixed, and
    tracking the unit columns shows it equals plucker_minor exactly
    (including sign); the agreement is asserted by the test suite on random
    frames.  Rows are the elements' integer numerators, the determinant
    is over the product of their denominators.
    """
    pairs = mu.frobenius()
    if not pairs:
        return Rat(1)
    arms = [m for m, _ in pairs]
    legs = [n for _, n in pairs]
    top_leg = legs[0]
    if len(frame) <= top_leg:
        raise InsufficientCutoffError(
            f"frame depth {len(frame)} cannot reach leg {top_leg}")
    kept = [j for j in range(top_leg + 1) if j not in set(legs)]
    columns = sorted(-m - 1 for m in arms) + kept
    elements = frame.elements[:top_leg + 1]
    for f in elements:
        if f.order is not None and columns[0] < -f.order:
            f.coeff(columns[0])  # raises WindowError
    rows = [[f.num.get(col, 0) for col in columns] for f in elements]
    return Rat(det_int(rows), math.prod(f.den for f in elements))


# ---------------------------------------------------------------------------
# Schur expansion of the tau-function.
# ---------------------------------------------------------------------------

def tau_schur_coeffs(coords: AffineCoords, weight_cap: int
                     ) -> dict[Partition, Rat]:
    """Plucker coefficient of every partition of weight <= weight_cap.

    Computed once per weight cap and kept on ``coords``; every call returns
    a new dict."""
    kept = coords._schur.get(weight_cap)
    if kept is None:
        kept = coords._schur[weight_cap] = {
            mu: c for mu in partitions_up_to(weight_cap)
            if (c := plucker_minor(coords, mu)) != 0}
    return dict(kept)


def tau_polynomial(coords: AffineCoords, weight_cap: int) -> MultiPoly:
    """The tau-function as a weight-complete polynomial in T_1, T_2, ...

    Each Schur polynomial is weight-homogeneous, so summing over partitions
    of weight <= weight_cap yields the full truncation.  The sum is taken by
    characters (``schur_sum_in_times``), sharing no Schur-evaluation code
    with the Jacobi-Trudi specializations below.
    """
    return schur_sum_in_times(tau_schur_coeffs(coords, weight_cap),
                              weight_cap)


# ---------------------------------------------------------------------------
# Two-point specializations of tau.
# ---------------------------------------------------------------------------

def _schur_sum(coords: AffineCoords, weight_cap: int, spec: PowerSums
               ) -> Laurent2:
    """sum_mu c_mu s_mu(spec) over the Schur expansion of tau through
    weight_cap, starting from the specialization's zero."""
    return sum((schur_at(mu, spec, shorter_route(mu)).scale(c)
                for mu, c in tau_schur_coeffs(coords, weight_cap).items()),
               spec.zero)


def tau_minus_two_point(coords: AffineCoords, weight_cap: int) -> Laurent2:
    """Evaluate the Schur expansion at p_k = eta^(-k) - xi^(-k).

    Only the empty partition and hooks survive the specialization; the full
    sum is taken anyway so the vanishing is exercised, not assumed.
    """
    return _schur_sum(coords, weight_cap, minus_spec(weight_cap))


def tau_plus_two_point(coords: AffineCoords, weight_cap: int) -> Laurent2:
    """Evaluate the Schur expansion at p_k = x^(-k) + y^(-k)."""
    return _schur_sum(coords, weight_cap, plus_spec(weight_cap))


def kernel_pairing_form(coords: AffineCoords, depth: int) -> Laurent2:
    """1 + (xi - eta) * sum a[n][m] xi^(-n-1) eta^(-m-1): the closed
    two-point form the minus specialization must reproduce."""
    acc: dict[tuple[int, int], Rat] = {(0, 0): Rat(1)}
    for (n, m), value in coords.table.items():
        if n > depth or m > depth:
            continue
        # (xi - eta) * xi^(-n-1) eta^(-m-1)
        acc[(-n, -m - 1)] = acc.get((-n, -m - 1), Rat(0)) + value
        acc[(-n - 1, -m)] = acc.get((-n - 1, -m), Rat(0)) - value
    return Laurent2(MINUS_VARS, acc)


# ---------------------------------------------------------------------------
# Reduction predicate and the recursion operator.
# ---------------------------------------------------------------------------

def reduction_check(frame: AdmissibleFrame, multiplier: Series1) -> bool:
    """True iff multiplier * f_n lies in the span of the frame, for every n
    up to the testable depth, within the elements' reliable windows."""
    top = multiplier.top
    if top is None:
        return True  # zero multiplier
    limit = len(frame) - max(top, 0)
    if limit <= 0:
        raise InsufficientCutoffError("frame too short for this multiplier")
    for n in range(limit):
        g = multiplier * frame.elements[n]
        e = g.top
        while e is not None and e >= 0:
            c = g.get(e)
            if c != 0:
                if e >= len(frame):
                    raise InsufficientCutoffError(
                        f"reduction needs element {e}, frame has {len(frame)}")
                g = g - frame.elements[e].scale(c)
            e -= 1
        if not g.is_zero():
            return False
    return True


def d_operator(f: Series1) -> Series1:
    """z + 1/(2 z^2) - (1/z) d/dz, acting on a series in z."""
    return f.shift(1) + f.shift(-2).scale(Rat(1, 2)) \
        - f.derivative().shift(-1)
