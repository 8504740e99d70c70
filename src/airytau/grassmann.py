"""Generic big-cell machinery: admissible frames, Gauss normalization,
Plucker minors, Schur expansion of the tau-function, and two-point
specializations.

Basis elements are univariate Laurent series f_n = z^n + lower-order terms
with integer exponents; the conventional half-integer shift of the underlying
polarization is implicit and plays no role for any operation in scope, since
nothing here mixes the two parities across the shift.

Everything in this module is generic in the frame; the Airy-specific wiring
lives in ``airy`` and ``verify``.
"""

from __future__ import annotations

from .errors import InsufficientCutoffError, InvalidKeyError
from .linalg import det_bareiss
from .multipoly import MultiPoly
from .partitions import Partition, partitions_up_to
from .rational import Rat, min_bound
from .schur import (PowerSums, minus_spec, plus_spec, schur_at,
                    schur_sum_in_times, shorter_route)
from .series import Laurent2, Series1


class AffineCoords:
    """Table a[n][m]: element n of the normalized basis is
    z^n + sum_m a[n][m] z^(-m-1), for 0 <= n, m <= cutoff."""

    __slots__ = ("cutoff", "table")

    def __init__(self, cutoff: int, table: dict[tuple[int, int], Rat]):
        self.cutoff = cutoff
        self.table = {key: c if isinstance(c, Rat) else Rat(c)
                      for key, c in table.items() if c != 0}

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

        Each element is first truncated to order cutoff + 1.  This is exact:
        column z^e of the result depends only on column z^e of the inputs
        and on the pivots, which sit at nonnegative exponents.  An element
        reliable to less than that depth still raises WindowError.
        """
        if len(self.elements) <= cutoff:
            raise InsufficientCutoffError(
                f"frame has {len(self.elements)} elements, cutoff {cutoff} "
                f"needs {cutoff + 1}")
        rows: list[dict[int, Rat]] = []
        table: dict[tuple[int, int], Rat] = {}
        for n, f in enumerate(self.elements[:cutoff + 1]):
            row = {e: c for e, c in f.coeffs.items() if e >= -cutoff - 1}
            for k in range(n - 1, -1, -1):
                c = row.get(k)
                if c:
                    for e, v in rows[k].items():
                        row[e] = row.get(e, 0) - c * v
            row = {e: c for e, c in row.items() if c}
            rows.append(row)
            # the rows above passed this read, so only f's window can fail
            f = Series1(f.var, row, min_bound(f.order, cutoff + 1))
            for m in range(cutoff + 1):
                value = f.coeff(-m - 1)  # WindowError if depth insufficient
                if value != 0:
                    table[(n, m)] = value
        return AffineCoords(cutoff, table)

    @classmethod
    def from_coords(cls, coords: AffineCoords) -> AdmissibleFrame:
        """Rebuild the normalized basis a coordinate table describes."""
        elements = []
        for n in range(coords.cutoff + 1):
            coeffs = {n: Rat(1)}
            for m in range(coords.cutoff + 1):
                value = coords.table.get((n, m), Rat(0))
                if value != 0:
                    coeffs[-m - 1] = value
            elements.append(Series1("z", coeffs, coords.cutoff + 1))
        return cls(elements)


# ---------------------------------------------------------------------------
# Plucker coordinates.
# ---------------------------------------------------------------------------

def plucker_minor(coords: AffineCoords, mu: Partition) -> Rat:
    """(-1)^(sum of legs) times the minor of the coordinate table at the
    Frobenius coordinates of mu."""
    pairs = mu.frobenius()
    if not pairs:
        return Rat(1)
    arms = [m for m, _ in pairs]
    legs = [n for _, n in pairs]
    rows = [[coords.entry(n, m) for m in arms] for n in legs]
    sign = (-1) ** sum(legs)
    return sign * det_bareiss(rows)


def plucker_from_admissible(frame: AdmissibleFrame, mu: Partition) -> Rat:
    """The same Plucker coordinate straight from raw frame coefficients.

    The matrix has one row per basis element 0..n_1; its columns are the
    arm depths -m_i-1 followed by the surviving nonnegative exponents.  Row
    operations of the Gauss normalization leave the determinant fixed, and
    tracking the unit columns shows it equals plucker_minor exactly
    (including sign); the agreement is asserted by the test suite on random
    frames.
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
    rows = []
    for i in range(top_leg + 1):
        f = frame.elements[i]
        row = []
        for col in columns:
            if col > i:
                row.append(Rat(0))
            elif col == i:
                row.append(Rat(1))
            else:
                row.append(f.coeff(col))
        rows.append(row)
    return det_bareiss(rows)


# ---------------------------------------------------------------------------
# Schur expansion of the tau-function.
# ---------------------------------------------------------------------------

def tau_schur_coeffs(coords: AffineCoords, weight_cap: int
                     ) -> dict[Partition, Rat]:
    """Plucker coefficient of every partition of weight <= weight_cap."""
    out: dict[Partition, Rat] = {}
    for mu in partitions_up_to(weight_cap):
        c = plucker_minor(coords, mu)
        if c != 0:
            out[mu] = c
    return out


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

def _schur_sum(coords: AffineCoords, weight_cap: int, spec: PowerSums,
               zero: Laurent2) -> Laurent2:
    """sum_mu c_mu s_mu(spec) over the Schur expansion of tau through
    weight_cap, starting from ``zero``."""
    return sum((schur_at(mu, spec, shorter_route(mu)).scale(c)
                for mu, c in tau_schur_coeffs(coords, weight_cap).items()),
               zero)


def tau_minus_two_point(coords: AffineCoords, weight_cap: int,
                        vars: tuple[str, str] = ("xi", "eta")) -> Laurent2:
    """Evaluate the Schur expansion at p_k = eta^(-k) - xi^(-k).

    Only the empty partition and hooks survive the specialization; the full
    sum is taken anyway so the vanishing is exercised, not assumed.
    """
    return _schur_sum(coords, weight_cap, minus_spec(weight_cap, vars),
                      Laurent2.const(vars, 0))


def tau_plus_two_point(coords: AffineCoords, weight_cap: int,
                       vars: tuple[str, str] = ("x", "y")) -> Laurent2:
    """Evaluate the Schur expansion at p_k = x^(-k) + y^(-k)."""
    return _schur_sum(coords, weight_cap, plus_spec(weight_cap, vars),
                      Laurent2.const(vars, 0))


def kernel_pairing_form(coords: AffineCoords, depth: int,
                        vars: tuple[str, str] = ("xi", "eta")) -> Laurent2:
    """1 + (xi - eta) * sum a[n][m] xi^(-n-1) eta^(-m-1): the closed
    two-point form the minus specialization must reproduce."""
    acc: dict[tuple[int, int], Rat] = {(0, 0): Rat(1)}
    for (n, m), value in coords.table.items():
        if n > depth or m > depth:
            continue
        # (xi - eta) * xi^(-n-1) eta^(-m-1)
        acc[(-n, -m - 1)] = acc.get((-n, -m - 1), Rat(0)) + value
        acc[(-n - 1, -m)] = acc.get((-n - 1, -m), Rat(0)) - value
    return Laurent2(vars, acc)


# ---------------------------------------------------------------------------
# Reduction predicate and the recursion operator.
# ---------------------------------------------------------------------------

def reduction_check(frame: AdmissibleFrame, multiplier: Series1,
                    depth: int | None = None) -> bool:
    """True iff multiplier * f_n lies in the span of the frame, for every n
    up to the testable depth, within the elements' reliable windows."""
    top = multiplier.top
    if top is None:
        return True  # zero multiplier
    limit = len(frame) - max(top, 0)
    if depth is not None:
        limit = min(limit, depth)
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
