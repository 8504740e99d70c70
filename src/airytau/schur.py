"""Exact Schur-polynomial evaluation at power-sum specializations.

Schur values are only ever needed *at* a specialization, never as abstract
symmetric functions.  Two independent routes serve them:

* the specializations (rational numbers, Laurent polynomials in two
  variables) go through the two Jacobi-Trudi determinant routes: complete
  homogeneous h_k on the partition, or elementary e_k on its conjugate; both
  must agree, and the pair forms one of the package's standing
  cross-checks.  h_k and e_k are generated from the power sums by Newton's
  identities; the coefficient ring only needs integer +, -, * among
  elements (``Laurent2`` numerators) and one scale by 1/k per generator,
  which leaves h_k and e_k integral under both specializations below.
* the polynomial in the time variables, p_k = k T_k, goes through
  Frobenius' formula s_mu = sum_rho chi^mu_rho p_rho / z_rho, with the
  characters chi^mu_rho computed by Murnaghan-Nakayama border-strip
  removal; no polynomial arithmetic is involved.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from math import factorial, prod

from .errors import InsufficientCutoffError
from .linalg import det_bareiss, det_ring
from .multipoly import MultiPoly
from .partitions import Partition
from .rational import Rat
from .series import Laurent2


class PowerSums:
    """A power-sum specialization p_1..p_K with the ring's 0 and 1.

    The generators h_k and e_k are kept once computed and extended on
    demand, so every partition evaluated at one specialization shares them.
    """

    __slots__ = ("values", "zero", "one", "bound", "_hs", "_es")

    def __init__(self, values: dict[int, object], zero, one,
                 bound: int | None = None):
        self.values = dict(values)
        self.zero = zero
        self.one = one
        self.bound = bound if bound is not None else (
            max(values) if values else 0)
        self._hs = [one]
        self._es = [one]

    @classmethod
    def rational(cls, values: dict[int, Rat], bound: int | None = None
                 ) -> PowerSums:
        return cls({k: Rat(v) for k, v in values.items()},
                   Rat(0), Rat(1), bound)

    def p(self, k: int):
        if k > self.bound:
            raise InsufficientCutoffError(
                f"power sum p_{k} beyond declared bound {self.bound}")
        return self.values.get(k, self.zero)

    def complete_homogeneous(self, kmax: int) -> list:
        """h_0..h_kmax via k*h_k = sum_{i=1..k} p_i h_(k-i)."""
        return self._newton(self._hs, kmax, False)

    def elementary(self, kmax: int) -> list:
        """e_0..e_kmax via k*e_k = sum_{i=1..k} (-1)^(i-1) p_i e_(k-i)."""
        return self._newton(self._es, kmax, True)

    def _newton(self, gens: list, kmax: int, alternating: bool) -> list:
        for k in range(len(gens), kmax + 1):
            acc = self.zero
            for i in range(1, k + 1):
                term = self.p(i) * gens[k - i]
                acc = acc - term if alternating and i % 2 == 0 else acc + term
            gens.append(acc * Rat(1, k))
        return gens[:kmax + 1]


def _jacobi_trudi_det(gens: list, mu: Partition, zero, one):
    rows = [[gens[idx] if (idx := part - i + j) >= 0 else zero
             for j in range(mu.length)] for i, part in enumerate(mu.parts)]
    if zero == Rat(0) and isinstance(one, Rat) and all(
            isinstance(x, Rat) for row in rows for x in row):
        return det_bareiss(rows)
    return det_ring(rows, zero, one)


def shorter_route(mu: Partition) -> str:
    """The Jacobi-Trudi route with the smaller determinant: h on mu when it
    has no more rows than columns, else e on its conjugate."""
    return "h" if not mu.parts or mu.length <= mu.parts[0] else "e"


def schur_at(mu: Partition, spec: PowerSums, route: str = "h"):
    """s_mu evaluated at the specialization, by either determinant route."""
    if spec.bound < mu.weight:
        raise InsufficientCutoffError(
            f"specialization bound {spec.bound} < |mu| = {mu.weight}")
    if route not in ("h", "e"):
        raise ValueError(f"unknown route {route!r}")
    shape = mu if route == "h" else mu.conjugate()
    kmax = (shape.parts[0] + shape.length - 1) if shape.length else 0
    gens = (spec.complete_homogeneous if route == "h"
            else spec.elementary)(kmax)
    return _jacobi_trudi_det(gens, shape, spec.zero, spec.one)


# ---------------------------------------------------------------------------
# Characters and the Schur expansion in the time variables.
# ---------------------------------------------------------------------------

def _beta_mask(mu: Partition) -> int:
    """The beta set {mu_i + ell - i} of mu, ell its length, as a bitmask."""
    mask = 0
    for i, part in enumerate(mu.parts):
        mask |= 1 << (part + mu.length - 1 - i)
    return mask


def _remove_strips(weights: dict[int, object], k: int) -> dict[int, object]:
    """One Murnaghan-Nakayama step on a weighted sum of beta sets.

    Removing a k-border strip moves a bead b to an empty position b - k, with
    the sign (-1)^(beads strictly between).  Beads left filling 0, 1, ... are
    dropped, so every partition keeps the one mask ``_beta_mask`` gives it
    and equal partitions merge.  Zero weights are not kept.
    """
    out: dict[int, object] = defaultdict(int)
    between = (1 << (k - 1)) - 1
    for mask, weight in weights.items():
        for b in range(k, mask.bit_length()):
            if mask >> b & 1 and not mask >> (b - k) & 1:
                moved = mask ^ (1 << b) ^ (1 << (b - k))
                while moved & 1:
                    moved >>= 1
                if (mask >> (b - k + 1) & between).bit_count() & 1:
                    out[moved] -= weight
                else:
                    out[moved] += weight
    return {mask: weight for mask, weight in out.items() if weight}


def schur_sum_in_times(coeffs: dict[Partition, Rat], weight_cap: int
                       ) -> MultiPoly:
    """sum_mu c_mu s_mu(T) at p_k = k T_k, complete through weight_cap.

    By Frobenius' formula the coefficient of prod_k T_k^(m_k) is
    sum_mu c_mu chi^mu_rho / prod_k m_k!, where rho has m_k parts equal to
    k.  All of mu are carried as one weighted sum of beta sets, and the
    parts of rho are removed largest first along a depth-first walk: the
    empty mask after removing rho holds the sum for rho, every rho sharing
    its largest parts shares their removals, and a branch whose sum
    vanishes is not followed.
    """
    terms: dict = {}

    def descend(weights: dict[int, Rat], parts: tuple[int, ...],
                room: int) -> None:
        value = weights.get(0)
        if value:
            counts = Counter(parts)
            terms[tuple(sorted(counts.items()))] = Rat(
                value, prod(factorial(m) for m in counts.values()))
        for k in range(min(room, parts[-1] if parts else room), 0, -1):
            removed = _remove_strips(weights, k)
            if removed:
                descend(removed, parts + (k,), room - k)

    descend({_beta_mask(mu): c for mu, c in coeffs.items()}, (), weight_cap)
    return MultiPoly(terms, weight_cap=weight_cap)


# ---------------------------------------------------------------------------
# The two bivariate specializations used by the tau-function layer.
# ---------------------------------------------------------------------------

MINUS_VARS = ("xi", "eta")
PLUS_VARS = ("x", "y")


def minus_spec(bound: int) -> PowerSums:
    """p_k = eta^(-k) - xi^(-k), as exact Laurent polynomials in (xi, eta)."""
    values = {k: Laurent2(MINUS_VARS, {(0, -k): Rat(1), (-k, 0): Rat(-1)})
              for k in range(1, bound + 1)}
    return PowerSums(values, Laurent2.zero(MINUS_VARS),
                     Laurent2.const(MINUS_VARS, 1), bound)


def plus_spec(bound: int) -> PowerSums:
    """p_k = x^(-k) + y^(-k), as exact Laurent polynomials in (x, y)."""
    values = {k: Laurent2(PLUS_VARS, {(-k, 0): Rat(1), (0, -k): Rat(1)})
              for k in range(1, bound + 1)}
    return PowerSums(values, Laurent2.zero(PLUS_VARS),
                     Laurent2.const(PLUS_VARS, 1), bound)


def plus_spec_h(n: int) -> Laurent2:
    """Closed form of h_n under p_k = x^(-k) + y^(-k): the full geometric
    antidiagonal sum_{i+j=n} x^(-i) y^(-j)."""
    if n < 0:
        return Laurent2.zero(PLUS_VARS)
    return Laurent2(PLUS_VARS, {(-i, i - n): Rat(1) for i in range(n + 1)})


def hook_minus_closed(arm: int, leg: int) -> Laurent2:
    """Closed form of s_(arm|leg) at p_k = eta^(-k) - xi^(-k):
    (-1)^leg (xi - eta) xi^(-leg-1) eta^(-arm-1)."""
    sign = Rat((-1) ** leg)
    return Laurent2(MINUS_VARS, {(-leg, -arm - 1): sign,
                                 (-leg - 1, -arm): -sign})


def hook_minus_identity_check(arm: int, leg: int) -> bool:
    """Jacobi-Trudi evaluation of the hook at the difference specialization
    against its two-term closed form."""
    mu = Partition.hook(arm, leg)
    value = schur_at(mu, minus_spec(mu.weight), shorter_route(mu))
    return value == hook_minus_closed(arm, leg)


def minus_spec_nonhook_vanishing(mu: Partition) -> bool:
    """Non-hook partitions vanish at p_k = eta^(-k) - xi^(-k)."""
    value = schur_at(mu, minus_spec(mu.weight), route="h")
    return value.is_zero()


def plus_spec_tall_vanishing(mu: Partition) -> bool:
    """Partitions with more than two rows vanish at p_k = y^(-k) + (-x)^(-k).

    The sign-alternated specialization is p'_k = (-1)^k p_k of plus_spec;
    s_mu picks up a global (-1)^|mu| under that twist, so vanishing is
    equivalent for the plain plus specialization, which is what is tested.
    """
    value = schur_at(mu, plus_spec(mu.weight), route="e")
    return value.is_zero()
