"""Exact Schur-polynomial evaluation at power-sum specializations.

Schur values are only ever needed *at* a specialization (rational numbers,
Laurent polynomials in two variables, or polynomials in the time variables),
never as abstract symmetric functions.  Evaluation goes through the two
Jacobi-Trudi determinant routes: complete homogeneous h_k on the partition,
or elementary e_k on its conjugate; both must agree, and the pair forms one
of the package's standing cross-checks.

h_k and e_k are generated from the power sums by Newton's identities; the
coefficient ring only needs +, -, * among elements and * by a Fraction.
"""

from __future__ import annotations

from .errors import InsufficientCutoffError
from .linalg import det_bareiss, det_ring
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
        hs = self._hs
        for k in range(len(hs), kmax + 1):
            acc = self.zero
            for i in range(1, k + 1):
                acc = acc + self.p(i) * hs[k - i]
            hs.append(acc * Rat(1, k))
        return hs[:kmax + 1]

    def elementary(self, kmax: int) -> list:
        """e_0..e_kmax via k*e_k = sum_{i=1..k} (-1)^(i-1) p_i e_(k-i)."""
        es = self._es
        for k in range(len(es), kmax + 1):
            acc = self.zero
            for i in range(1, k + 1):
                term = self.p(i) * es[k - i]
                acc = acc + (term if i % 2 == 1 else -term)
            es.append(acc * Rat(1, k))
        return es[:kmax + 1]


def _jacobi_trudi_det(gens: list, mu: Partition, zero, one):
    ell = mu.length
    if ell == 0:
        return one
    rows = []
    for i in range(1, ell + 1):
        row = []
        for j in range(1, ell + 1):
            idx = mu.parts[i - 1] - i + j
            if idx < 0:
                row.append(zero)
            else:
                row.append(gens[idx])
        rows.append(row)
    if zero == Rat(0) and isinstance(one, Rat) and all(
            isinstance(x, Rat) for row in rows for x in row):
        return det_bareiss(rows)
    return det_ring(rows, zero, one)


def schur_at(mu: Partition, spec: PowerSums, route: str = "h"):
    """s_mu evaluated at the specialization, by either determinant route."""
    if spec.bound < mu.weight:
        raise InsufficientCutoffError(
            f"specialization bound {spec.bound} < |mu| = {mu.weight}")
    if route == "h":
        kmax = (mu.parts[0] + mu.length - 1) if mu.length else 0
        return _jacobi_trudi_det(spec.complete_homogeneous(kmax), mu,
                                 spec.zero, spec.one)
    if route == "e":
        conj = mu.conjugate()
        kmax = (conj.parts[0] + conj.length - 1) if conj.length else 0
        return _jacobi_trudi_det(spec.elementary(kmax), conj,
                                 spec.zero, spec.one)
    raise ValueError(f"unknown route {route!r}")


# ---------------------------------------------------------------------------
# The two bivariate specializations used by the tau-function layer.
# ---------------------------------------------------------------------------

def minus_spec(bound: int, vars: tuple[str, str] = ("xi", "eta")
               ) -> PowerSums:
    """p_k = eta^(-k) - xi^(-k), as exact Laurent polynomials in (xi, eta)."""
    xi, eta = vars
    values = {k: Laurent2((xi, eta), {(0, -k): Rat(1), (-k, 0): Rat(-1)})
              for k in range(1, bound + 1)}
    return PowerSums(values, Laurent2.zero(vars), Laurent2.const(vars, 1),
                     bound)


def plus_spec(bound: int, vars: tuple[str, str] = ("x", "y")) -> PowerSums:
    """p_k = x^(-k) + y^(-k), as exact Laurent polynomials in (x, y)."""
    values = {k: Laurent2(vars, {(-k, 0): Rat(1), (0, -k): Rat(1)})
              for k in range(1, bound + 1)}
    return PowerSums(values, Laurent2.zero(vars), Laurent2.const(vars, 1),
                     bound)


def plus_spec_h(n: int, vars: tuple[str, str] = ("x", "y")) -> Laurent2:
    """Closed form of h_n under p_k = x^(-k) + y^(-k): the full geometric
    antidiagonal sum_{i+j=n} x^(-i) y^(-j)."""
    if n < 0:
        return Laurent2.zero(vars)
    return Laurent2(vars, {(-i, -(n - i)): Rat(1) for i in range(n + 1)})


def minus_spec_h_alternating(n: int, vars: tuple[str, str] = ("x", "y")
                             ) -> Laurent2:
    """Closed form of h_n under p_k = y^(-k) + (-x)^(-k):
    sum_{i+j=n} (-1)^i x^(-i) y^(-j)."""
    if n < 0:
        return Laurent2.zero(vars)
    return Laurent2(vars, {(-i, -(n - i)): Rat((-1) ** i)
                           for i in range(n + 1)})


def hook_minus_closed(arm: int, leg: int,
                      vars: tuple[str, str] = ("xi", "eta")) -> Laurent2:
    """Closed form of s_(arm|leg) at p_k = eta^(-k) - xi^(-k):
    (-1)^leg (xi - eta) xi^(-leg-1) eta^(-arm-1)."""
    sign = Rat((-1) ** leg)
    return Laurent2(vars, {(-leg, -arm - 1): sign,
                           (-leg - 1, -arm): -sign})


def hook_minus_identity_check(arm: int, leg: int) -> bool:
    """Jacobi-Trudi evaluation of the hook at the difference specialization
    against its two-term closed form."""
    mu = Partition.hook(arm, leg)
    spec = minus_spec(mu.weight)
    value = schur_at(mu, spec, route="h")
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
