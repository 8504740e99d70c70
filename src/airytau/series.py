"""Truncated formal Laurent series, the carrier of all generating functions.

``Series1`` is a sparse univariate Laurent series with an explicit reliability
order: terms with exponent >= -order are exact, everything below is unknown
(truncated), never silently zero.  ``order=None`` marks a series that is exact
everywhere (a finite Laurent polynomial, e.g. a multiplier like z**2).

``Laurent2`` is a sparse *exact* Laurent polynomial in two variables.  All
bivariate objects in this package are built from explicitly truncated inputs
whose adequacy is checked by the caller (the kernel assembly enforces its
input-order precondition), so no per-cell reliability bookkeeping is carried
here; truncation honesty is certified by cross-route equality checks instead.
Under the Schur specializations h_n and e_n are integral, so the
Jacobi-Trudi determinants run on integers.  The kernel expansion routes use
``outer_sum`` and ``div_diff_powers`` on plain dicts of integer numerators
instead.

Both hold integer numerators over one positive denominator in lowest terms
(``rational.Ratios``), so the ring needs only integer +, - and * and one
scale by a rational, zero coefficients are never stored and equality is
structural.  All values are immutable after construction and every
operation is pure, so unrestricted concurrent use is safe and results do
not depend on evaluation order.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .errors import InvalidKeyError, WindowError
from .rational import (Rat, Ratios, format_rat, lowest_terms, min_bound,
                       over_lcm)


class Series1(Ratios):
    """Sparse univariate Laurent series with a reliability order.

    Integer numerators ``num`` by exponent over one positive ``den``, in
    lowest terms; ``coeffs`` reads them back as exponent -> nonzero
    Fraction.  ``order = N`` means every coefficient with exponent >= -N is
    exact; reading below -N raises WindowError.  N may be negative (e.g.
    after multiplying by a positive power of the variable).
    """

    __slots__ = ("var", "order")

    def __init__(self, var: str, coeffs: dict[int, Rat] | None = None,
                 order: int | None = None):
        self._fill(*over_lcm(coeffs or {}), var, order)

    def _fill(self, num, den, var, order) -> None:
        if order is not None and min(num, default=0) < -order:
            # below the reliable window: not representable
            num = {e: n for e, n in num.items() if e >= -order}
        self.var, self.order = var, order
        self.num, self.den = lowest_terms(num, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var: str) -> Series1:
        return cls(var, {}, None)

    @classmethod
    def const(cls, var: str, value) -> Series1:
        return cls(var, {0: value}, None)

    @classmethod
    def monomial(cls, var: str, exp: int) -> Series1:
        return cls(var, {exp: 1}, None)

    # -- inspection --------------------------------------------------------

    @property
    def top(self) -> int | None:
        """Most positive exponent present, or None for the zero series."""
        return max(self.num) if self.num else None

    def coeff(self, exp: int) -> Rat:
        """Exact coefficient of var**exp; raises below the reliable window."""
        if self.order is not None and exp < -self.order:
            raise WindowError(
                f"coefficient of {self.var}^{exp} outside reliable window "
                f"(order {self.order})")
        return self._at(exp)

    def get(self, exp: int) -> Rat:
        """Unchecked access (0 for anything not stored)."""
        return self._at(exp)

    def terms(self) -> list[tuple[int, Rat]]:
        """(exponent, coefficient) pairs, exponents descending."""
        return [(e, Rat(n, self.den))
                for e, n in sorted(self.num.items(), reverse=True)]

    def __repr__(self) -> str:
        body = " + ".join(f"({format_rat(c)}){self.var}^{e}"
                          for e, c in self.terms()) or "0"
        tail = "" if self.order is None else f"  [exact >= {self.var}^{-self.order}]"
        return body + tail

    def agrees_with(self, other: Series1, through: int | None = None) -> bool:
        """True iff both series match on the overlap of reliable windows.

        ``through=K`` additionally demands that the shared window reach down
        to exponent -K.  Coefficients are compared across the two
        denominators: n1 / d1 == n2 / d2 exactly when n1 * d2 == n2 * d1.
        """
        n = min_bound(self.order, other.order)
        if through is not None:
            if n is not None and n < through:
                return False
            n = through
        d1, d2 = self.den, other.den
        return all(self.num.get(e, 0) * d2 == other.num.get(e, 0) * d1
                   for e in self.num.keys() | other.num.keys()
                   if n is None or e >= -n)

    # -- arithmetic --------------------------------------------------------

    def _check_var(self, other: Series1) -> None:
        if self.var != other.var:
            raise InvalidKeyError(
                f"variable mismatch: {self.var!r} vs {other.var!r}")

    def _sum(self, other: Series1) -> tuple[str, int | None]:
        self._check_var(other)
        return self.var, min_bound(self.order, other.order)

    def __mul__(self, other: Series1) -> Series1:
        if not isinstance(other, Series1):
            return self.scale(other)
        self._check_var(other)
        n = _mul_order(self, other)
        lo = -math.inf if n is None else -n
        right = list(other.num.items())
        out: dict[int, int] = defaultdict(int)
        for e1, n1 in self.num.items():
            for e2, n2 in right:
                if e1 + e2 >= lo:
                    out[e1 + e2] += n1 * n2
        return Series1._of(out, self.den * other.den, self.var, n)

    def shift(self, k: int) -> Series1:
        """Multiply by var**k."""
        return self._with({e + k: c for e, c in self.num.items()},
                          order=None if self.order is None else self.order - k)

    def derivative(self) -> Series1:
        """Term-wise d/dvar; the reliable window deepens by one exponent."""
        n = None if self.order is None else self.order + 1
        return Series1._of({e - 1: c * e for e, c in self.num.items()},
                           self.den, self.var, n)

    def negate_var(self) -> Series1:
        """Substitute var -> -var (an involution)."""
        return self._with({e: -c if e % 2 else c
                           for e, c in self.num.items()})

    def truncated(self, order: int) -> Series1:
        """Restrict the reliable window to exponents >= -order."""
        return Series1._of(self.num, self.den, self.var,
                           min_bound(self.order, order))

    def rename(self, var: str) -> Series1:
        return self._with(self.num, var=var)

    # -- dump format -------------------------------------------------------

    def dump(self) -> str:
        """One term per line ``exponent<TAB>p/q``, exponents descending,
        preceded by a ``# var=<tag> reliable=<N>`` header."""
        rel = "inf" if self.order is None else str(self.order)
        lines = [f"# var={self.var} reliable={rel}"]
        for e, c in self.terms():
            lines.append(f"{e}\t{format_rat(c)}")
        return "\n".join(lines) + "\n"


def _mul_order(a: Series1, b: Series1) -> int | None:
    """Reliable order of a product.

    Unknown terms of one factor (below its window) land against the top
    exponent of the other, so the product is exact for exponents
    >= -min(N_a - top_b, N_b - top_a).  An exact zero annihilates
    everything.  A truncated zero has no top, so against a nonzero partner
    only its own unknown terms count, and against another truncated zero
    the product is unknown below both windows.
    """
    ta, tb = a.top, b.top
    if ta is None and tb is None:
        return (None if a.order is None or b.order is None
                else min(a.order, b.order))
    return min_bound(None if a.order is None or tb is None else a.order - tb,
                     None if b.order is None or ta is None else b.order - ta)


class Laurent2(Ratios):
    """Sparse exact Laurent polynomial in an ordered variable pair: integer
    numerators ``num`` by (x, y) exponents over one positive ``den``, in
    lowest terms.  ``coeffs`` reads them back as rationals."""

    __slots__ = ("vars",)

    def __init__(self, vars: tuple[str, str],
                 coeffs: dict[tuple[int, int], Rat] | None = None):
        self._fill(*over_lcm(coeffs or {}), vars)

    def _fill(self, num, den, vars) -> None:
        self.vars = vars
        self.num, self.den = lowest_terms(num, den)

    @classmethod
    def zero(cls, vars: tuple[str, str]) -> Laurent2:
        return cls(vars, {})

    @classmethod
    def const(cls, vars: tuple[str, str], value) -> Laurent2:
        return cls(vars, {(0, 0): value})

    def coeff(self, ex: int, ey: int) -> Rat:
        return self._at((ex, ey))

    def _sum(self, other: Laurent2) -> tuple[tuple[str, str]]:
        if self.vars != other.vars:
            raise InvalidKeyError(
                f"variable mismatch: {self.vars} vs {other.vars}")
        return (self.vars,)

    def mul(self, other: Laurent2) -> Laurent2:
        self._sum(other)
        right = list(other.num.items())
        out: dict[tuple[int, int], int] = defaultdict(int)
        for (x1, y1), n1 in self.num.items():
            for (x2, y2), n2 in right:
                out[x1 + x2, y1 + y2] += n1 * n2
        return Laurent2._of(out, self.den * other.den, self.vars)

    def __repr__(self) -> str:
        u, v = self.vars
        body = " + ".join(f"({format_rat(c)}){u}^{x}{v}^{y}"
                          for (x, y), c in sorted(self.coeffs.items()))
        return body or "0"


def outer_sum(terms: list[tuple[int, dict[int, int], dict[int, int]]],
              base: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """base + sum of c f(x) g(y) over the (c, f, g) in ``terms``, each f and
    g an exponent -> numerator dict; cells that cancel stay, as zeros."""
    out = dict(base)
    for c, fx, fy in terms:
        for ex, cx in fx.items():
            cx *= c
            for ey, cy in fy.items():
                out[(ex, ey)] = out.get((ex, ey), 0) + cx * cy
    return out


def div_diff_powers(f: dict[tuple[int, int], int], s: int, lo: int, hi: int
                    ) -> dict[tuple[int, int], int]:
    """Quotient of the cells f by x**s - y**s expanded in |x| > |y|,
    keeping only the nonzero cells whose two exponents both lie in
    [lo, hi].

    From f = G (x**s - y**s) each cell obeys the running sum
    G(ex, ey) = f(ex+s, ey) + G(ex+s, ey-s), and G vanishes above the top
    x-exponent T of f, less s.  So each chain (ex + k s, ey - k s) is summed
    from the top down: one addition per cell and no multiplication, and on
    integer numerators over one denominator the quotient keeps that
    denominator.  Chain cells with ey < lo are summed but not kept.
    """
    if s < 1:
        raise InvalidKeyError(f"power {s} must be >= 1")
    out: dict[tuple[int, int], int] = {}
    if not f:
        return out
    top = max(x for x, _ in f)
    for d in range(2 * lo, 2 * hi + 1):  # ex + ey, fixed along a chain
        for start in range(top - s, top - 2 * s, -1):  # the s residues
            acc = 0
            for ex in range(start, lo - 1, -s):
                ey = d - ex
                if ey > hi:
                    break
                c = f.get((ex + s, ey))
                if c is not None:
                    acc += c
                if acc and ey >= lo and ex <= hi:
                    out[(ex, ey)] = acc
    return out
