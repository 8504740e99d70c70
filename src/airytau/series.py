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
It holds integer numerators over one denominator, so the ring needs only
integer +, - and * and one scale by a rational; under the Schur
specializations h_n and e_n are integral and the Jacobi-Trudi determinants
run on integers.  The kernel expansion routes use ``outer_sum`` and
``div_diff_powers`` on plain dicts of integer numerators instead.

Storage is sparse and zero coefficients are never stored; equality is
structural on canonical forms.  All values are immutable after construction
and every operation is pure, so unrestricted concurrent use is safe and
results do not depend on evaluation order.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import InvalidKeyError, WindowError
from .rational import (Rat, format_rat, lowest_terms, min_bound, over_lcm,
                       sum_over_lcm)


class Series1:
    """Sparse univariate Laurent series with a reliability order.

    ``coeffs`` maps exponent -> nonzero Fraction.  ``order = N`` means every
    coefficient with exponent >= -N is exact; reading below -N raises
    WindowError.  N may be negative (e.g. after multiplying by a positive
    power of the variable).
    """

    __slots__ = ("var", "coeffs", "order")

    def __init__(self, var: str, coeffs: dict[int, Rat] | None = None,
                 order: int | None = None):
        clean: dict[int, Rat] = {}
        if coeffs:
            for e, c in coeffs.items():
                if c == 0:
                    continue
                if order is not None and e < -order:
                    continue  # below the reliable window: not representable
                clean[e] = c if isinstance(c, Rat) else Rat(c)
        self.var = var
        self.coeffs = clean
        self.order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var: str) -> Series1:
        return cls(var, {}, None)

    @classmethod
    def const(cls, var: str, value) -> Series1:
        return cls(var, {0: Rat(value)}, None)

    @classmethod
    def monomial(cls, var: str, exp: int, value=1) -> Series1:
        return cls(var, {exp: Rat(value)}, None)

    # -- inspection --------------------------------------------------------

    @property
    def top(self) -> int | None:
        """Most positive exponent present, or None for the zero series."""
        return max(self.coeffs) if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exp: int) -> Rat:
        """Exact coefficient of var**exp; raises below the reliable window."""
        if self.order is not None and exp < -self.order:
            raise WindowError(
                f"coefficient of {self.var}^{exp} outside reliable window "
                f"(order {self.order})")
        return self.coeffs.get(exp, Rat(0))

    def get(self, exp: int) -> Rat:
        """Unchecked access (0 for anything not stored)."""
        return self.coeffs.get(exp, Rat(0))

    def terms(self) -> list[tuple[int, Rat]]:
        """(exponent, coefficient) pairs, exponents descending."""
        return sorted(self.coeffs.items(), reverse=True)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series1) and self.var == other.var
                and self.coeffs == other.coeffs and self.order == other.order)

    def __repr__(self) -> str:
        body = " + ".join(f"({format_rat(c)}){self.var}^{e}"
                          for e, c in self.terms()) or "0"
        tail = "" if self.order is None else f"  [exact >= {self.var}^{-self.order}]"
        return body + tail

    def agrees_with(self, other: Series1, through: int | None = None) -> bool:
        """True iff both series match on the overlap of reliable windows.

        ``through=K`` additionally demands that the shared window reach down
        to exponent -K.
        """
        n = min_bound(self.order, other.order)
        if through is not None:
            if n is not None and n < through:
                return False
            n = through
        lo = None if n is None else -n
        for e in set(self.coeffs) | set(other.coeffs):
            if lo is not None and e < lo:
                continue
            if self.coeffs.get(e, Rat(0)) != other.coeffs.get(e, Rat(0)):
                return False
        return True

    # -- arithmetic --------------------------------------------------------

    def _check_var(self, other: Series1) -> None:
        if self.var != other.var:
            raise InvalidKeyError(
                f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other: Series1) -> Series1:
        self._check_var(other)
        n = min_bound(self.order, other.order)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Rat(0)) + c
        return Series1(self.var, out, n)

    def __sub__(self, other: Series1) -> Series1:
        return self + (-other)

    def __neg__(self) -> Series1:
        return Series1(self.var, {e: -c for e, c in self.coeffs.items()},
                       self.order)

    def scale(self, factor) -> Series1:
        f = Rat(factor)
        if f == 0:
            return Series1(self.var, {}, self.order)
        return Series1(self.var, {e: c * f for e, c in self.coeffs.items()},
                       self.order)

    def __mul__(self, other: Series1) -> Series1:
        self._check_var(other)
        if self.is_zero() or other.is_zero():
            # zero is exact everywhere; the degenerate sentinel of the design
            return Series1(self.var, {}, _zero_mul_order(self, other))
        n = _mul_order(self.order, self.top, other.order, other.top)
        lo = None if n is None else -n
        out: dict[int, Rat] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if lo is not None and e < lo:
                    continue
                out[e] = out.get(e, Rat(0)) + c1 * c2
        return Series1(self.var, out, n)

    def shift(self, k: int) -> Series1:
        """Multiply by var**k."""
        n = None if self.order is None else self.order - k
        return Series1(self.var, {e + k: c for e, c in self.coeffs.items()}, n)

    def derivative(self) -> Series1:
        """Term-wise d/dvar; the reliable window deepens by one exponent."""
        n = None if self.order is None else self.order + 1
        return Series1(self.var,
                       {e - 1: c * e for e, c in self.coeffs.items() if e != 0},
                       n)

    def negate_var(self) -> Series1:
        """Substitute var -> -var (an involution)."""
        return Series1(self.var,
                       {e: (c if e % 2 == 0 else -c)
                        for e, c in self.coeffs.items()},
                       self.order)

    def truncated(self, order: int) -> Series1:
        """Restrict the reliable window to exponents >= -order."""
        n = order if self.order is None else min(self.order, order)
        return Series1(self.var, self.coeffs, n)

    def rename(self, var: str) -> Series1:
        return Series1(var, self.coeffs, self.order)

    # -- dump format -------------------------------------------------------

    def dump(self) -> str:
        """One term per line ``exponent<TAB>p/q``, exponents descending,
        preceded by a ``# var=<tag> reliable=<N>`` header."""
        rel = "inf" if self.order is None else str(self.order)
        lines = [f"# var={self.var} reliable={rel}"]
        for e, c in self.terms():
            lines.append(f"{e}\t{format_rat(c)}")
        return "\n".join(lines) + "\n"


def _mul_order(na: int | None, ta: int | None, nb: int | None,
               tb: int | None) -> int | None:
    """Reliable order of a product.

    Unknown terms of one factor (below its window) land against the top
    exponent of the other, so the product is exact for exponents
    >= -min(N_a - top_b, N_b - top_a).
    """
    ca = None if (na is None or tb is None) else na - tb
    cb = None if (nb is None or ta is None) else nb - ta
    return min_bound(ca, cb)


def _zero_mul_order(a: Series1, b: Series1) -> int | None:
    # An exact zero annihilates everything.  A truncated zero is unknown
    # below its window, and against a nonzero partner those unknown terms
    # land against the partner's top exponent, as in _mul_order.
    if a.is_zero() and a.order is None:
        return None
    if b.is_zero() and b.order is None:
        return None
    if a.is_zero() and b.is_zero():
        return min_bound(a.order, b.order)
    return _mul_order(a.order, a.top, b.order, b.top)


class Laurent2:
    """Sparse exact Laurent polynomial in an ordered variable pair: integer
    numerators ``num`` by (x, y) exponents over one positive ``den``, in
    lowest terms.  ``coeffs`` reads them back as rationals."""

    __slots__ = ("vars", "num", "den")

    def __init__(self, vars: tuple[str, str],
                 coeffs: dict[tuple[int, int], Rat] | None = None):
        self.vars = vars
        self.num, self.den = lowest_terms(*over_lcm(
            {key: Rat(c) for key, c in (coeffs or {}).items()}))

    @classmethod
    def _of(cls, vars: tuple[str, str], num: dict[tuple[int, int], int],
            den: int) -> Laurent2:
        out = cls.__new__(cls)
        out.vars = vars
        out.num, out.den = lowest_terms(num, den)
        return out

    @classmethod
    def zero(cls, vars: tuple[str, str]) -> Laurent2:
        return cls(vars, {})

    @classmethod
    def const(cls, vars: tuple[str, str], value) -> Laurent2:
        return cls(vars, {(0, 0): Rat(value)})

    @property
    def coeffs(self) -> dict[tuple[int, int], Rat]:
        return {key: Rat(n, self.den) for key, n in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def coeff(self, ex: int, ey: int) -> Rat:
        return Rat(self.num.get((ex, ey), 0), self.den)

    def _check(self, other: Laurent2) -> None:
        if self.vars != other.vars:
            raise InvalidKeyError(
                f"variable mismatch: {self.vars} vs {other.vars}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Laurent2) and self.vars == other.vars
                and self.num == other.num and self.den == other.den)

    def __add__(self, other: Laurent2) -> Laurent2:
        self._check(other)
        return Laurent2._of(self.vars, *sum_over_lcm(
            self.num, self.den, other.num, other.den, 1))

    def __sub__(self, other: Laurent2) -> Laurent2:
        return self + other.scale(-1)

    def __neg__(self) -> Laurent2:
        return self.scale(-1)

    def scale(self, factor) -> Laurent2:
        f = Rat(factor)
        return Laurent2._of(self.vars, {k: n * f.numerator
                                        for k, n in self.num.items()},
                            self.den * f.denominator)

    def mul(self, other: Laurent2) -> Laurent2:
        self._check(other)
        right = list(other.num.items())
        out: dict[tuple[int, int], int] = defaultdict(int)
        for (x1, y1), n1 in self.num.items():
            for (x2, y2), n2 in right:
                out[x1 + x2, y1 + y2] += n1 * n2
        return Laurent2._of(self.vars, out, self.den * other.den)

    def __mul__(self, other):
        if isinstance(other, Laurent2):
            return self.mul(other)
        return self.scale(other)

    __rmul__ = __mul__

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
