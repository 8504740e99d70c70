"""Sparse multivariate polynomials in the time variables T_1, T_2, ...

A monomial is a sorted tuple of (index, exponent) pairs; the empty tuple is
the constant monomial.  Two truncation caps are supported and tracked through
every operation:

* ``degree_cap`` -- bound on total degree (number of T factors);
* ``weight_cap`` -- bound on total weight sum(index * exponent).

Weight is the natural grading of the tau-function layer (the coefficient of
a weight-w monomial only ever interacts with data of weight <= w), so a
weight-capped polynomial is a complete truncation of the infinite object.
Terms outside a cap are unknown, not zero; operations combine caps
conservatively and prune anything beyond them.
"""

from __future__ import annotations

import math

from .errors import InvalidKeyError
from .rational import Rat, format_rat, min_bound

Monomial = tuple[tuple[int, int], ...]

MONO_ONE: Monomial = ()


def mono_weight(mono: Monomial) -> int:
    return sum(idx * exp for idx, exp in mono)


def mono_degree(mono: Monomial) -> int:
    return sum(exp for _, exp in mono)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged: dict[int, int] = {}
    for idx, exp in a:
        merged[idx] = merged.get(idx, 0) + exp
    for idx, exp in b:
        merged[idx] = merged.get(idx, 0) + exp
    return tuple(sorted(merged.items()))


def _mono_deriv(mono: Monomial, index: int) -> tuple[Monomial, int] | None:
    """d/dT_index of a monomial as (monomial, factor), or None when T_index
    does not occur in it."""
    for pos, (idx, exp) in enumerate(mono):
        if idx == index:
            rest = ((idx, exp - 1),) if exp > 1 else ()
            return mono[:pos] + rest + mono[pos + 1:], exp
    return None


def mono_var(index: int, exp: int = 1) -> Monomial:
    if index < 1 or exp < 1:
        raise InvalidKeyError(f"bad variable power T_{index}^{exp}")
    return ((index, exp),)


def mono_str(mono: Monomial) -> str:
    if not mono:
        return "1"
    return "*".join(f"T{idx}" if exp == 1 else f"T{idx}^{exp}"
                    for idx, exp in mono)


class MultiPoly:
    """Polynomial in the T variables with conservative truncation caps."""

    __slots__ = ("terms", "degree_cap", "weight_cap")

    def __init__(self, terms: dict[Monomial, Rat] | None = None,
                 degree_cap: int | None = None,
                 weight_cap: int | None = None):
        self.degree_cap = degree_cap
        self.weight_cap = weight_cap
        clean: dict[Monomial, Rat] = {}
        if terms:
            for mono, c in terms.items():
                if c == 0 or not self._within(mono):
                    continue
                clean[mono] = c if isinstance(c, Rat) else Rat(c)
        self.terms = clean

    def _within(self, mono: Monomial) -> bool:
        if self.degree_cap is not None and mono_degree(mono) > self.degree_cap:
            return False
        if self.weight_cap is not None and mono_weight(mono) > self.weight_cap:
            return False
        return True

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value, degree_cap=None, weight_cap=None) -> MultiPoly:
        return cls({MONO_ONE: Rat(value)}, degree_cap, weight_cap)

    @classmethod
    def zero(cls, degree_cap=None, weight_cap=None) -> MultiPoly:
        return cls({}, degree_cap, weight_cap)

    @classmethod
    def var(cls, index: int, degree_cap=None, weight_cap=None) -> MultiPoly:
        return cls({mono_var(index): Rat(1)}, degree_cap, weight_cap)

    def with_caps(self, degree_cap=None, weight_cap=None) -> MultiPoly:
        return MultiPoly(self.terms, min_bound(self.degree_cap, degree_cap),
                         min_bound(self.weight_cap, weight_cap))

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: Monomial) -> Rat:
        return self.terms.get(tuple(sorted(mono)), Rat(0))

    @property
    def constant(self) -> Rat:
        return self.terms.get(MONO_ONE, Rat(0))

    def indices(self) -> set[int]:
        return {idx for mono in self.terms for idx, _ in mono}

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = [f"({format_rat(c)})*{mono_str(m)}"
                for m, c in sorted(self.terms.items(),
                                   key=lambda kv: (mono_weight(kv[0]),
                                                   kv[0]))]
        return " + ".join(bits)

    # -- arithmetic --------------------------------------------------------

    def _caps_with(self, other: MultiPoly) -> tuple[int | None, int | None]:
        return (min_bound(self.degree_cap, other.degree_cap),
                min_bound(self.weight_cap, other.weight_cap))

    def __add__(self, other: MultiPoly) -> MultiPoly:
        dcap, wcap = self._caps_with(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Rat(0)) + c
        return MultiPoly(out, dcap, wcap)

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        return self + (-other)

    def __neg__(self) -> MultiPoly:
        out = MultiPoly.zero(self.degree_cap, self.weight_cap)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def scale(self, factor) -> MultiPoly:
        f = Rat(factor)
        out = MultiPoly.zero(self.degree_cap, self.weight_cap)
        if f != 0:
            out.terms = {m: c * f for m, c in self.terms.items()}
        return out

    def mul(self, other: MultiPoly) -> MultiPoly:
        dcap, wcap = self._caps_with(other)
        out: dict[Monomial, Rat] = {}
        for m1, c1 in self.terms.items():
            d1, w1 = mono_degree(m1), mono_weight(m1)
            for m2, c2 in other.terms.items():
                if dcap is not None and d1 + mono_degree(m2) > dcap:
                    continue
                if wcap is not None and w1 + mono_weight(m2) > wcap:
                    continue
                key = mono_mul(m1, m2)
                out[key] = out.get(key, Rat(0)) + c1 * c2
        return MultiPoly(out, dcap, wcap)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return self.mul(other)
        return self.scale(other)

    __rmul__ = __mul__

    def deriv(self, index: int) -> MultiPoly:
        """Partial derivative with respect to T_index.

        The caps shrink: a degree-D (weight-W) truncation determines the
        derivative only through degree D-1 (weight W-index).
        """
        dcap = None if self.degree_cap is None else self.degree_cap - 1
        wcap = None if self.weight_cap is None else self.weight_cap - index
        out: dict[Monomial, Rat] = {}
        for mono, c in self.terms.items():
            d = _mono_deriv(mono, index)
            if d is not None:
                new, exp = d
                out[new] = out.get(new, Rat(0)) + c * exp
        return MultiPoly(out, dcap, wcap)

    def exp(self) -> MultiPoly:
        """exp(self), requiring constant term 0 and at least one cap."""
        if self.constant != 0:
            raise InvalidKeyError("exp requires zero constant term")
        if self.degree_cap is None and self.weight_cap is None \
                and not self.is_zero():
            raise InvalidKeyError("exp of an uncapped polynomial")
        result = MultiPoly.const(1, self.degree_cap, self.weight_cap)
        power = MultiPoly.const(1, self.degree_cap, self.weight_cap)
        k = 0
        while True:
            power = power.mul(self)
            if power.is_zero():
                return result
            k += 1
            result = result + power.scale(Rat(1, math.factorial(k)))

    def inverse(self) -> MultiPoly:
        """1/self for constant term 1, via the geometric series."""
        if self.constant != 1:
            raise InvalidKeyError("inverse requires constant term 1")
        u = MultiPoly.const(1, self.degree_cap, self.weight_cap) - self
        result = MultiPoly.const(1, self.degree_cap, self.weight_cap)
        power = MultiPoly.const(1, self.degree_cap, self.weight_cap)
        while True:
            power = power.mul(u)
            if power.is_zero():
                return result
            result = result + power
