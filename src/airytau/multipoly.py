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

A polynomial holds integer numerators over one positive denominator, keyed
by one int per monomial.  From bit 0 the key holds the weight (17 bits),
then one exponent field per index T_1, T_2, ... (6 bits, T_idx from bit
18 + 7 (idx - 1)), with no index limit, each field followed by a guard bit
that a valid key leaves clear.  A product's key is k1 + k2, a term's weight
key & WMASK.  A w-bit field holds s < 2^w in a valid key, so in k1 + k2 it
holds s1 + s2 < 2^(w+1): it never carries past its guard bit, and the guard
bit is set exactly when the sum does not fit.  The constructor refuses a
monomial that does not fit and every product refuses a set guard bit.  A
wave key (``wave.py``) has its two depth fields in the low 18 bits and the
exponent fields at the same offsets.

exp and inverse go weight by weight on integers.  theta = sum_n n T_n d/dT_n
multiplies a weight-w monomial by w and is a derivation, so
theta exp(F) = exp(F) theta F, whose weight-w part is
w E_w = sum_(v>=1) v F_v E_(w-v), with E_0 = 1 as F_0 = 0.  For tau_0 = 1 the
weight-w part of tau I = 1 gives I_w = -sum_(v>=1) tau_v I_(w-v), I_0 = 1.
Each weight gets one denominator and one gcd.  A weight cap stops the
recurrence.  A degree cap D is applied once per weight, never inside the
products: degree is additive and every term of F, and every non-constant
one of tau, has degree >= 1, so a term of degree > D only reaches degrees
> D.  Without a weight cap no kept term has weight above D times the
input's largest weight, where the recurrence stops.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import cache

from .errors import InvalidKeyError
from .rational import (Rat, Ratios, format_rat, lowest_terms, min_bound,
                       over_lcm)

Monomial = tuple[tuple[int, int], ...]

MONO_ONE: Monomial = ()

# Packed keys (module docstring), shared with the wave layer's keys.
_WBITS, _EBITS = 17, 6
_WMASK, _EMASK = (1 << _WBITS) - 1, (1 << _EBITS) - 1
_STRIDE = _EBITS + 1
_LOW = (1 << (_WBITS + 1)) - 1  # the weight field and its guard bit
_FIELDS = f"exponents 1..{_EMASK} and weights up to {_WMASK}"


def _eoff(index: int) -> int:
    """The lowest bit of T_index's exponent field."""
    return _WBITS + 1 + _STRIDE * (index - 1)


@cache
def _guards(count: int) -> int:
    """The guard bits of the weight field and of T_1 .. T_count."""
    return (1 << _WBITS) + sum(1 << (_eoff(idx) + _EBITS)
                               for idx in range(1, count + 1))


def _check_fields(num: dict[int, int]) -> None:
    guards = _guards(max(num, default=0).bit_length() // _STRIDE)
    if any(map(guards.__and__, num)):
        raise InvalidKeyError(
            f"a monomial left its packed key fields: {_FIELDS}")


def _key(mono: Monomial) -> int:
    """The packed key of a monomial; refuses one that does not fit."""
    weight = mono_weight(mono)
    if weight > _WMASK or not all(idx >= 1 and 0 < e <= _EMASK
                                  for idx, e in mono):
        raise InvalidKeyError(f"monomial {mono_str(mono)} does not fit a "
                              f"packed key: {_FIELDS}")
    return weight + sum(e << _eoff(idx) for idx, e in mono)


def _mono(key: int) -> Monomial:
    key >>= _WBITS + 1
    return tuple((idx, e) for idx in range(1, key.bit_length() // _STRIDE + 2)
                 if (e := key >> _STRIDE * (idx - 1) & _EMASK))


def _within(key: int, degree_cap: int | None, weight_cap: int | None) -> bool:
    return ((weight_cap is None or key & _WMASK <= weight_cap)
            and (degree_cap is None
                 or sum(e for _, e in _mono(key)) <= degree_cap))


def mono_weight(mono: Monomial) -> int:
    return sum(idx * exp for idx, exp in mono)


def mono_var(index: int) -> Monomial:
    if index < 1:
        raise InvalidKeyError(f"bad variable power T_{index}^1")
    return ((index, 1),)


def mono_str(mono: Monomial) -> str:
    if not mono:
        return "1"
    return "*".join(f"T{idx}" if exp == 1 else f"T{idx}^{exp}"
                    for idx, exp in mono)


class MultiPoly(Ratios):
    """Polynomial in the T variables with conservative truncation caps:
    integer numerators ``num`` by packed key over one positive ``den``, in
    lowest terms.  The constructor takes rational terms and ``terms``
    reads them back."""

    __slots__ = ("degree_cap", "weight_cap")

    def __init__(self, terms: dict[Monomial, Rat] | None = None,
                 degree_cap: int | None = None,
                 weight_cap: int | None = None):
        values: dict[int, Rat] = defaultdict(Rat)
        for mono, c in (terms or {}).items():
            values[_key(mono)] += Rat(c)
        self._fill(*over_lcm(values), degree_cap, weight_cap)

    def _fill(self, num, den, degree_cap, weight_cap) -> None:
        """Drops the terms beyond the caps."""
        if weight_cap is not None or degree_cap is not None:
            num = {key: n for key, n in num.items() if _within(
                key, degree_cap, weight_cap)}
        self.num, self.den = lowest_terms(num, den)
        self.degree_cap, self.weight_cap = degree_cap, weight_cap

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
        return MultiPoly._of(self.num, self.den,
                             min_bound(self.degree_cap, degree_cap),
                             min_bound(self.weight_cap, weight_cap))

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Rat]:
        return {_mono(key): Rat(n, self.den) for key, n in self.num.items()}

    def coeff(self, mono: Monomial) -> Rat:
        return self._at(_key(mono))

    @property
    def constant(self) -> Rat:
        return self._at(0)

    def indices(self) -> set[int]:
        return {idx for key in self.num for idx, _ in _mono(key)}

    def __eq__(self, other) -> bool:
        """Equal terms, whatever the caps."""
        return (isinstance(other, MultiPoly) and self.num == other.num
                and self.den == other.den)

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        return " + ".join(
            f"({format_rat(c)})*{mono_str(m)}"
            for m, c in sorted(self.terms.items(),
                               key=lambda kv: (mono_weight(kv[0]), kv[0])))

    # -- arithmetic --------------------------------------------------------

    def _sum(self, other: MultiPoly) -> tuple[int | None, int | None]:
        """The caps of a sum or product."""
        return (min_bound(self.degree_cap, other.degree_cap),
                min_bound(self.weight_cap, other.weight_cap))

    def mul(self, other: MultiPoly) -> MultiPoly:
        """Keys add; a pair whose weight passes the weight cap is skipped,
        and the degree cap is applied once to the product."""
        dcap, wcap = self._sum(other)
        top = _LOW if wcap is None else wcap
        right = list(other.num.items())
        out: dict[int, int] = defaultdict(int)
        for k1, n1 in self.num.items():
            for k2, n2 in right:
                key = k1 + k2
                if key & _LOW <= top:
                    out[key] += n1 * n2
        _check_fields(out)
        return MultiPoly._of(out, self.den * other.den, dcap, wcap)

    def deriv(self, index: int) -> MultiPoly:
        """Partial derivative with respect to T_index.

        The caps shrink: a degree-D (weight-W) truncation determines the
        derivative only through degree D-1 (weight W-index).
        """
        dcap = None if self.degree_cap is None else self.degree_cap - 1
        wcap = None if self.weight_cap is None else self.weight_cap - index
        off = _eoff(index)
        unit = (1 << off) + index
        out = {key - unit: n * e for key, n in self.num.items()
               if (e := key >> off & _EMASK)}
        return MultiPoly._of(out, self.den, dcap, wcap)

    def exp(self) -> MultiPoly:
        """exp(self), requiring constant term 0 and at least one cap."""
        if self.constant != 0:
            raise InvalidKeyError("exp requires zero constant term")
        return self._by_weight("exp")

    def inverse(self) -> MultiPoly:
        """1/self for constant term 1 and at least one cap."""
        if self.constant != 1:
            raise InvalidKeyError("inverse requires constant term 1")
        return self._by_weight("inverse")

    def _by_weight(self, name: str) -> MultiPoly:
        """R with R_0 = 1 and c_w R_w = sum_(v>=1) a_v S_v R_(w-v) over the
        weight parts S_v of self: c_w = w and a_v = v for exp, c_w = 1 and
        a_v = -1 for inverse (module docstring)."""
        parts: dict[int, dict[int, int]] = defaultdict(dict)
        for key, n in self.num.items():
            if key:
                parts[key & _WMASK][key] = n
        dcap, top = self.degree_cap, self.weight_cap
        if not parts:
            return MultiPoly.const(1, dcap, top)
        if dcap is None and top is None:
            raise InvalidKeyError(f"{name} of an uncapped polynomial")
        exp = name == "exp"
        if dcap is not None:
            top = min_bound(top, dcap * max(parts))
        levels = [({0: 1}, 1)]  # R_w as (numerators, denominator)
        for w in range(1, top + 1):
            reads = [(v, part, *levels[w - v]) for v, part in parts.items()
                     if v <= w and levels[w - v][0]]
            lcm = math.lcm(*(d for *_, d in reads))
            out: dict[int, int] = defaultdict(int)
            for v, part, low, d in reads:
                factor = (v if exp else -1) * (lcm // d)
                for k1, n1 in part.items():
                    n1 *= factor
                    for k2, n2 in low.items():
                        out[k1 + k2] += n1 * n2
            _check_fields(out)
            levels.append(lowest_terms(
                {key: n for key, n in out.items() if _within(key, dcap, None)},
                lcm * self.den * (w if exp else 1)))
        den = math.lcm(*(d for _, d in levels))
        return MultiPoly._of({key: n * (den // d) for num, d in levels
                              for key, n in num.items()},
                             den, dcap, self.weight_cap)
