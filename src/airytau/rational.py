"""The universal scalar: arbitrary-precision rationals.

``fractions.Fraction`` already is the canonical form required everywhere in
this package (gcd-reduced, positive denominator), so the scalar type is a thin
alias plus the string conventions used by every serializer: rationals are
always written ``p/q`` (or ``p`` when q == 1), never as floats.

The sparse containers hold integer numerators over one positive
denominator instead of a Fraction per term; the helpers below are their
shared arithmetic on ``{key: numerator}`` dicts.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)


def format_rat(value: Rat) -> str:
    """Canonical string form: ``-7/24``, ``5/24``, ``1``, ``0``."""
    return str(Rat(value))


def min_bound(a: int | None, b: int | None) -> int | None:
    """The smaller of two truncation bounds, None meaning unbounded."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@functools.cache
def double_factorial(n: int) -> int:
    """(2k+1)!! style double factorial with (-1)!! = 1 and 0!! = 1, kept
    per n once computed."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def over_lcm(values: dict) -> tuple[dict, int]:
    """Rationals as integer numerators over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in values.values()))
    return {key: c.numerator * (den // c.denominator)
            for key, c in values.items()}, den


def lowest_terms(num: dict, den: int) -> tuple[dict, int]:
    """num / den with zero numerators dropped and the common factor of den
    and the numerators divided out."""
    g = math.gcd(den, *num.values())
    return {key: n // g for key, n in num.items() if n}, den // g


def sum_over_lcm(a: dict, a_den: int, b: dict, b_den: int, sign: int
                 ) -> tuple[dict, int]:
    """a / a_den + sign * b / b_den as numerators over the lcm of the two
    denominators (not reduced)."""
    den = math.lcm(a_den, b_den)
    fa, fb = den // a_den, sign * (den // b_den)
    out = {key: n * fa for key, n in a.items()}
    for key, n in b.items():
        out[key] = out.get(key, 0) + n * fb
    return out, den
