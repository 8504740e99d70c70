"""The universal scalar: arbitrary-precision rationals.

``fractions.Fraction`` already is the canonical form required everywhere in
this package (gcd-reduced, positive denominator), so the scalar type is a thin
alias plus the string conventions used by every serializer: rationals are
always written ``p/q`` (or ``p`` when q == 1), never as floats.
"""

from __future__ import annotations

import functools
from fractions import Fraction

Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)


def rat(numerator: int, denominator: int = 1) -> Rat:
    """Build a rational; denominator 0 raises ZeroDivisionError."""
    return Rat(numerator, denominator)


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
