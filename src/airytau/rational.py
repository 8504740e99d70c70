"""The universal scalar: arbitrary-precision rationals.

``fractions.Fraction`` already is the canonical form required everywhere in
this package (gcd-reduced, positive denominator), so the scalar type is a thin
alias plus the string conventions used by every serializer: rationals are
always written ``p/q`` (or ``p`` when q == 1), never as floats.

Every sparse container (``Series1``, ``Laurent2``, ``MultiPoly``,
``WaveSeries``) holds integer numerators over one positive denominator
instead of a Fraction per term.  ``Ratios`` is their shared core, and the
helpers below its arithmetic on ``{key: numerator}`` dicts.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

Rat = Fraction

ZERO = Rat(0)


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
    return math.prod(range(n, 0, -2))


def over_lcm(values: dict) -> tuple[dict, int]:
    """Rationals (ints, Fractions or anything ``Fraction`` takes) as integer
    numerators over the lcm of their denominators."""
    values = {key: c if isinstance(c, (int, Rat)) else Rat(c)
              for key, c in values.items()}
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


class Ratios:
    """Sparse rational coefficients: integer numerators ``num`` by key over
    one positive denominator ``den``, in lowest terms (no zero numerator is
    stored and gcd(den, *num) == 1), so equal values are stored equally.

    A container lists its own fields as its ``__slots__``, in the order
    ``_of`` takes them after num and den, and defines ``_fill`` (which
    terms it keeps, given those fields) and ``_sum`` (the fields of a sum,
    refusing operands that do not mix).  Sums, negation and scaling are
    shared; ``*`` multiplies two containers of one kind by their ``mul``
    and scales by anything else, on either side.  A container with its own
    ``__mul__`` scales a non-container there too."""

    __slots__ = ("num", "den")

    @classmethod
    def _of(cls, num: dict, den: int, *fields):
        """From numerators over ``den`` and the container's fields."""
        out = cls.__new__(cls)
        out._fill(num, den, *fields)
        return out

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _with(self, num: dict, **fields):
        """This container with numerators ``num`` over the same ``den`` and
        the named fields changed, with no reduction and no truncation: for
        numerators negated or moved to other keys, which stay in lowest
        terms, under fields that keep every key."""
        out = type(self).__new__(type(self))
        for name in self.__slots__:
            setattr(out, name, fields.get(name, getattr(self, name)))
        out.num, out.den = num, self.den
        return out

    def _at(self, key) -> Rat:
        return Rat(self.num.get(key, 0), self.den)

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients by stored key, as rationals."""
        return {key: Rat(n, self.den) for key, n in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.num == other.num
                and self.den == other.den
                and self._fields() == other._fields())

    def __add__(self, other):
        return self._of(*sum_over_lcm(self.num, self.den, other.num,
                                      other.den, 1), *self._sum(other))

    def __sub__(self, other):
        return self._of(*sum_over_lcm(self.num, self.den, other.num,
                                      other.den, -1), *self._sum(other))

    def __neg__(self):
        return self._with({key: -n for key, n in self.num.items()})

    def scale(self, factor):
        f = Rat(factor)
        return self._of({key: n * f.numerator for key, n in self.num.items()},
                        self.den * f.denominator, *self._fields())

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self.mul(other)
        return self.scale(other)

    __rmul__ = __mul__
