"""Exact determinants over rationals and over coefficient rings.

Two routines cover every determinant in the package:

* ``det_int`` -- fraction-free Gaussian elimination (Bareiss) on Python
  ints, every intermediate division an exact ``//``.  Its rational wrapper
  ``det_bareiss`` scales each row to integers by the lcm of its
  denominators and divides by the product of the scales once at the end.
* ``det_ring`` -- division-free evaluation for matrices over a commutative
  ring (two-variable Laurent polynomials), by dynamic programming over
  column subsets.  Cost O(2**n * n) ring multiplications,
  ample for the sizes that occur here (n <= ~10).
"""

from __future__ import annotations

import math

from .rational import Rat, over_lcm


def det_bareiss(rows: list[list[Rat]]) -> Rat:
    """Determinant of a square rational matrix, by ``det_int``."""
    m = [over_lcm(dict(enumerate(row))) for row in rows]
    return Rat(det_int([list(num.values()) for num, _ in m]),
               math.prod(s for _, s in m))


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination, every
    division exact; ``rows`` is left as it was."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            row[k + 1:] = [(x * pivot - f * y) // prev
                           for x, y in zip(row[k + 1:], pivot_row[k + 1:])]
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_ring(rows: list[list], zero, one):
    """Determinant over a commutative ring whose elements have
    ``is_zero``, no divisions.

    State ``d[mask]`` is the signed minor of the first popcount(mask) rows on
    the column set ``mask``; row k extends every state with each unused
    column, with the parity sign given by the columns already used above it.
    """
    n = len(rows)
    if n == 0:
        return one
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    states = {0: one}
    for k in range(n):
        nxt: dict[int, object] = {}
        for mask, acc in states.items():
            for col, entry in enumerate(rows[k]):
                if mask >> col & 1 or entry.is_zero():
                    continue
                term = acc * entry
                if (mask >> (col + 1)).bit_count() & 1:  # used columns above
                    term = -term
                key = mask | 1 << col
                nxt[key] = nxt[key] + term if key in nxt else term
        if not nxt:
            return zero
        states = nxt
    return states.get((1 << n) - 1, zero)
