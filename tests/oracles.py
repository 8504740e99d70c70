"""Independent oracles used to freeze expected values.

Everything here is deliberately written against first principles (brute
enumeration, schoolbook arithmetic) and never calls the code paths it is
used to check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from airytau.partitions import Partition


def convolve(a: dict[int, Fraction], b: dict[int, Fraction]
             ) -> dict[int, Fraction]:
    """Schoolbook convolution of coefficient dicts (no truncation)."""
    out: dict[int, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def ssyt_weights(mu: Partition, nvars: int) -> list[tuple[int, ...]]:
    """Content vectors of all semistandard tableaux of shape mu with
    entries in 1..nvars, by direct backtracking."""
    shape = mu.parts
    rows = len(shape)
    filling = [[0] * r for r in shape]
    results: list[tuple[int, ...]] = []

    cells = [(i, j) for i in range(rows) for j in range(shape[i])]

    def rec(idx: int) -> None:
        if idx == len(cells):
            weight = [0] * nvars
            for row in filling:
                for v in row:
                    weight[v - 1] += 1
            results.append(tuple(weight))
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, filling[i][j - 1])       # weakly increasing rows
        if i > 0:
            lo = max(lo, filling[i - 1][j] + 1)   # strictly increasing cols
        for v in range(lo, nvars + 1):
            filling[i][j] = v
            rec(idx + 1)
        filling[i][j] = 0

    rec(0)
    return results


def schur_brute(mu: Partition, xs: list[Fraction]) -> Fraction:
    """s_mu evaluated at concrete points via the tableau monomial
    expansion."""
    total = Fraction(0)
    for weight in ssyt_weights(mu, len(xs)):
        term = Fraction(1)
        for x, w in zip(xs, weight):
            term *= x ** w
        total += term
    return total


def standard_tableaux_count(mu: Partition) -> int:
    """Number of standard fillings, by brute backtracking over corners."""
    shape = mu.parts
    total = mu.weight
    filling = [[0] * r for r in shape]
    count = 0

    def rec(value: int) -> None:
        nonlocal count
        if value > total:
            count += 1
            return
        for i in range(len(shape)):
            # the only candidate in each row is its leftmost empty cell
            for j in range(shape[i]):
                if filling[i][j] != 0:
                    continue
                if i == 0 or filling[i - 1][j] != 0:
                    filling[i][j] = value
                    rec(value + 1)
                    filling[i][j] = 0
                break

    rec(1)
    return count


def _mono_product(a, b):
    merged: dict[int, int] = {}
    for idx, exp in a + b:
        merged[idx] = merged.get(idx, 0) + exp
    return tuple(sorted(merged.items()))


def _mono_weight(mono) -> int:
    return sum(idx * exp for idx, exp in mono)


def full_product_pruned(left: dict, right: dict, combine, cell_cap) -> dict:
    """Product of graded cell dicts ``{key: {monomial: coeff}}``.

    Every pair of cells and every pair of their monomials is multiplied in
    full; only afterwards are the monomials of weight above
    ``cell_cap(key)`` dropped (``None`` keeps them all).  ``combine`` maps
    the two operand keys to the product key.
    """
    full: dict = {}
    for k1, p in left.items():
        for k2, q in right.items():
            cell = full.setdefault(combine(k1, k2), {})
            for m1, c1 in p.items():
                for m2, c2 in q.items():
                    m = _mono_product(m1, m2)
                    cell[m] = cell.get(m, Fraction(0)) + c1 * c2
    out = {}
    for key, cell in full.items():
        cap = cell_cap(key)
        kept = {m: c for m, c in cell.items()
                if c != 0 and (cap is None or _mono_weight(m) <= cap)}
        if kept:
            out[key] = kept
    return out


def sato_quotient_cells(tau_terms: dict, inverse_terms: dict,
                        weight_cap: int, direction: int) -> dict:
    """Cells ``{exponent: {monomial: coeff}}`` of
    tau(T + direction [1/xi]) / tau(T), by expanding every substitution
    T_n -> T_n + direction xi^(-n)/n binomially, multiplying each xi^(-k)
    bucket by 1/tau in full and then keeping the TW <= weight_cap
    monomials (weight <= weight_cap - k in cell xi^(-k))."""
    buckets: dict = {}
    for mono, c in tau_terms.items():
        # i_t factors of the shift taken from the t-th variable power
        for picks in product(*(range(exp + 1) for _, exp in mono)):
            k = sum(idx * i for (idx, _), i in zip(mono, picks))
            coeff = c
            rest = []
            for (idx, exp), i in zip(mono, picks):
                coeff *= math.comb(exp, i) * Fraction(direction, idx) ** i
                if i < exp:
                    rest.append((idx, exp - i))
            bucket = buckets.setdefault(-k, {})
            bucket[tuple(rest)] = bucket.get(tuple(rest), Fraction(0)) + coeff
    return full_product_pruned(buckets, {0: inverse_terms},
                               lambda e, _: e, lambda e: weight_cap + e)


# Reference correlator values from the independent literature on psi-class
# integrals (topological-recursion computations), frozen as cross-checks of
# the recursion oracle itself.
LITERATURE_CORRELATORS = {
    (0, 0, 0): Fraction(1),
    (1, 0, 0, 0): Fraction(1),
    (2, 0, 0, 0, 0): Fraction(1),
    (1, 1, 0, 0, 0): Fraction(2),
    (1,): Fraction(1, 24),
    (2, 0): Fraction(1, 24),
    (1, 1): Fraction(1, 24),
    (3, 0, 0): Fraction(1, 24),
    (2, 1, 0): Fraction(1, 12),
    (1, 1, 1): Fraction(1, 12),
    (4,): Fraction(1, 1152),
    (5, 0): Fraction(1, 1152),
    (4, 1): Fraction(1, 384),
    (3, 2): Fraction(29, 5760),
    (7,): Fraction(1, 82944),
    (7, 1): Fraction(5, 82944),
    (6, 2): Fraction(77, 414720),
    (5, 3): Fraction(503, 1451520),
    (4, 4): Fraction(607, 1451520),
}
