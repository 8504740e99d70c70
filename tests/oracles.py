"""Independent oracles used to freeze expected values.

Everything here is deliberately written against first principles (brute
enumeration, schoolbook arithmetic) and never calls the code paths it is
used to check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

from airytau.airy import required_order
from airytau.errors import CrossCheckError, InvalidKeyError, WindowError
from airytau.multipoly import MultiPoly
from airytau.npoint import antidiagonal_sum, genus_of
from airytau.partitions import Partition
from airytau.schur import PowerSums, _beta_mask, _remove_strips, schur_at
from airytau.series import Laurent2, Series1


def convolve(a: dict[int, Fraction], b: dict[int, Fraction]
             ) -> dict[int, Fraction]:
    """Schoolbook convolution of coefficient dicts (no truncation)."""
    out: dict[int, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def geometric_inv_diff(vars: tuple[str, str], kmax: int) -> Laurent2:
    """Expansion of 1/(x - y) in the region |x| > |y|, truncated at y**kmax."""
    return Laurent2(vars, {(-1 - k, k): Fraction(1) for k in range(kmax + 1)})


def geometric_inv_diff_squares(vars: tuple[str, str], kmax: int) -> Laurent2:
    """Expansion of 1/(x**2 - y**2) in |x| > |y|, truncated at y**(2*kmax)."""
    return Laurent2(vars, {(-2 - 2 * k, 2 * k): Fraction(1)
                           for k in range(kmax + 1)})


def geometric_inv_diff_squares_sq(vars: tuple[str, str],
                                  kmax: int) -> Laurent2:
    """Expansion of 1/(x**2 - y**2)**2 in |x| > |y|, truncated at
    y**(2*kmax)."""
    return Laurent2(vars, {(-4 - 2 * k, 2 * k): Fraction(k + 1)
                           for k in range(kmax + 1)})


def restrict(poly: Laurent2, lo: int, hi: int) -> Laurent2:
    """The cells of poly whose two exponents both lie in [lo, hi]."""
    return Laurent2(poly.vars, {(x, y): c for (x, y), c in poly.coeffs.items()
                                if lo <= x <= hi and lo <= y <= hi})


def outer(fx, fy) -> Laurent2:
    """Product f(x) g(y) of two univariate series, term by term."""
    return Laurent2((fx.var, fy.var), {(e1, e2): c1 * c2
                                       for e1, c1 in fx.coeffs.items()
                                       for e2, c2 in fy.coeffs.items()})


def airy_pair_fraction(order: int, alternating: bool = False
                       ) -> tuple[Series1, Series1]:
    """The Airy series a, b through z^(-order), term by term from their
    coefficient formulas on Fractions.

    With t_m = (6m-1)!!/(6^(2m) (2m)!), the m-th term of a is t_m z^(-3m)
    and that of b is -t_m (6m+1)/(6m-1) z^(-3m+1).  With ``alternating``
    they are the Faber-Zagier pair c, q instead: the m-th sign of c is
    (-1)^m and that of q is (-1)^(m+1).
    """
    a, b = {}, {}
    for m in range(order // 3 + 2):
        t = Fraction(math.prod(range(6 * m - 1, 0, -2)),
                     36 ** m * math.factorial(2 * m))
        slope = t * Fraction(6 * m + 1, 6 * m - 1)
        if 3 * m <= order:
            a[-3 * m] = (-1) ** m * t if alternating else t
        if 3 * m - 1 <= order:
            b[1 - 3 * m] = (-1) ** (m + 1) * slope if alternating else -slope
    return Series1("z", a, order), Series1("z", b, order)


def transition_matrix_fraction(a: Series1, b: Series1) -> list[list[Series1]]:
    """The 2x2 series matrix G with (a(z), b(z)) = (1, z) G(z^2), read
    coefficient by coefficient: column 0 splits a, column 1 splits b, and
    row r holds the exponents of parity r."""
    def part(f: Series1, r: int) -> Series1:
        return Series1("z", {(e - r) // 2: c for e, c in f.coeffs.items()
                             if (e - r) % 2 == 0}, (f.order + r) // 2)
    return [[part(a, 0), part(b, 0)], [part(a, 1), part(b, 1)]]


def kernel_series_fraction(cutoff: int, alternating: bool = False
                           ) -> dict[tuple[int, int], Fraction]:
    """Table of the generating-function route on Fraction cells.

    The numerator a(x) b(-y) - b(x) a(-y) + x + y, from factors cut as the
    route cuts them, times the expansion of 1/(x^2 - y^2), restricted to
    [-cutoff-1, 2]^2; every nonnegative cell must vanish, and cell
    (ex, ey) is read transposed into (-ey-1, -ex-1).  With
    ``alternating`` the numerator reads c, q in place of a, b.
    """
    a, b = airy_pair_fraction(required_order(cutoff), alternating)
    ax, bx = (f.rename("x").truncated(cutoff - 1) for f in (a, b))
    ay, by = (f.negate_var().rename("y").truncated(2 * cutoff + 1)
              for f in (a, b))
    pair = ("x", "y")
    numerator = outer(ax, by) - outer(bx, ay) \
        + Laurent2(pair, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    gf = product_restricted(numerator,
                            geometric_inv_diff_squares(pair, cutoff + 2),
                            -cutoff - 1, 2)
    assert all(ex < 0 and ey < 0 for ex, ey in gf.coeffs)
    return {(-ey - 1, -ex - 1): c for (ex, ey), c in gf.coeffs.items()}


def kernel_gmatrix_fraction(cutoff: int, alternating: bool = False
                            ) -> dict[tuple[int, int], Fraction]:
    """Table of the transition-matrix route on Fraction cells.

    Each block of I - G(x) G(y)^(-1), with the adjugate as inverse and the
    factors cut as the route cuts them, times the expansion of 1/(x - y),
    restricted to [-half-1, -1]^2 (half = cutoff // 2); block (r, c) cell
    (-m-1, -n-1) is row 2m + 1 - r, column 2n + c, read transposed.  With
    ``alternating`` G splits c, q in place of a, b.
    """
    g = transition_matrix_fraction(
        *airy_pair_fraction(required_order(cutoff), alternating))
    ginv = [[g[1][1], -g[0][1]], [-g[1][0], g[0][0]]]
    half = cutoff // 2
    gx = [[f.rename("x").truncated(half) for f in row] for row in g]
    giy = [[f.rename("y").truncated(2 * half + 1) for f in row]
           for row in ginv]
    pair = ("x", "y")
    table = {}
    for r in range(2):
        for c in range(2):
            block = Laurent2.const(pair, 1) if r == c else Laurent2.zero(pair)
            for s in range(2):
                block = block - outer(gx[r][s], giy[s][c])
            block = product_restricted(
                block, geometric_inv_diff(pair, 2 * half + 1), -half - 1, -1)
            for (ex, ey), value in block.coeffs.items():
                row, col = 2 * (-ex - 1) + 1 - r, 2 * (-ey - 1) + c
                if row <= cutoff and col <= cutoff:
                    table[(col, row)] = value
    return table


def product_restricted(left: Laurent2, right: Laurent2, lo: int, hi: int
                       ) -> Laurent2:
    """restrict(left.mul(right), lo, hi) by schoolbook products, skipping
    the pairs that land outside the window."""
    out: dict[tuple[int, int], Fraction] = {}
    for (x1, y1), c1 in left.coeffs.items():
        for (x2, y2), c2 in right.coeffs.items():
            x, y = x1 + x2, y1 + y2
            if lo <= x <= hi and lo <= y <= hi:
                out[(x, y)] = out.get((x, y), 0) + c1 * c2
    return Laurent2(left.vars, out)


def cycle_sum_brute(table: dict[tuple[int, int], Fraction],
                    js: tuple[int, ...], window: int,
                    region=None) -> Fraction:
    """Connected coefficient of x_0^(-j_0-1) ... x_(n-1)^(-j_(n-1)-1) of
    (-1)^(n-1) times the sum over directed n-cycles of the product of
    factors K(x_u, x_v), for n >= 2, by explicit products.

    A factor holds the terms c x_u^(-m-1) x_v^(-m'-1) for every table entry
    (m, m'): c, and the expansion of 1/(x_u - x_v) up to x^window: the terms
    x_u^(-1-k) x_v^k in the region |x_u| > |x_v|, and -x_u^k x_v^(-1-k) in
    |x_v| > |x_u|.  ``region(u, v)`` says whether K(x_u, x_v) is expanded in
    |x_u| > |x_v|; by default it is u < v, the engine's regions.  Along
    each cycle every choice of one term per factor is multiplied out, and a
    choice is kept while the two exponents meeting at each point sum to
    -j-1 there.
    """
    n = len(js)
    if region is None:
        def region(u: int, v: int) -> bool:
            return u < v

    def factor(u: int, v: int) -> list[tuple[int, int, Fraction]]:
        terms = [(-m - 1, -k - 1, Fraction(c)) for (m, k), c in table.items()]
        for k in range(window + 1):
            terms.append((-1 - k, k, Fraction(1)) if region(u, v)
                         else (k, -1 - k, Fraction(-1)))
        return terms

    total = Fraction(0)
    for rest in permutations(range(1, n)):
        cycle = (0,) + rest
        # (exponent at the cycle's first point, exponent the last chosen
        # term puts at its second point, product of the chosen terms)
        chosen = factor(cycle[0], cycle[1])
        for i in range(1, n):
            u, v = cycle[i], cycle[(i + 1) % n]
            terms = factor(u, v)
            chosen = [(first, q, c * c2)
                      for first, last, c in chosen
                      for p, q, c2 in terms
                      if last + p == -js[u] - 1]
        total += sum((c for first, last, c in chosen
                      if first + last == -js[0] - 1), Fraction(0))
    return -total if n % 2 == 0 else total


class _RandomKernel:
    """Duck-typed coefficient table with no special structure."""

    def __init__(self, rng: random.Random, cutoff: int):
        self.cutoff = cutoff
        self.table = {}
        for m in range(cutoff + 1):
            for n in range(cutoff + 1):
                if rng.random() < 0.5:
                    value = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    if value != 0:
                        self.table[(m, n)] = value


def _edge_table(kernel, ascending: bool
                ) -> dict[int, list[tuple[int, Fraction]]]:
    """Terms of one off-diagonal factor on Fractions, keyed by the first
    exponent, in the row and term order of ``npoint._scaled_tables``.

    ``ascending`` says whether the factor's first argument has the smaller
    point label, which fixes the expansion region of the Cauchy part.  The
    kernel terms come from the sparse ``kernel.table`` {(m, n): value}; the
    Cauchy terms stop at k = cutoff - 1, the window proved in
    ``_scaled_tables``.
    """
    table: dict[int, list[tuple[int, Fraction]]] = {}
    for (m, n), value in sorted(kernel.table.items()):
        if value != 0:
            table.setdefault(-m - 1, []).append((-n - 1, value))
    if ascending:
        for k in range(kernel.cutoff):
            table.setdefault(-1 - k, []).append((k, Fraction(1)))
    else:
        for k in range(kernel.cutoff):
            table.setdefault(k, []).append((-1 - k, Fraction(-1)))
    return table


# The determinant route by set partitions: every permutation of a label set
# through its cycle decomposition, each cycle walked from every first row,
# and both Moebius directions as sums over all set partitions.

def scaled_tables_two_step(kernel, base: int | None = None):
    """The engine's integer edge tables by the two-step route: the Fraction
    tables of ``_edge_table``, a base from every denominator of both, each
    factored at its smallest exponent -(p+q), then each table scanned again
    with every term (p, q, c) multiplied by base^(-(p+q)), the ascending
    table first.  Returns (ascending, descending, base); a given ``base``
    replaces the derived one.  Raises CrossCheckError when a scaled term is
    not an integer."""
    tables = (_edge_table(kernel, True), _edge_table(kernel, False))
    exponents: dict[int, int] = {}
    for table in tables:
        for p, terms in table.items():
            for q, c in terms:
                if c.denominator != 1:
                    exponents[c.denominator] = min(
                        exponents.get(c.denominator, -(p + q)), -(p + q))
    powers: dict[int, int] = {}
    cofactor = 1
    for den, exponent in exponents.items():
        for prime in (2, 3, 5, 7, 11, 13):
            k = 0
            while den % prime == 0:
                den //= prime
                k += 1
            if k:
                powers[prime] = max(powers.get(prime, 0), -(-k // exponent))
        cofactor = math.lcm(cofactor, den)
    if base is None:
        base = cofactor * math.prod(prime ** k
                                    for prime, k in powers.items())
    scaled = []
    for table in tables:
        rows: dict[int, list[tuple[int, int]]] = {}
        for p, terms in table.items():
            row = rows[p] = []
            for q, c in terms:
                k = -(p + q)
                value, rest = divmod(c.numerator * base ** k, c.denominator)
                if rest:
                    raise CrossCheckError(
                        f"edge term ({p}, {q}) = {c} is not integral at "
                        f"scale {base}^{k}")
                row.append((q, value))
        scaled.append(rows)
    return scaled[0], scaled[1], base


def set_partitions(items: list):
    """All partitions of a list into nonempty blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def _chain_value_all_rows(vertices: tuple[int, ...], js: tuple[int, ...],
                          lt_table, gt_table) -> Fraction:
    """Contraction of one directed cycle over the given vertex labels
    (no sign), from every row of its first factor's edge table."""

    def table_for(u: int, v: int):
        return lt_table if u < v else gt_table

    n = len(vertices)
    total = Fraction(0)
    first = table_for(vertices[0], vertices[1])
    for p0, terms in first.items():
        states = {}
        for q, c in terms:
            states[q] = states.get(q, Fraction(0)) + c
        for i in range(1, n):
            u, v = vertices[i], vertices[(i + 1) % n]
            tab = table_for(u, v)
            nxt: dict[int, Fraction] = {}
            for q, acc in states.items():
                p = -js[u] - 1 - q
                for q2, c in tab.get(p, ()):
                    nxt[q2] = nxt.get(q2, Fraction(0)) + acc * c
            states = nxt
            if not states:
                break
        total += states.get(-js[vertices[0]] - 1 - p0, Fraction(0))
    return total


def _disconnected_coeff_brute(kernel, js: tuple[int, ...],
                              labels: tuple[int, ...]) -> Fraction:
    """Coefficient of the determinant (full correlator) form on a label
    set: fixed points contribute diagonal values, longer cycles the chain
    contraction, with the cycle sign."""
    lt = _edge_table(kernel, True)
    gt = _edge_table(kernel, False)

    def rec(remaining: tuple[int, ...]) -> Fraction:
        if not remaining:
            return Fraction(1)
        head, rest = remaining[0], remaining[1:]
        total = antidiagonal_sum(kernel, js[head]) * rec(rest)
        for size in range(1, len(rest) + 1):
            for combo in combinations(rest, size):
                others = tuple(x for x in rest if x not in combo)
                for order in permutations(combo):
                    cycle = (head,) + order
                    sign = Fraction((-1) ** (len(cycle) - 1))
                    total += sign * _chain_value_all_rows(
                        cycle, js, lt, gt) * rec(others)
        return total

    return rec(labels)


def disconnected_family_brute(kernel, js: tuple[int, ...]
                              ) -> dict[frozenset[int], Fraction]:
    """Determinant-form coefficients for every nonempty label subset, each
    by its own recursion."""
    n = len(js)
    family = {}
    for mask in range(1, 1 << n):
        labels = tuple(i for i in range(n) if mask & (1 << i))
        family[frozenset(labels)] = _disconnected_coeff_brute(kernel, js,
                                                              labels)
    return family


def _partition_sums(values: dict[frozenset, Fraction], weight
                    ) -> dict[frozenset, Fraction]:
    """For every subset, the sum over its set partitions of
    weight(number of blocks) times the product of the blocks' values."""
    return {subset: sum((weight(len(part)) * math.prod(
                (values[frozenset(block)] for block in part),
                start=Fraction(1))
                for part in set_partitions(sorted(subset))), Fraction(0))
            for subset in sorted(values, key=len)}


def mobius_connect_brute(family: dict[frozenset, Fraction]
                         ) -> dict[frozenset, Fraction]:
    """Partition-lattice inversion: connected values from full values."""
    return _partition_sums(
        family, lambda k: (-1) ** (k - 1) * math.factorial(k - 1))


def mobius_disconnect_brute(connected: dict[frozenset, Fraction]
                            ) -> dict[frozenset, Fraction]:
    """Inverse direction: full values as sums over partitions."""
    return _partition_sums(connected, lambda k: 1)


def det_leibniz(rows: list[list], zero=Fraction(0)):
    """Determinant by the permutation expansion, sign from the inversion
    count: sum over sigma of sgn(sigma) * prod_i rows[i][sigma(i)], summed
    from ``zero`` (a ring's zero for a nonempty matrix over that ring)."""
    n = len(rows)
    total = zero
    for sigma in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if sigma[i] > sigma[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= rows[i][sigma[i]]
        total += term
    return total


def normalize_fraction(elements, cutoff: int
                       ) -> dict[tuple[int, int], Fraction]:
    """Affine-coordinate table of a frame by Gauss elimination on Fraction
    dicts: for n = 0..cutoff, clear every z^k (k < n) of element n with the
    rows already normalized, highest k first, and read the coefficient of
    z^(-m-1) into cell (n, m).  ``elements`` are Series1 whose windows reach
    z^(-cutoff-1); only their coefficient dicts are read."""
    rows: list[dict[int, Fraction]] = []
    table: dict[tuple[int, int], Fraction] = {}
    for n, f in enumerate(elements[:cutoff + 1]):
        row = {e: c for e, c in f.coeffs.items() if e >= -cutoff - 1}
        for k in range(n - 1, -1, -1):
            c = row.get(k)
            if c:
                for e, v in rows[k].items():
                    row[e] = row.get(e, 0) - c * v
        row = {e: c for e, c in row.items() if c}
        rows.append(row)
        for m in range(cutoff + 1):
            if row.get(-m - 1):
                table[(n, m)] = row[-m - 1]
    return table


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


def character(mu: Partition, rho: Partition) -> int:
    """The symmetric-group character chi^mu at the cycle type rho (same
    weight), by removing border strips of the parts of rho in turn."""
    weights = {_beta_mask(mu): 1}
    for k in rho.parts:
        weights = _remove_strips(weights, k)
    return weights.get(0, 0)


def multisets_recursive(n: int, total: int):
    """Weakly decreasing n-tuples of nonnegative integers with given sum,
    by decreasing first entry, then recursively on the tail."""

    def rec(slots: int, remaining: int, cap: int):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for first in range(min(cap, remaining), -1, -1):
            if first * slots < remaining:
                break
            for tail in rec(slots - 1, remaining - first, first):
                yield (first,) + tail

    yield from rec(n, total, total)


def valid_keys_recursive(weight_cap: int, index_cap: int | None = None,
                         degree_cap: int | None = None):
    """The exponent multisets of ``npoint.valid_keys``, in its order, from
    the recursive enumeration by sum."""
    max_n = weight_cap if degree_cap is None else min(weight_cap, degree_cap)
    for n in range(1, max_n + 1):
        budget = (weight_cap - n) // 2
        top = budget if index_cap is None else min(budget,
                                                   (index_cap - 1) // 2)
        for total in range(budget + 1):
            for ms in multisets_recursive(n, total):
                if ms[0] <= top and genus_of(ms) is not None:
                    yield ms


def times_power_sums(weight_cap: int) -> PowerSums:
    """The specialization p_k = k T_k over weight-capped polynomials."""
    values = {k: MultiPoly.var(k, weight_cap=weight_cap).scale(k)
              for k in range(1, weight_cap + 1)}
    return PowerSums(values, MultiPoly.zero(weight_cap=weight_cap),
                     MultiPoly.const(1, weight_cap=weight_cap), weight_cap)


def schur_sum_jacobi_trudi(coeffs: dict[Partition, Fraction],
                           weight_cap: int) -> MultiPoly:
    """sum_mu c_mu s_mu(T) at p_k = k T_k, every s_mu a Jacobi-Trudi
    determinant of complete homogeneous polynomials in T."""
    spec = times_power_sums(weight_cap)
    return sum((schur_at(mu, spec, "h").scale(c) for mu, c in coeffs.items()),
               MultiPoly.zero(weight_cap=weight_cap))


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


def _double_factorial(n: int) -> int:
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def _falling(a: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= a - i
    return out


def _b_const(n: int) -> Fraction:
    return Fraction(2 ** n * _double_factorial(6 * n + 1),
                    math.factorial(2 * n))


def _b_poly(n: int, x: int) -> Fraction:
    """Degree n-1 polynomial correction evaluated at integer x."""
    acc = Fraction(0)
    for j in range(1, n + 1):
        acc += Fraction(108 ** j) * _b_const(n - j) * _falling(x + n, j - 1)
    return acc / 6


def closed_entry_fraction(m: int, n: int) -> Fraction:
    """The closed-form table value at row m, column n (both >= 0), as a
    chain of Fraction operations: the three-case product formula with its
    polynomial correction evaluated term by term."""
    if (m + n) % 3 != 2:
        return Fraction(0)
    r = m % 3
    if r == 2:        # rows 3M-1, columns 3N
        big_m, big_n = (m + 1) // 3, n // 3
        shift = 1     # denominator 6M+1
        sign = (-1) ** big_n
    elif r == 0:      # rows 3M-3, columns 3N+2
        big_m, big_n = m // 3 + 1, (n - 2) // 3
        shift = 1
        sign = (-1) ** big_n
    else:             # rows 3M-2, columns 3N+1
        big_m, big_n = (m + 2) // 3, (n - 1) // 3
        shift = -1    # denominator 6M-1
        sign = (-1) ** (big_n + 1)
    pref = Fraction(_double_factorial(6 * big_m + 1),
                    36 ** (big_m + big_n)
                    * math.factorial(2 * (big_m + big_n)))
    for j in range(big_n):
        pref *= big_m + j
    for j in range(1, big_n + 1):
        pref *= 2 * big_m + 2 * j - 1
    tail = _b_poly(big_n, big_m) + _b_const(big_n) / (6 * big_m + shift)
    return sign * pref * tail


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


# ---------------------------------------------------------------------------
# Plain-Fraction references for wave-layer terms {(depths, monomial): coeff}.
# ---------------------------------------------------------------------------

def term_tw(term) -> int:
    key, mono = term
    return sum(key) + _mono_weight(mono)


def prune_terms(terms: dict, cap: int | None) -> dict:
    """The nonzero terms with TW <= cap (``None`` keeps them all)."""
    return {term: Fraction(c) for term, c in terms.items()
            if c != 0 and (cap is None or term_tw(term) <= cap)}


def fraction_combine(a: dict, b: dict, sign: int, cap: int | None) -> dict:
    """a + sign * b, pruned at cap."""
    out = dict(a)
    for term, c in b.items():
        out[term] = out.get(term, Fraction(0)) + sign * c
    return prune_terms(out, cap)


def fraction_shift(a: dict, deltas: tuple[int, ...]) -> dict:
    return {(tuple(k + d for k, d in zip(key, deltas)), mono): c
            for (key, mono), c in a.items()}


def _mono_without(mono, index: int):
    """(monomial / T_index, exponent of T_index) with exponent 0 when
    T_index does not occur."""
    powers = dict(mono)
    e = powers.pop(index, 0)
    if e > 1:
        powers[index] = e - 1
    return tuple(sorted(powers.items())), e


def fraction_dx(a: dict, tag: int) -> dict:
    """d/dT_1 of every term, plus tag times the term one depth shallower in
    the first shift variable (the x-derivative of exp(tag * S))."""
    out: dict = {}
    for (key, mono), c in a.items():
        rest, e = _mono_without(mono, 1)
        if e:
            out[key, rest] = out.get((key, rest), Fraction(0)) + c * e
        shallower = ((key[0] - 1,) + key[1:], mono)
        out[shallower] = out.get(shallower, Fraction(0)) + c * tag
    return prune_terms(out, None)


def fraction_dxi(a: dict, tag: int, index_cap: int) -> dict:
    """d/dxi of sum c xi^(-k) T^m times exp(tag * S): -k c xi^(-k-1) T^m,
    plus tag * n c xi^(n-1-k) T^m T_n for odd n <= index_cap."""
    out: dict = {}
    for ((k,), mono), c in a.items():
        deeper = ((k + 1,), mono)
        out[deeper] = out.get(deeper, Fraction(0)) - k * c
        for n in range(1, index_cap + 1, 2):
            term = ((k - n + 1,), _mono_product(mono, ((n, 1),)))
            out[term] = out.get(term, Fraction(0)) + tag * n * c
    return prune_terms(out, None)


def fraction_agrees(a: dict, b: dict, cap: int | None,
                    depth: tuple[int, ...] | None) -> bool:
    """Equal coefficients on every term with TW <= cap and no depth beyond
    ``depth``."""
    for term in a.keys() | b.keys():
        if cap is not None and term_tw(term) > cap:
            continue
        if depth is not None and any(k > d for k, d in zip(term[0], depth)):
            continue
        if a.get(term, Fraction(0)) != b.get(term, Fraction(0)):
            return False
    return True


def shifted_tau_terms(tau_terms: dict, signs: tuple[int, ...],
                      cap: int) -> dict:
    """tau(T + sum_v sign_v [s_v]) pruned at TW <= cap: every T_idx^e splits
    into T_idx^left * prod_v (sign_v s_v^idx / idx)^(i_v) with the
    multinomial coefficient e! / (left! prod_v i_v!)."""
    out: dict = {}
    r = len(signs)
    for mono, c in tau_terms.items():
        choices = []
        for idx, e in mono:
            splits = []
            for picks in product(range(e + 1), repeat=r):
                if sum(picks) > e or any(i and not s
                                         for i, s in zip(picks, signs)):
                    continue
                left = e - sum(picks)
                coeff = Fraction(math.factorial(e), math.factorial(left))
                for i, s in zip(picks, signs):
                    coeff = coeff / math.factorial(i) * Fraction(s, idx) ** i
                splits.append((idx, left, picks, coeff))
            choices.append(splits)
        for chosen in product(*choices):
            key = [0] * r
            rest = []
            coeff = Fraction(c)
            for idx, left, picks, cf in chosen:
                coeff *= cf
                key = [k + idx * i for k, i in zip(key, picks)]
                if left:
                    rest.append((idx, left))
            term = (tuple(key), tuple(rest))
            out[term] = out.get(term, Fraction(0)) + coeff
    return prune_terms(out, cap)


# ---------------------------------------------------------------------------
# Fraction references for the integer containers: the tuple-monomial,
# one-Fraction-per-term bodies of MultiPoly and Laurent2.mul.
# ---------------------------------------------------------------------------

def rat(numerator: int, denominator: int = 1) -> Fraction:
    """Build a rational; denominator 0 raises ZeroDivisionError."""
    return Fraction(numerator, denominator)


def minus_spec_h_alternating(n: int, vars: tuple[str, str] = ("x", "y")
                             ) -> Laurent2:
    """Closed form of h_n under p_k = y^(-k) + (-x)^(-k):
    sum_{i+j=n} (-1)^i x^(-i) y^(-j)."""
    if n < 0:
        return Laurent2.zero(vars)
    return Laurent2(vars, {(-i, -(n - i)): Fraction((-1) ** i)
                           for i in range(n + 1)})


def laurent_product(a: dict, b: dict) -> dict:
    """Schoolbook product of {(ex, ey): Fraction} cells, zeros dropped."""
    out: dict = {}
    for (x1, y1), c1 in a.items():
        for (x2, y2), c2 in b.items():
            key = (x1 + x2, y1 + y2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {key: c for key, c in out.items() if c != 0}


def _min_bound(a, b):
    return b if a is None else a if b is None else min(a, b)


class FractionPoly:
    """MultiPoly on tuple monomials and one Fraction per term, with the
    same weight cap: products by all pairs, exp by its power series and
    inverse by the geometric series."""

    def __init__(self, terms=None, weight_cap=None):
        self.weight_cap = weight_cap
        self.terms = {mono: Fraction(c) for mono, c in (terms or {}).items()
                      if c != 0 and (weight_cap is None
                                     or _mono_weight(mono) <= weight_cap)}

    def _caps_with(self, other):
        return _min_bound(self.weight_cap, other.weight_cap)

    def with_caps(self, weight_cap):
        return FractionPoly(self.terms, _min_bound(self.weight_cap,
                                                   weight_cap))

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return FractionPoly(out, self._caps_with(other))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor):
        return FractionPoly({m: c * factor for m, c in self.terms.items()},
                            self.weight_cap)

    def mul(self, other):
        wcap = self._caps_with(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if wcap is not None and (_mono_weight(m1) + _mono_weight(m2)
                                         > wcap):
                    continue
                key = _mono_product(m1, m2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return FractionPoly(out, wcap)

    def deriv(self, index: int):
        wcap = None if self.weight_cap is None else self.weight_cap - index
        out: dict = {}
        for mono, c in self.terms.items():
            exps = dict(mono)
            e = exps.pop(index, 0)
            if e:
                if e > 1:
                    exps[index] = e - 1
                new = tuple(sorted(exps.items()))
                out[new] = out.get(new, Fraction(0)) + c * e
        return FractionPoly(out, wcap)

    def exp(self):
        result = FractionPoly({(): 1}, self.weight_cap)
        power = result
        k = 0
        while True:
            power = power.mul(self)
            if not power.terms:
                return result
            k += 1
            result = result + power.scale(Fraction(1, math.factorial(k)))

    def inverse(self):
        one = FractionPoly({(): 1}, self.weight_cap)
        u = one - self
        result = power = one
        while True:
            power = power.mul(u)
            if not power.terms:
                return result
            result = result + power


def assert_lowest_terms(container) -> None:
    """The storage invariant of every integer container: numerators over a
    positive denominator, none of them zero, with no common factor."""
    assert container.den > 0
    assert all(n != 0 for n in container.num.values())
    assert math.gcd(container.den, *container.num.values()) == 1

class FractionSeries:
    """Series1 on one Fraction per term: the same reliability order,
    window rules and dump format, with every operation term by term."""

    __slots__ = ("var", "coeffs", "order")

    def __init__(self, var, coeffs=None, order=None):
        self.var, self.order = var, order
        self.coeffs = {e: Fraction(c) for e, c in (coeffs or {}).items()
                       if c != 0 and (order is None or e >= -order)}

    @property
    def top(self):
        return max(self.coeffs) if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exp: int) -> Fraction:
        if self.order is not None and exp < -self.order:
            raise WindowError(
                f"coefficient of {self.var}^{exp} outside reliable window "
                f"(order {self.order})")
        return self.coeffs.get(exp, Fraction(0))

    def get(self, exp: int) -> Fraction:
        return self.coeffs.get(exp, Fraction(0))

    def terms(self):
        return sorted(self.coeffs.items(), reverse=True)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FractionSeries) and self.var == other.var
                and self.coeffs == other.coeffs and self.order == other.order)

    def agrees_with(self, other, through=None) -> bool:
        n = _min_bound(self.order, other.order)
        if through is not None:
            if n is not None and n < through:
                return False
            n = through
        return all(self.get(e) == other.get(e)
                   for e in set(self.coeffs) | set(other.coeffs)
                   if n is None or e >= -n)

    def _check_var(self, other) -> None:
        if self.var != other.var:
            raise InvalidKeyError(
                f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        self._check_var(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return FractionSeries(self.var, out,
                              _min_bound(self.order, other.order))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor):
        return FractionSeries(self.var, {e: c * Fraction(factor)
                                         for e, c in self.coeffs.items()},
                              self.order)

    def __mul__(self, other):
        self._check_var(other)
        n = _series_mul_order(self, other)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                if n is None or e1 + e2 >= -n:
                    out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        return FractionSeries(self.var, out, n)

    def shift(self, k: int):
        n = None if self.order is None else self.order - k
        return FractionSeries(self.var, {e + k: c
                                         for e, c in self.coeffs.items()}, n)

    def derivative(self):
        n = None if self.order is None else self.order + 1
        return FractionSeries(self.var, {e - 1: c * e
                                         for e, c in self.coeffs.items()}, n)

    def negate_var(self):
        return FractionSeries(self.var, {e: c if e % 2 == 0 else -c
                                         for e, c in self.coeffs.items()},
                              self.order)

    def truncated(self, order: int):
        return FractionSeries(self.var, self.coeffs,
                              _min_bound(self.order, order))

    def rename(self, var: str):
        return FractionSeries(var, self.coeffs, self.order)

    def dump(self) -> str:
        rel = "inf" if self.order is None else str(self.order)
        return "".join([f"# var={self.var} reliable={rel}\n"]
                       + [f"{e}\t{c}\n" for e, c in self.terms()])


def _series_mul_order(a: FractionSeries, b: FractionSeries):
    """The reliable order of a * b: unknown terms of one factor meet the
    other's top exponent, and an exact zero annihilates everything."""
    if any(f.is_zero() and f.order is None for f in (a, b)):
        return None
    if a.is_zero() and b.is_zero():
        return _min_bound(a.order, b.order)
    return _min_bound(None if a.order is None or b.top is None
                      else a.order - b.top,
                      None if b.order is None or a.top is None
                      else b.order - a.top)
