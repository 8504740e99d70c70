"""The bosonic n-point engine.

Connected n-point coefficients come from the cycle sum: the coefficient of
xi_1^(-j_1-1) ... xi_n^(-j_n-1) in

    (-1)^(n-1) sum over n-cycles of prod_i K(xi_sigma(i), xi_sigma(i+1)),

where an off-diagonal factor is the kernel plus the Cauchy factor
1/(xi_u - xi_v) expanded in the region |xi_smaller-index| > |xi_larger-index|,
and the one-point case is the kernel's diagonal restriction.

Extraction is a bounded tensor contraction: each factor is a finite table of
exponent pairs; exponent conservation at each point (its two incident factors
sum to -j-1) threads a transfer chain along the cycle, evaluated by dynamic
programming over visited subsets.  The dynamic programming runs on Python
integers: every term (p, q, c) of an edge table is multiplied by D^(-(p+q)),
with the base D derived from the table's denominators (12 for the Airy
kernel).  The exponents along a contributing cycle sum to -(sum(j) + n), so
each cycle term carries the same scale D^(sum(j) + n) and one exact division
at the end recovers the rational.  Correctness of the truncation is certified
by regrowth: every reported coefficient is recomputed with the kernel cutoff
grown by 3, and at least to the reach sum(j) - 1, with the window grown by
the same amount, and must reproduce the identical rational.  The reach holds
every kernel entry a contributing cycle can use: its factors carry total
exponent -(sum(j) + n), a Cauchy factor carries -1 and a kernel factor
(m, m') carries -(m + m' + 2), so m + m' <= sum(j) - 1.

Intersection numbers divide the connected coefficients at odd orders
j_i = 2 m_i + 1 by the double factorials (2 m_i + 1)!!.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator

from .errors import CrossCheckError, InsufficientCutoffError, InvalidKeyError
from .multipoly import MONO_ONE, Monomial, MultiPoly, mono_mul
from .rational import Rat, double_factorial

GROWTH = 3

# Primes tried when factoring edge-table denominators; whatever is left of a
# denominator after them is folded into the scaling base whole.
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13)


def antidiagonal_sum(kernel, j: int) -> Rat:
    """Coefficient of xi^(-j-1) of the kernel restricted to equal
    arguments: the sum of the entries (m, j - 1 - m).  Works on any object
    with ``cutoff`` and ``entry(m, n)``."""
    s = j - 1
    if s > kernel.cutoff:
        raise InsufficientCutoffError(
            f"one-point order {j} beyond kernel cutoff {kernel.cutoff}")
    return sum((kernel.entry(m, s - m) for m in range(max(0, s) + 1)), Rat(0))


def _edge_table(kernel, window: int, ascending: bool
                ) -> dict[int, list[tuple[int, Rat]]]:
    """Terms of one off-diagonal factor, keyed by the first exponent.

    ``ascending`` says whether the factor's first argument has the smaller
    point label, which fixes the expansion region of the Cauchy part.
    """
    table: dict[int, list[tuple[int, Rat]]] = {}
    for m in range(kernel.cutoff + 1):
        for n in range(kernel.cutoff + 1):
            value = kernel.entry(m, n)
            if value != 0:
                table.setdefault(-m - 1, []).append((-n - 1, value))
    if ascending:
        for k in range(window + 1):
            table.setdefault(-1 - k, []).append((k, Rat(1)))
    else:
        for k in range(window + 1):
            table.setdefault(k, []).append((-1 - k, Rat(-1)))
    return table


def _scale_base(*tables) -> int:
    """The base D that turns every term (p, q, c) of the tables into the
    integer c * D^(-(p+q)).

    Each trial prime enters D to the smallest power that clears its share
    of every denominator at that term's exponent -(p+q) >= 1; a cofactor
    left over after the trial primes is folded into D whole.  A denominator
    is factored once, at its smallest exponent, where it demands the most.
    """
    exponents: dict[int, int] = {}
    for table in tables:
        for p, terms in table.items():
            for q, c in terms:
                den = c.denominator
                if den != 1:
                    exponents[den] = min(exponents.get(den, -(p + q)),
                                         -(p + q))
    powers: dict[int, int] = {}
    cofactor = 1
    for den, exponent in exponents.items():
        for prime in _TRIAL_PRIMES:
            if den == 1:
                break
            k = 0
            while den % prime == 0:
                den //= prime
                k += 1
            if k:
                power = -(-k // exponent)
                powers[prime] = max(powers.get(prime, 0), power)
        cofactor = math.lcm(cofactor, den)
    return cofactor * math.prod(prime ** k for prime, k in powers.items())


def _scale_table(table, base: int) -> dict[int, list[tuple[int, int]]]:
    """The edge table with each term (p, q, c) multiplied by base^(-(p+q)).

    Along a contributing n-cycle the exponents sum to -(sum(js) + n), so the
    product of the scales is base^(sum(js) + n) for every term of the cycle
    sum.  Raises CrossCheckError when a scaled term is not an integer.
    """
    scaled: dict[int, list[tuple[int, int]]] = {}
    for p, terms in table.items():
        row = scaled[p] = []
        for q, c in terms:
            k = -(p + q)
            value, rest = divmod(c.numerator * base ** k, c.denominator)
            if rest:
                raise CrossCheckError(
                    f"edge term ({p}, {q}) = {c} is not integral at scale "
                    f"{base}^{k}")
            row.append((q, value))
    return scaled


def _cycle_sum(js: tuple[int, ...], lt_table, gt_table) -> int:
    """Sum over all n-cycles of the transfer-chain contraction, times the
    cycle sign (-1)^(n-1), on scaled integer edge tables.  DP over (visited
    set, last vertex) merges the shared prefixes of the (n-1)! cycles.
    Requires n >= 2.

    Only the first rows p0 with -j0 <= p0 <= -1 can close.  A cycle leaves
    vertex 0 on the ascending table and returns to it on the descending
    one, and the two exponents meeting at vertex 0 sum to -j0 - 1.  Every p
    of the ascending table (kernel rows -m-1, Cauchy rows -1-k) is <= -1,
    and so is every q of the descending table (kernel columns -n-1, Cauchy
    columns -1-k); the closing exponent -j0 - 1 - p0 <= -1 gives p0 >= -j0.
    Only the loop over first rows skips: the later ascending edges read the
    whole table, and the vertex labels stay as given, because they fix the
    Cauchy expansion regions."""
    n = len(js)
    full = (1 << n) - 1
    # the two exponents meeting at vertex i sum to sums[i]
    sums = [-j - 1 for j in js]

    def table_for(u: int, v: int):
        return lt_table if u < v else gt_table

    total = 0
    masks = states_masks(n)
    for p0 in range(-js[0], 0):
        first_terms = lt_table.get(p0)
        if first_terms is None:
            continue
        # every first edge (0 -> v) shares the ascending table; seed each
        # second vertex with the same exponent split of the first factor
        # (shared read-only: the DP only writes to larger visited sets)
        first: dict[int, int] = {}
        for q, c in first_terms:
            first[q] = first.get(q, 0) + c
        states: dict[tuple[int, int], dict[int, int]] = {
            (1 | (1 << v), v): first for v in range(1, n)}
        want = sums[0] - p0
        for mask in masks:
            for last in range(1, n):
                pending = states.get((mask, last))
                if pending is None:
                    continue
                shift = sums[last]
                if mask == full:
                    closing = table_for(last, 0)
                    for q, acc in pending.items():
                        for q2, c in closing.get(shift - q, ()):
                            if q2 == want:
                                total += acc * c
                    continue
                for nxt in range(1, n):
                    bit = 1 << nxt
                    if mask & bit:
                        continue
                    tab = table_for(last, nxt)
                    bucket = None
                    for q, acc in pending.items():
                        terms = tab.get(shift - q)
                        if not terms:
                            continue
                        if bucket is None:
                            bucket = states.setdefault((mask | bit, nxt), {})
                        for q2, c in terms:
                            bucket[q2] = bucket.get(q2, 0) + acc * c
    return -total if n % 2 == 0 else total


def states_masks(n: int) -> list[int]:
    """All vertex subsets containing vertex 0, by size."""
    masks = [m for m in range(1, 1 << n) if m & 1]
    masks.sort(key=lambda m: bin(m).count("1"))
    return masks


def ahat_entry(kernel, i: int, j: int, window: int):
    """One factor of the correlator determinant/cycle sums, as a series.

    For i != j: the Cauchy factor expanded in the region
    |xi_smaller-index| > |xi_larger-index| plus the kernel, as a two-variable
    Laurent polynomial over (xi_i, xi_j) truncated to the window.  For i = j:
    the diagonal restriction (no singular part) as a univariate series.
    """
    from .series import Laurent2, Series1

    if i == j:
        coeffs: dict[int, Rat] = {}
        for s in range(min(window, kernel.cutoff) + 1):
            value = antidiagonal_sum(kernel, s + 1)
            if value != 0:
                coeffs[-s - 2] = value
        return Series1(f"xi{i}", coeffs, min(window, kernel.cutoff) + 2)
    table = _edge_table(kernel, window, i < j)
    cells = {}
    for p, terms in table.items():
        for q, c in terms:
            cells[(p, q)] = cells.get((p, q), Rat(0)) + c
    return Laurent2((f"xi{i}", f"xi{j}"), cells)


class NPointEngine:
    """Cycle-sum evaluator bound to a kernel family.

    ``kernel_factory(cutoff)`` must return a table object exposing
    ``cutoff`` and ``entry(m, n)``; certification rebuilds it at
    ``certified_cutoff``.  Edge tables are scaled to integers once per
    cutoff/window and kept.
    """

    def __init__(self, kernel_factory: Callable[[int], object], cutoff: int):
        self.factory = kernel_factory
        self.cutoff = cutoff
        self._kernels: dict[int, object] = {}
        self._tables: dict[tuple[int, int], tuple[dict, dict, int]] = {}
        self._cache: dict[tuple[tuple[int, ...], int | None], Rat] = {}

    def kernel(self, cutoff: int | None = None):
        m = self.cutoff if cutoff is None else cutoff
        if m not in self._kernels:
            self._kernels[m] = self.factory(m)
        return self._kernels[m]

    def _table(self, cutoff: int, window: int):
        """Ascending and descending edge tables scaled to integers, and
        their common scaling base."""
        key = (cutoff, window)
        if key not in self._tables:
            kernel = self.kernel(cutoff)
            lt = _edge_table(kernel, window, True)
            gt = _edge_table(kernel, window, False)
            base = _scale_base(lt, gt)
            self._tables[key] = (_scale_table(lt, base),
                                 _scale_table(gt, base), base)
        return self._tables[key]

    def connected_at(self, js: tuple[int, ...], cutoff: int,
                     window: int | None = None) -> Rat:
        """Uncertified coefficient at one cutoff/window setting."""
        if not js:
            raise InvalidKeyError("empty order tuple")
        if any(j < 1 for j in js):
            raise InvalidKeyError(f"orders must be >= 1: {js}")
        if len(js) == 1:
            return antidiagonal_sum(self.kernel(cutoff), js[0])
        w = cutoff + sum(js) + 2 if window is None else window
        lt, gt, base = self._table(cutoff, w)
        return Rat(_cycle_sum(tuple(js), lt, gt),
                   base ** (sum(js) + len(js)))

    def certified_cutoff(self, js: tuple[int, ...]) -> int:
        """The kernel cutoff a coefficient is recomputed at: cutoff + 3,
        and at least the reach sum(js) - 1."""
        return max(self.cutoff + GROWTH, sum(js) - 1)

    def connected(self, js: Iterable[int],
                  window: int | None = None) -> Rat:
        """Certified coefficient of the connected n-point generating
        function at xi_i^(-j_i-1)."""
        js = tuple(int(j) for j in js)
        key = (js, window)
        if key in self._cache:
            return self._cache[key]
        value = self.connected_at(js, self.cutoff, window)
        if len(js) > 1:
            w = (self.cutoff + sum(js) + 2 if window is None else window)
            cutoff = self.certified_cutoff(js)
            grown = self.connected_at(js, cutoff, w + cutoff - self.cutoff)
            if grown != value:
                raise InsufficientCutoffError(
                    f"coefficient at {js} unstable under cutoff growth "
                    f"({value} -> {grown}); increase the kernel cutoff")
        self._cache[key] = value
        return value


# ---------------------------------------------------------------------------
# Determinant form and Moebius inversion.
# ---------------------------------------------------------------------------

def set_partitions(items: list) -> Iterator[list[list]]:
    """All partitions of a list into nonempty blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def _chain_value(vertices: tuple[int, ...], js: tuple[int, ...],
                 lt_table, gt_table) -> Rat:
    """Contraction of one directed cycle over the given vertex labels
    (no sign)."""

    def table_for(u: int, v: int):
        return lt_table if u < v else gt_table

    n = len(vertices)
    total = Rat(0)
    first = table_for(vertices[0], vertices[1])
    for p0, terms in first.items():
        states = {}
        for q, c in terms:
            states[q] = states.get(q, Rat(0)) + c
        for i in range(1, n):
            u, v = vertices[i], vertices[(i + 1) % n]
            tab = table_for(u, v)
            nxt: dict[int, Rat] = {}
            for q, acc in states.items():
                p = -js[u] - 1 - q
                for q2, c in tab.get(p, ()):
                    nxt[q2] = nxt.get(q2, Rat(0)) + acc * c
            states = nxt
            if not states:
                break
        total += states.get(-js[vertices[0]] - 1 - p0, Rat(0))
    return total


def disconnected_coeff(kernel, js: tuple[int, ...],
                       labels: tuple[int, ...] | None = None,
                       window: int | None = None) -> Rat:
    """Coefficient of the determinant (full correlator) form on a label set.

    Permutations are enumerated through their cycle decompositions; fixed
    points contribute diagonal values, longer cycles the chain contraction.
    """
    labels = tuple(range(len(js))) if labels is None else labels
    w = (kernel.cutoff + sum(js) + 2) if window is None else window
    lt = _edge_table(kernel, w, True)
    gt = _edge_table(kernel, w, False)

    def rec(remaining: tuple[int, ...]) -> Rat:
        if not remaining:
            return Rat(1)
        head, rest = remaining[0], remaining[1:]
        total = Rat(0)
        # head alone as a fixed point
        total += antidiagonal_sum(kernel, js[head]) * rec(rest)
        # cycles of length >= 2 through head
        for size in range(1, len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                others = tuple(x for x in rest if x not in combo)
                for order in itertools.permutations(combo):
                    cycle = (head,) + order
                    sign = Rat((-1) ** (len(cycle) - 1))
                    total += sign * _chain_value(cycle, js, lt, gt) \
                        * rec(others)
        return total

    return rec(labels)


def disconnected_family(kernel, js: tuple[int, ...],
                        window: int | None = None
                        ) -> dict[frozenset[int], Rat]:
    """Determinant-form coefficients for every nonempty label subset."""
    n = len(js)
    family = {}
    for mask in range(1, 1 << n):
        labels = tuple(i for i in range(n) if mask & (1 << i))
        family[frozenset(labels)] = disconnected_coeff(kernel, js, labels,
                                                       window)
    return family


def mobius_connect(family: dict[frozenset, Rat]) -> dict[frozenset, Rat]:
    """Partition-lattice inversion: connected values from full values."""
    out: dict[frozenset, Rat] = {}
    for subset in sorted(family, key=len):
        items = sorted(subset)
        total = Rat(0)
        for part in set_partitions(items):
            k = len(part)
            weight = Rat((-1) ** (k - 1) * math.factorial(k - 1))
            prod = Rat(1)
            for block in part:
                prod *= family[frozenset(block)]
            total += weight * prod
        out[subset] = total
    return out


def mobius_disconnect(connected: dict[frozenset, Rat]
                      ) -> dict[frozenset, Rat]:
    """Inverse direction: full values as sums over partitions."""
    out: dict[frozenset, Rat] = {}
    for subset in sorted(connected, key=len):
        items = sorted(subset)
        total = Rat(0)
        for part in set_partitions(items):
            prod = Rat(1)
            for block in part:
                prod *= connected[frozenset(block)]
            total += prod
        out[subset] = total
    return out


# ---------------------------------------------------------------------------
# Intersection numbers.
# ---------------------------------------------------------------------------

def genus_of(ms: tuple[int, ...]) -> int | None:
    """The genus forced by sum(m_i) = 3g - 3 + n, or None if no valid g."""
    n = len(ms)
    if n < 1 or any(m < 0 for m in ms):
        return None
    total = sum(ms) - n + 3
    if total < 0 or total % 3 != 0:
        return None
    g = total // 3
    if n + 2 * g < 3:  # unstable: (0,1), (0,2), (1,0)
        return None
    return g


def intersection_number(engine: NPointEngine, ms: Iterable[int]) -> Rat:
    """The psi-class correlator with the given exponent multiset; 0 when the
    selection rule admits no genus."""
    ms = tuple(sorted(int(m) for m in ms))
    if genus_of(ms) is None:
        return Rat(0)
    js = tuple(2 * m + 1 for m in ms)
    scale = Rat(1)
    for m in ms:
        scale *= double_factorial(2 * m + 1)
    return engine.connected(js) / scale


def genus0_check(engine: NPointEngine, n: int) -> bool:
    """Genus-zero n-point values equal the multinomial coefficients of
    (x_1 + ... + x_n)^(n-3)."""
    if n < 3:
        raise InvalidKeyError("genus-zero check needs n >= 3")
    target = n - 3
    for ms in _multisets(n, target):
        expected = Rat(math.factorial(target))
        for m in ms:
            expected /= math.factorial(m)
        if intersection_number(engine, ms) != expected:
            return False
    return True


def puncture_check(engine: NPointEngine, ms: Iterable[int]) -> bool:
    """Removing one zero exponent equals the sum over single lowerings.

    The key must contain a zero and admit at least one valid lowering; the
    all-zero three-point key is the recursion's initial value, not an
    instance of it.
    """
    ms = tuple(sorted(int(m) for m in ms))
    if 0 not in ms or genus_of(ms) is None or max(ms) == 0:
        raise InvalidKeyError(f"not a valid puncture key: {ms}")
    rest = list(ms)
    rest.remove(0)
    lhs = intersection_number(engine, ms)
    rhs = Rat(0)
    for i, m in enumerate(rest):
        if m >= 1:
            lowered = rest[:i] + [m - 1] + rest[i + 1:]
            rhs += intersection_number(engine, lowered)
    return lhs == rhs


def _multisets(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing n-tuples of nonnegative integers with given sum."""

    def rec(slots: int, remaining: int, cap: int
            ) -> Iterator[tuple[int, ...]]:
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


# ---------------------------------------------------------------------------
# Free-energy truncation (consumer: the wave layer).
# ---------------------------------------------------------------------------

def valid_keys(weight_cap: int, index_cap: int | None = None,
               degree_cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """All exponent multisets whose key passes the selection rule within
    the weight/index/degree caps (weight of a key = sum of 2 m_i + 1)."""
    max_n = weight_cap if degree_cap is None else min(weight_cap, degree_cap)
    for n in range(1, max_n + 1):
        budget = (weight_cap - n) // 2  # sum of the m_i
        top = budget if index_cap is None else min(budget,
                                                   (index_cap - 1) // 2)
        for total in range(budget + 1):
            for ms in _multisets(n, total):
                if ms and ms[0] > top:
                    continue
                if genus_of(ms) is not None:
                    yield ms


def free_energy(engine: NPointEngine, weight_cap: int,
                index_cap: int | None = None,
                degree_cap: int | None = None,
                window: int | None = None) -> MultiPoly:
    """Assemble the free energy as a polynomial in the odd time variables.

    The coefficient of prod T_(2m_i+1) is the connected coefficient divided
    by the product of multiplicities' factorials (exponential generating
    convention).  Missing kernel reach surfaces as an error naming the key.
    Orders are queried in ascending order, as ``intersection_number`` does,
    so both share the engine's cache and the smallest order sits at vertex
    0, where the cycle sum has the fewest first rows.
    """
    terms: dict[Monomial, Rat] = {}
    for ms in valid_keys(weight_cap, index_cap, degree_cap):
        js = tuple(2 * m + 1 for m in reversed(ms))
        try:
            value = engine.connected(js, window=window)
        except InsufficientCutoffError as exc:
            raise InsufficientCutoffError(
                f"free energy needs key {ms} beyond reach: {exc}") from exc
        if value == 0:
            continue
        counts: dict[int, int] = {}
        for j in js:
            counts[j] = counts.get(j, 0) + 1
        for r in counts.values():
            value /= math.factorial(r)
        mono: Monomial = MONO_ONE
        for j, r in sorted(counts.items()):
            mono = mono_mul(mono, ((j, r),))
        terms[mono] = value
    return MultiPoly(terms, degree_cap=degree_cap, weight_cap=weight_cap)
