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
programming over visited subsets, one subset size at a time.  It runs on
Python integers: both edge tables come from one sorted pass over the kernel
table, each term (p, q, c) multiplied by D^(-(p+q)), with the base D derived
from the kernel's denominators (12 for the Airy kernel).  The exponents
along a contributing cycle sum to -(sum(j) + n), so each cycle term carries
the same scale D^(sum(j) + n) and one exact division recovers the rational.

The truncation is proved, not found by trial.  Two bounds make the cycle
sum at kernel cutoff C exact:

* Reach.  The factors of a contributing cycle carry total exponent
  -(sum(j) + n).  A Cauchy factor carries -1 and a kernel factor (m, m')
  carries -(m + m' + 2), so every kernel entry a cycle can use has
  m + m' <= sum(j) - 1.  At C >= sum(j) - 1 the table holds all of them,
  and the value equals the value at every larger cutoff.  The reach is
  tight: at C = sum(j) - 2 every multi-point key through weight 18 gives a
  wrong value.
* Cauchy window.  The Cauchy factor needs no term beyond k = C - 1 (proved
  in ``_scaled_tables``).

``NPointEngine.connected`` therefore computes once at or above the reach.
Below it, the value is recomputed at ``certified_cutoff``, which is at
least the reach, and must be the identical rational.  Either way a
reported value is proved equal to the value at the certified cutoff.

Intersection numbers divide the connected coefficients at odd orders
j_i = 2 m_i + 1 by the double factorials (2 m_i + 1)!!.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable, Iterator

from .errors import CrossCheckError, InsufficientCutoffError, InvalidKeyError
from .multipoly import Monomial, MultiPoly
from .partitions import partitions_of
from .rational import Rat, double_factorial

GROWTH = 3

# Primes tried when factoring edge-table denominators; whatever is left of a
# denominator after them is folded into the scaling base whole.
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13)


def antidiagonal_sum(kernel, j: int) -> Rat:
    """Coefficient of xi^(-j-1) of the kernel restricted to equal
    arguments: the sum of the entries (m, j - 1 - m).  Works on any object
    with ``cutoff`` and the sparse ``table``; orders below 1 are refused,
    as ``NPointEngine.connected`` refuses them."""
    if j < 1:
        raise InvalidKeyError(f"orders must be >= 1: {(j,)}")
    s = j - 1
    if s > kernel.cutoff:
        raise InsufficientCutoffError(
            f"one-point order {j} beyond kernel cutoff {kernel.cutoff}")
    return sum((kernel.table.get((m, s - m), 0) for m in range(j)), Rat(0))


def _scale_base(table) -> int:
    """The base D that turns every term (p, q, c) of both edge tables into
    the integer c * D^(-(p+q)), from the kernel table {(m, n): c}.

    A kernel term sits at exponent e = -(p+q) = m + n + 2; a Cauchy term,
    +-1, needs nothing.  A trial prime p enters D to the power
    max ceil(v_p(d) / e) over the denominators d at each e, the least that
    lets D^e clear p from each; a cofactor left after the trial primes is
    folded into D whole.  The d at one e are merged by lcm into L_e first,
    so at most 2 cutoff + 1 numbers are factored, and D is the same:
    v_p(L_e) = max v_p(d), ceil(v / e) grows with v, and stripping the trial
    primes commutes with lcm.
    """
    merged: dict[int, int] = {}
    for (m, n), c in table.items():
        merged[m + n + 2] = math.lcm(merged.get(m + n + 2, 1), c.denominator)
    powers: dict[int, int] = {}
    cofactor = 1
    for exponent, den in merged.items():
        for prime in _TRIAL_PRIMES:
            k = 0
            while den % prime == 0:
                den //= prime
                k += 1
            if k:
                powers[prime] = max(powers.get(prime, 0), -(-k // exponent))
        cofactor = math.lcm(cofactor, den)
    return cofactor * math.prod(prime ** k for prime, k in powers.items())


def _scaled_tables(kernel, base: int) -> tuple[dict, dict]:
    """The terms of one off-diagonal factor, keyed by the first exponent,
    with each term (p, q, c) multiplied by base^(-(p+q)): the ascending
    table, whose first argument has the smaller point label, and the
    descending one.  The label order fixes the expansion region of the
    Cauchy part.  One sorted pass over ``kernel.table`` gives the kernel
    terms both share, then come the Cauchy terms +-base.

    The Cauchy terms stop at k = cutoff - 1, which is exact for orders
    j >= 1.  A Cauchy term puts +k at one point, so the other factor at that
    point carries -j-1-k.  A kernel term there has index j + k <= cutoff.
    A Cauchy term there carries -1-(j+k), so it puts +(j+k) at its other
    point.  So k grows along a chain of Cauchy terms, and the chain ends in
    a kernel term: an all-Cauchy cycle would carry total exponent -n, not
    -(sum(j) + n).  Hence k <= cutoff - 1, and one term fewer changes
    values.

    Along a contributing n-cycle the exponents sum to -(sum(js) + n), so the
    product of the scales is base^(sum(js) + n) for every term of the cycle
    sum.  Raises CrossCheckError when a scaled term is not an integer.
    """
    lt: dict[int, list[tuple[int, int]]] = {}
    gt: dict[int, list[tuple[int, int]]] = {}
    for (m, n), c in sorted(kernel.table.items()):
        if c != 0:
            k = m + n + 2
            value, rest = divmod(c.numerator * base ** k, c.denominator)
            if rest:
                raise CrossCheckError(
                    f"edge term ({-m - 1}, {-n - 1}) = {c} is not integral "
                    f"at scale {base}^{k}")
            lt.setdefault(-m - 1, []).append((-n - 1, value))
            gt.setdefault(-m - 1, []).append((-n - 1, value))
    for k in range(kernel.cutoff):
        lt.setdefault(-1 - k, []).append((k, base))
        gt.setdefault(k, []).append((-1 - k, -base))
    return lt, gt


def _cycle_sum(js: tuple[int, ...], lt_table, gt_table) -> int:
    """Sum over all n-cycles of the transfer-chain contraction, times the
    cycle sign (-1)^(n-1), on scaled integer edge tables.  DP over (visited
    set, last vertex) merges the shared prefixes of the (n-1)! cycles, one
    visited-set size at a time: each step pops the current layer's states,
    grouped by visited set, as it reads them, so at most two layers are
    alive.  The terms an edge leaves at its head depend only on the state
    it leaves and on whether it ascends, so each state is expanded at most
    once per direction.  Requires n >= 2.

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
    # the two exponents meeting at vertex i sum to sums[i]
    sums = [-j - 1 for j in js]

    def expand(pending: dict[int, int], shift: int, table) -> dict[int, int]:
        # an edge's terms at its head, on `table`, from a tail with sum `shift`
        out: dict[int, int] = {}
        for q, acc in pending.items():
            for q2, c in table.get(shift - q, ()):
                out[q2] = out.get(q2, 0) + acc * c
        return out

    total = 0
    for p0 in range(-js[0], 0):
        # the closing edge must leave `want` at vertex 0
        want = sums[0] - p0
        # the seeds share the first edge's expansion (0 -> v ascends) read-only
        first = expand({want: 1}, sums[0], lt_table)
        layer = {1 | (1 << v): {v: first} for v in range(1, n)}
        for _ in range(n - 2):
            fresh: dict[int, dict[int, dict[int, int]]] = {}
            while layer:
                mask, lasts = layer.popitem()
                expanded: dict[tuple[int, bool], dict[int, int]] = {}
                for nxt in range(1, n):
                    if mask >> nxt & 1:
                        continue
                    bucket = None
                    for last, pending in lasts.items():
                        up = last < nxt
                        terms = expanded.get((last, up))
                        if terms is None:
                            terms = expanded[last, up] = expand(
                                pending, sums[last],
                                lt_table if up else gt_table)
                        if bucket is None:
                            # a copy: other heads of the group read `terms`
                            bucket = dict(terms)
                            continue
                        for q, acc in terms.items():
                            bucket[q] = bucket.get(q, 0) + acc
                    if bucket:
                        fresh.setdefault(mask | 1 << nxt, {})[nxt] = bucket
            layer = fresh
        # every closing edge (last -> 0) descends
        for lasts in layer.values():
            for last, pending in lasts.items():
                shift = sums[last]
                for q, acc in pending.items():
                    for q2, c in gt_table.get(shift - q, ()):
                        if q2 == want:
                            total += acc * c
    return -total if n % 2 == 0 else total


class NPointEngine:
    """Cycle-sum evaluator bound to a kernel family.

    ``kernel_factory(cutoff)`` must return a table object exposing
    ``cutoff`` and the sparse ``table`` {(m, n): value} within that cutoff.
    The tables of one factory must agree on the entries they share across
    cutoffs: only then is a value at the reach the value at every larger
    cutoff.  A kernel and its scaled edge tables are built once per cutoff
    and kept, so an engine at or above the reach of every key it answers
    builds one kernel and one pair of edge tables.
    """

    def __init__(self, kernel_factory: Callable[[int], object], cutoff: int):
        self.factory = kernel_factory
        self.cutoff = cutoff
        self._kernels: dict[int, object] = {}
        self._tables: dict[int, tuple[dict, dict, int]] = {}
        self._cache: dict[tuple[int, ...], Rat] = {}

    def kernel(self, cutoff: int | None = None):
        m = self.cutoff if cutoff is None else cutoff
        if m not in self._kernels:
            self._kernels[m] = self.factory(m)
        return self._kernels[m]

    def _table(self, cutoff: int):
        """Ascending and descending edge tables scaled to integers, and
        their common scaling base."""
        if cutoff not in self._tables:
            kernel = self.kernel(cutoff)
            base = _scale_base(kernel.table)
            self._tables[cutoff] = (*_scaled_tables(kernel, base), base)
        return self._tables[cutoff]

    def connected_at(self, js: tuple[int, ...], cutoff: int) -> Rat:
        """Uncertified coefficient at one kernel cutoff."""
        if not js:
            raise InvalidKeyError("empty order tuple")
        if any(j < 1 for j in js):
            raise InvalidKeyError(f"orders must be >= 1: {js}")
        if len(js) == 1:
            return antidiagonal_sum(self.kernel(cutoff), js[0])
        lt, gt, base = self._table(cutoff)
        return Rat(_cycle_sum(tuple(js), lt, gt),
                   base ** (sum(js) + len(js)))

    def certified_cutoff(self, js: tuple[int, ...]) -> int:
        """The kernel cutoff a coefficient is certified at: cutoff + 3, and
        at least the reach sum(js) - 1.  The reported value is proved equal
        to the value there: by the reach when the engine's cutoff is at or
        above it, and by recomputing there when it is below."""
        return max(self.cutoff + GROWTH, sum(js) - 1)

    def connected(self, js: Iterable[int]) -> Rat:
        """Certified coefficient of the connected n-point generating
        function at xi_i^(-j_i-1).  Only a multi-point key below its reach
        is recomputed, at ``certified_cutoff``."""
        js = tuple(int(j) for j in js)
        if js in self._cache:
            return self._cache[js]
        value = self.connected_at(js, self.cutoff)
        if len(js) > 1 and self.cutoff < sum(js) - 1:
            grown = self.connected_at(js, self.certified_cutoff(js))
            if grown != value:
                raise InsufficientCutoffError(
                    f"coefficient at {js} unstable under cutoff growth "
                    f"({value} -> {grown}); increase the kernel cutoff")
        self._cache[js] = value
        return value


# ---------------------------------------------------------------------------
# Intersection numbers.
# ---------------------------------------------------------------------------

def genus_of(ms: tuple[int, ...]) -> int | None:
    """The genus forced by sum(m_i) = 3g - 3 + n, or None if no valid g.

    Every returned (g, n) is stable, 2g - 2 + n > 0: g >= 1 with n >= 1
    is, and g = 0 needs sum(m_i) = n - 3 >= 0, so n >= 3."""
    n = len(ms)
    if n < 1 or any(m < 0 for m in ms):
        return None
    total = sum(ms) - n + 3
    if total < 0 or total % 3 != 0:
        return None
    return total // 3


def intersection_number(engine: NPointEngine, ms: Iterable[int]) -> Rat:
    """The psi-class correlator with the given exponent multiset; 0 when the
    selection rule admits no genus."""
    ms = tuple(sorted(int(m) for m in ms))
    if genus_of(ms) is None:
        return Rat(0)
    js = tuple(2 * m + 1 for m in ms)
    return engine.connected(js) / math.prod(double_factorial(j) for j in js)


def genus0_check(engine: NPointEngine, n: int) -> bool:
    """Genus-zero n-point values equal the multinomial coefficients of
    (x_1 + ... + x_n)^(n-3)."""
    if n < 3:
        raise InvalidKeyError("genus-zero check needs n >= 3")
    target = n - 3
    for p in partitions_of(target):
        ms = p.parts + (0,) * (n - p.length)
        expected = math.factorial(target) // math.prod(map(math.factorial, ms))
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
    rest = list(ms[1:])  # sorted, so ms[0] is a zero
    lhs = intersection_number(engine, ms)
    rhs = Rat(0)
    for i, m in enumerate(rest):
        if m >= 1:
            lowered = rest[:i] + [m - 1] + rest[i + 1:]
            rhs += intersection_number(engine, lowered)
    return lhs == rhs


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
        # a key is a partition of its sum padded with zeros, by sum and then
        # reverse-lexicographic; the selection rule needs sum = n (mod 3)
        for s in range(n % 3, budget + 1, 3):
            for p in partitions_of(s):
                ms = p.parts + (0,) * (n - p.length)
                if len(ms) == n and ms[0] <= top and genus_of(ms) is not None:
                    yield ms


def free_energy(engine: NPointEngine, weight_cap: int,
                index_cap: int | None = None,
                degree_cap: int | None = None) -> MultiPoly:
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
            value = engine.connected(js)
        except InsufficientCutoffError as exc:
            raise InsufficientCutoffError(
                f"free energy needs key {ms} beyond reach: {exc}") from exc
        if value == 0:
            continue
        counts = Counter(js)
        value /= math.prod(map(math.factorial, counts.values()))
        terms[tuple(sorted(counts.items()))] = value
    return MultiPoly(terms, degree_cap=degree_cap, weight_cap=weight_cap)
