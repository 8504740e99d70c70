"""Wave-function layer: shifted-tau quotients, Wronskian pairings, the
differential Fay identity, and the 2x2 matrix cross-check for the
2-reduced (KdV) case.

Everything here comes from one operation, the Miwa shift
T_n -> T_n + sign * s^n / n (``shifted_tau``).  The wave function is
exp(sum T_n xi^n) tau(T - [1/xi]) / tau(T) with s = 1/xi, and the Fay
identities compare products of tau(T +- [s1] +- [s2]).  Both live in one
graded container, ``WaveSeries``: polynomial cells in the time variables
keyed by shift depths (k_1, ..., k_r), the coefficient of
s_1^k_1 ... s_r^k_r.  A wave series has one shift variable and also carries
the exponential prefactor exp(tag * sum T_n xi^n), which is only ever
tracked symbolically (tags add under products, and x- and
xi-derivatives act on it by the product rule); expanding it would create
unbounded positive powers of xi.

Reliability bookkeeping rides on the total-weight grading
TW(cell) = weight(monomial) + sum(depths): a tau truncation that is complete
through weight W determines every cell with TW <= W exactly, TW adds under
multiplication, and each derivative shifts it by one.  Every object carries
its TW cap and stores nothing beyond it.  Products truncate at the
destination cell's cap while they multiply: a monomial pair whose weights
already exceed it is never multiplied, which gives exactly the cells of the
full product pruned at the cap.

The matrix checks read the 2x2 bilinear matrix only at T = 0; those four
series are built once per tau (``TruncatedTau.theta_at_zero``) and shared
by every one- and two-point query on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from .errors import InsufficientCutoffError, InvalidKeyError
from .multipoly import (MONO_ONE, Monomial, MultiPoly, mono_mul,
                        mono_weight)
from .rational import Rat
from .series import Laurent2, Series1, geometric_inv_diff_squares_sq

INF = 10 ** 9


def _cap_add(cap: int, delta: int) -> int:
    return INF if cap >= INF else cap + delta


def _capped_mul(p: MultiPoly, q: MultiPoly, cap: int) -> MultiPoly:
    """p * q keeping only the monomials of weight <= cap (all of them when
    cap is INF), ignoring the operands' own caps.

    Inside the wave layer the honest truncation bound of a product cell is
    set by the destination (exponent-dependent) rule, which can exceed the
    operands' own weight caps, so the caller passes the destination cell's
    cap.  Weight adds under products: once a pair's weights exceed the cap
    no later pair of the weight-sorted right factor can fit, so the result
    equals the full product pruned at the cap.
    """
    right = sorted(((mono_weight(m), m, c) for m, c in q.terms.items()),
                   key=lambda t: t[0])
    out: dict[Monomial, Rat] = {}
    for m1, c1 in p.terms.items():
        room = cap - mono_weight(m1)
        for w2, m2, c2 in right:
            if w2 > room:
                break
            key = mono_mul(m1, m2)
            out[key] = out.get(key, Rat(0)) + c1 * c2
    return MultiPoly(out)


# ---------------------------------------------------------------------------
# Truncated tau-functions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedTau:
    """exp(free energy) truncated by total weight, plus provenance.

    ``weight_cap`` is the completeness guarantee: every tau monomial of
    weight <= weight_cap is present and exact.  ``index_cap`` bounds the
    time indices that occur (odd only for the 2-reduced hierarchy).
    """

    poly: MultiPoly
    free_energy: MultiPoly
    weight_cap: int
    index_cap: int
    provenance: str = ""

    def __post_init__(self):
        if self.poly.constant != 1:
            raise InvalidKeyError("tau must have constant term 1")

    def is_kdv(self) -> bool:
        return all(idx % 2 == 1 for idx in self.poly.indices())

    @cached_property
    def theta_at_zero(self) -> tuple[tuple[Series1, ...], ...]:
        """The entries of ``bilinear_matrix(self)`` at T = 0, as series in
        z; built on first use and kept on this instance.  A failed build
        (a non-2-reduced tau) raises and caches nothing."""
        return tuple(tuple(entry.eval_zero("z") for entry in row)
                     for row in bilinear_matrix(self))


def tau_from_free_energy(free_energy: MultiPoly, weight_cap: int,
                         index_cap: int | None = None,
                         provenance: str = "") -> TruncatedTau:
    poly = free_energy.with_caps(weight_cap=weight_cap).exp()
    cap = index_cap if index_cap is not None else weight_cap
    return TruncatedTau(poly, free_energy, weight_cap, cap, provenance)


def padded_weight_cap(weight_cap: int) -> int:
    """Completeness bonus of the mod-3 weight grading: every monomial weight
    is a multiple of 3, so a truncation complete through a multiple of 3 is
    complete through the next multiple minus one."""
    return 3 * (weight_cap // 3) + 2


def reliable_weight_cap(degree_cap: int | None = None,
                        index_cap: int | None = None) -> int | None:
    """Largest weight through which a degree/index-capped truncation of the
    2-reduced tau is complete.

    A degree cap D first omits the pure T_1-block monomial of degree
    3*ceil((D+1)/3); an index cap J first omits the cheapest valid key
    using an index beyond J.
    """
    bounds = []
    if degree_cap is not None:
        bounds.append(3 * -(-(degree_cap + 1) // 3) - 1)
    if index_cap is not None:
        bounds.append(_min_weight_beyond_index(index_cap) - 1)
    return min(bounds) if bounds else None


def _min_weight_beyond_index(index_cap: int) -> int:
    from .npoint import genus_of

    best = None
    start = index_cap + 1 if index_cap % 2 == 0 else index_cap + 2
    for idx in range(start, index_cap + 13, 2):
        m0 = (idx - 1) // 2
        for extras in _small_multisets(m0):
            key = tuple(sorted((m0,) + extras))
            if genus_of(key) is not None:
                weight = sum(2 * m + 1 for m in key)
                if best is None or weight < best:
                    best = weight
    if best is None:
        raise InsufficientCutoffError("no valid key beyond the index cap")
    return best


def _small_multisets(cap: int):
    yield ()
    for a in range(3):
        yield (a,)
        for b in range(a, 3):
            yield (a, b)


# ---------------------------------------------------------------------------
# Graded cells and the Miwa shift.
# ---------------------------------------------------------------------------

Key = tuple[int, ...]


def _accumulate(out: dict[Key, MultiPoly], key: Key, poly: MultiPoly) -> None:
    out[key] = out[key] + poly if key in out else poly


class WaveSeries:
    """Polynomial cells in T keyed by shift depths (k_1, ..., k_r), read as
    the coefficient of s_1^k_1 ... s_r^k_r, with the TW cap and floor.

    TW(cell) = weight(monomial) + sum(key).  A wave series has one shift
    variable s = 1/xi (depth k is the xi^(-k) cell) and carries the
    exponential prefactor exp(tag * sum T_n xi^n); a shift expansion of tau
    has tag 0.
    """

    __slots__ = ("tag", "cells", "cap", "twmin", "index_cap")

    def __init__(self, tag: int, cells: dict[Key, MultiPoly], cap: int,
                 twmin: int, index_cap: int):
        self.tag = tag
        self.cap = cap
        self.twmin = twmin
        self.index_cap = index_cap
        clean: dict[Key, MultiPoly] = {}
        for key, poly in cells.items():
            kept = poly if cap >= INF else poly.with_caps(
                weight_cap=cap - sum(key))
            if not kept.is_zero():
                clean[key] = kept
        self.cells = clean

    @classmethod
    def const(cls, value, index_cap: int) -> WaveSeries:
        poly = MultiPoly.const(value)
        return cls(0, {(0,): poly} if value != 0 else {}, INF, 0, index_cap)

    def __add__(self, other: WaveSeries) -> WaveSeries:
        if self.tag != other.tag:
            raise InvalidKeyError(
                f"cannot add prefactor tags {self.tag} and {other.tag}")
        out = dict(self.cells)
        for key, poly in other.cells.items():
            _accumulate(out, key, poly)
        return WaveSeries(self.tag, out, min(self.cap, other.cap),
                          min(self.twmin, other.twmin),
                          min(self.index_cap, other.index_cap))

    def __sub__(self, other: WaveSeries) -> WaveSeries:
        return self + other.scale(-1)

    def scale(self, factor) -> WaveSeries:
        return WaveSeries(self.tag,
                          {k: p.scale(factor) for k, p in self.cells.items()},
                          self.cap, self.twmin, self.index_cap)

    def __mul__(self, other: WaveSeries) -> WaveSeries:
        cap = min(_cap_add(self.cap, other.twmin),
                  _cap_add(other.cap, self.twmin))
        out: dict[Key, MultiPoly] = {}
        for k1, p in self.cells.items():
            for k2, q in other.cells.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                room = _cap_add(cap, -sum(key))
                if room >= 0:
                    _accumulate(out, key, _capped_mul(p, q, room))
        return WaveSeries(self.tag + other.tag, out, cap,
                          self.twmin + other.twmin,
                          min(self.index_cap, other.index_cap))

    def shift(self, *deltas: int) -> WaveSeries:
        """Multiply by s_1^d_1 ... s_r^d_r; on a wave series shift(-k)
        multiplies by xi^k."""
        total = sum(deltas)
        return WaveSeries(self.tag,
                          {tuple(k + d for k, d in zip(key, deltas)): p
                           for key, p in self.cells.items()},
                          _cap_add(self.cap, total), self.twmin + total,
                          self.index_cap)

    def dx(self) -> WaveSeries:
        """d/dx with x identified with T_1, acting on the prefactor too
        (tag * xi lowers the first depth by one)."""
        out: dict[Key, MultiPoly] = {}
        for key, p in self.cells.items():
            d = MultiPoly(p.deriv(1).terms)
            if not d.is_zero():
                _accumulate(out, key, d)
            if self.tag != 0:
                _accumulate(out, (key[0] - 1,) + key[1:],
                            MultiPoly(p.terms).scale(self.tag))
        return WaveSeries(self.tag, out, _cap_add(self.cap, -1),
                          self.twmin - 1, self.index_cap)

    def dxi(self) -> WaveSeries:
        """d/dxi of a wave series: term-wise on xi^(-k) plus the prefactor
        divergence tag * sum n T_n xi^(n-1) (odd n up to the index cap)."""
        out: dict[Key, MultiPoly] = {}
        for (k,), p in self.cells.items():
            if k != 0:
                _accumulate(out, (k + 1,), MultiPoly(p.terms).scale(-k))
            if self.tag != 0:
                for n in range(1, self.index_cap + 1, 2):
                    term = _capped_mul(p, MultiPoly.var(n),
                                       _cap_add(self.cap, n - k))
                    if not term.is_zero():
                        _accumulate(out, (k - n + 1,),
                                    term.scale(n * self.tag))
        return WaveSeries(self.tag, out, _cap_add(self.cap, 1),
                          self.twmin + 1, self.index_cap)

    def eval_zero(self, var: str = "xi") -> Series1:
        """Set all T to zero in a wave series; the reliability order equals
        the TW cap."""
        coeffs = {-k: p.constant for (k,), p in self.cells.items()}
        order = None if self.cap >= INF else self.cap
        return Series1(var, coeffs, order)

    def agrees_with(self, other: WaveSeries,
                    depth: Key | None = None) -> bool:
        """Equal tags and equal cells within both TW caps, skipping keys
        deeper than ``depth`` in any shift variable."""
        if self.tag != other.tag:
            return False
        cap = min(self.cap, other.cap)
        zero = MultiPoly.zero()
        for key in set(self.cells) | set(other.cells):
            if depth is not None and any(k > d for k, d in zip(key, depth)):
                continue
            p = self.cells.get(key, zero)
            q = other.cells.get(key, zero)
            room = cap - sum(key)
            for mono in set(p.terms) | set(q.terms):
                if mono_weight(mono) > room:
                    continue
                if p.terms.get(mono, Rat(0)) != q.terms.get(mono, Rat(0)):
                    return False
        return True

    def __repr__(self) -> str:
        head = {1: "exp(+S)*", -1: "exp(-S)*", 0: ""}.get(
            self.tag, f"exp({self.tag}S)*")
        bits = [f"s^{key}*[{p!r}]" for key, p in sorted(self.cells.items())]
        return head + (" + ".join(bits) or "0") + f"  [TW<={self.cap}]"


def shifted_tau(tau: TruncatedTau, signs: Key) -> WaveSeries:
    """tau(T + sign_1 [s_1] + ... + sign_r [s_r]), the Miwa shift
    T_n -> T_n + sum_v sign_v s_v^n / n expanded in the shift variables; a
    sign of 0 omits that shift."""
    origin = (0,) * len(signs)
    out: dict[Key, dict[Monomial, Rat]] = {}
    for mono, c in tau.poly.terms.items():
        parts: list[tuple[Key, Monomial, Rat]] = [(origin, MONO_ONE, c)]
        for idx, e in mono:
            # (T_idx + sum_v sign_v s_v^idx / idx)^e, one variable at a time:
            # (key, power left on T_idx, coefficient)
            factor: list[tuple[Key, int, Rat]] = [(origin, e, Rat(1))]
            for v, sign in enumerate(signs):
                if sign == 0:
                    continue
                step = Rat(sign, idx)
                factor = [(key[:v] + (key[v] + idx * i,) + key[v + 1:],
                           left - i, cf * math.comb(left, i) * step ** i)
                          for key, left, cf in factor
                          for i in range(left + 1)]
            parts = [(tuple(a + b for a, b in zip(k0, key)),
                      m0 if left == 0 else mono_mul(m0, ((idx, left),)),
                      c0 * cf)
                     for k0, m0, c0 in parts for key, left, cf in factor]
        for key, m, cf in parts:
            bucket = out.setdefault(key, {})
            bucket[m] = bucket.get(m, Rat(0)) + cf
    cells = {key: MultiPoly(bucket, weight_cap=tau.weight_cap)
             for key, bucket in out.items()}
    return WaveSeries(0, cells, tau.weight_cap, 0, tau.index_cap)


# ---------------------------------------------------------------------------
# Sato quotients.
# ---------------------------------------------------------------------------

def wave(tau: TruncatedTau) -> WaveSeries:
    """exp(sum T_n xi^n) * tau(T - [1/xi]) / tau(T)."""
    return _sato_quotient(tau, -1, +1)


def dual_wave(tau: TruncatedTau) -> WaveSeries:
    """exp(-sum T_n xi^n) * tau(T + [1/xi]) / tau(T)."""
    return _sato_quotient(tau, +1, -1)


def _sato_quotient(tau: TruncatedTau, shift_dir: int, tag: int) -> WaveSeries:
    """The shift expansion with s = 1/xi times exp(tag * S) / tau(T)."""
    inverse = WaveSeries(tag, {(0,): tau.poly.inverse()}, tau.weight_cap, 0,
                         tau.index_cap)
    return shifted_tau(tau, (shift_dir,)) * inverse


def wronskian(p: WaveSeries, q: WaveSeries) -> WaveSeries:
    """p * dq/dx - dp/dx * q."""
    return p * q.dx() - p.dx() * q


# ---------------------------------------------------------------------------
# One-point identities.
# ---------------------------------------------------------------------------

def gradient_series(tau: TruncatedTau) -> WaveSeries:
    """sum_n xi^(-n-1) dF/dT_n as a prefactor-free wave object."""
    cells = {(n + 1,): tau.free_energy.deriv(n)
             for n in range(1, tau.index_cap + 1)}
    return WaveSeries(0, cells, tau.weight_cap + 1, 0, tau.index_cap)


def time_ladder(tau: TruncatedTau) -> WaveSeries:
    """sum_n n T_n xi^(n-1) over the tracked (odd) indices.

    The wave layer works in the ring of odd time variables throughout; even
    times never mix into odd-index cells under any operation used here, so
    restricting both sides of every identity to this ring is consistent.
    """
    cells = {(1 - n,): MultiPoly.var(n).scale(n)
             for n in range(1, tau.index_cap + 1, 2)}
    return WaveSeries(0, cells, INF, 1, tau.index_cap)


def one_point_expressions(tau: TruncatedTau) -> list[WaveSeries]:
    """The three equivalent wave-side expressions for the one-point
    gradient plus time ladder: through the two single-derivative Wronskian
    pairings and their average."""
    w = wave(tau)
    ws = dual_wave(tau)
    w_xi = w.dxi()
    ws_xi = ws.dxi()
    one = WaveSeries.const(1, tau.index_cap)
    left = wronskian(w_xi, ws)
    right = wronskian(w, ws_xi)
    expr_a = (left + one).scale(Rat(-1, 2)).shift(1)
    expr_b = (right + one).scale(Rat(1, 2)).shift(1)
    expr_c = (right - left).scale(Rat(1, 4)).shift(1)
    return [expr_a, expr_b, expr_c]


def theorem_one_point_check(tau: TruncatedTau) -> bool:
    """All wave-side expressions agree with the ladder-plus-gradient side,
    and with each other, within the shared reliable cells."""
    lhs = time_ladder(tau) + gradient_series(tau)
    exprs = one_point_expressions(tau)
    for expr in exprs:
        if not lhs.agrees_with(expr):
            return False
    return (exprs[0].agrees_with(exprs[1])
            and exprs[0].agrees_with(exprs[2]))


def wave_pairing_check(tau: TruncatedTau) -> bool:
    """The Wronskian of the wave pair at equal spectral points is -2 xi."""
    pair = wronskian(wave(tau), dual_wave(tau))
    target = WaveSeries(0, {(-1,): MultiPoly.const(-2)}, INF, -1,
                        tau.index_cap)
    return pair.agrees_with(target)


# ---------------------------------------------------------------------------
# Differential Fay identities in the shift variables.
# ---------------------------------------------------------------------------

def fay_sides(tau: TruncatedTau, signs: tuple[Key, Key, Key, Key]
              ) -> tuple[WaveSeries, WaveSeries]:
    """Both sides of s1 s2 {a, b} = (s1 - s2)(a b - c d), where a, b, c, d
    are ``shifted_tau(tau, sign)`` for the four sign pairs."""
    a, b, c, d = (shifted_tau(tau, sign) for sign in signs)
    lhs = (a * b.dx() - a.dx() * b).shift(1, 1)
    diff = a * b - c * d
    return lhs, diff.shift(1, 0) - diff.shift(0, 1)


def _fay_check(tau: TruncatedTau, bidegree: tuple[int, int],
               signs: tuple[Key, Key, Key, Key]) -> bool:
    lhs, rhs = fay_sides(tau, signs)
    depth = (bidegree[0] + 1, bidegree[1] + 1)
    if sum(depth) > lhs.cap:
        raise InsufficientCutoffError(
            f"tau weight cap {tau.weight_cap} cannot reach shift bidegree "
            f"{bidegree}")
    return lhs.agrees_with(rhs, depth)


DIFFERENTIAL_FAY = ((1, 0), (0, 1), (0, 0), (1, 1))
SHIFTED_FAY = ((1, -1), (0, 0), (1, 0), (0, -1))


def differential_fay_check(tau: TruncatedTau,
                           bidegree: tuple[int, int]) -> bool:
    """s1 s2 {tau(T+[s1]), tau(T+[s2])} = (s1 - s2)
    (tau(T+[s1]) tau(T+[s2]) - tau(T) tau(T+[s1]+[s2])), through the
    requested shift bidegree and the tau truncation's reliable cells."""
    return _fay_check(tau, bidegree, DIFFERENTIAL_FAY)


def shifted_fay_check(tau: TruncatedTau,
                      bidegree: tuple[int, int]) -> bool:
    """The mixed-shift version: s1 s2 {tau(T+[s1]-[s2]), tau(T)} =
    (s1 - s2)(tau(T+[s1]-[s2]) tau(T) - tau(T+[s1]) tau(T-[s2])).

    This is the two-positive-shift identity with T moved by -[s2]; the
    substitution puts the mixed-shift factor in the first Wronskian slot
    (quoting it with the slots swapped flips the sign of the left side).
    """
    return _fay_check(tau, bidegree, SHIFTED_FAY)


# ---------------------------------------------------------------------------
# The 2x2 matrix of wave bilinears (2-reduced case).
# ---------------------------------------------------------------------------

def bilinear_matrix(tau: TruncatedTau) -> list[list[WaveSeries]]:
    """[[-(w w*)_x/2, -w w*], [w_x w*_x, (w w*)_x/2]]; traceless by
    construction."""
    if not tau.is_kdv():
        raise InvalidKeyError(
            "the matrix cross-check applies to 2-reduced tau only "
            "(even time indices present)")
    w = wave(tau)
    ws = dual_wave(tau)
    product = w * ws
    product_x = product.dx()
    return [[product_x.scale(Rat(-1, 2)), product.scale(-1)],
            [w.dx() * ws.dx(), product_x.scale(Rat(1, 2))]]


def matrix_one_point_series(tau: TruncatedTau) -> Series1:
    """w w* - 1 at T = 0: the generating series of the mixed second
    derivatives d^2F/dx dT_n at the origin (read off the top-right entry)."""
    r = -tau.theta_at_zero[0][1]  # w w*
    return r.rename("xi") - Series1.const("xi", 1)


def matrix_two_point_coeff(tau: TruncatedTau, j: int, k: int) -> Rat:
    """Coefficient of z1^(-j-1) z2^(-k-1) in
    Tr(Theta(z1) Theta(z2)) / (z1^2 - z2^2)^2 at T = 0.

    The subtraction term of the pair correlator has no all-negative cells,
    so on these cells the trace form reproduces the second derivatives of
    the free energy directly.
    """
    entries = tau.theta_at_zero
    orders = [s.order for row in entries for s in row]
    if any(o is not None and o < j + k + 2 for o in orders):
        raise InsufficientCutoffError(
            f"tau weight cap {tau.weight_cap} too small for two-point "
            f"orders ({j},{k})")
    pair = ("z1", "z2")
    trace = Laurent2.zero(pair)
    for r in range(2):
        for c in range(2):
            trace = trace + Laurent2.outer(entries[r][c], entries[c][r],
                                           pair)
    kmax = (max(j, k) + 3) // 2 + 1
    product = trace.mul(geometric_inv_diff_squares_sq(pair, kmax),
                        xmin=-j - 2, ymin=-k - 2)
    return product.coeff(-j - 1, -k - 1)
