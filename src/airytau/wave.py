"""Wave-function layer: shifted-tau quotients, Wronskian pairings, the
differential Fay identity, and the 2x2 matrix cross-check for the
2-reduced (KdV) case.

A wave series is exp(tag * sum T_n xi^n) times a Laurent series in xi whose
coefficients are polynomials in the time variables.  The exponential
prefactor is only ever tracked symbolically (tags add under products, and
x- and xi-derivatives act on it by the product rule); expanding it would
create unbounded positive powers of xi.

Reliability bookkeeping rides on the total-weight grading
TW(cell) = weight(monomial) - exponent: a tau truncation that is complete
through weight W determines every wave cell with TW <= W exactly, TW adds
under multiplication, and each derivative shifts it by one.  Every wave
object carries its TW cap and stores nothing beyond it.  Products truncate
at the destination cell's cap while they multiply: a monomial pair whose
weights already exceed it is never multiplied, which gives exactly the
cells of the full product pruned at the cap.

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
# Wave series.
# ---------------------------------------------------------------------------

class WaveSeries:
    """Prefactor tag, xi-coefficient polynomials, and the TW cap."""

    __slots__ = ("tag", "coeffs", "cap", "twmin", "index_cap")

    def __init__(self, tag: int, coeffs: dict[int, MultiPoly], cap: int,
                 twmin: int, index_cap: int):
        self.tag = tag
        self.cap = cap
        self.twmin = twmin
        self.index_cap = index_cap
        clean: dict[int, MultiPoly] = {}
        for e, poly in coeffs.items():
            kept = poly if cap >= INF else poly.with_caps(
                weight_cap=cap + e)
            if not kept.is_zero():
                clean[e] = kept
        self.coeffs = clean

    @classmethod
    def const(cls, value, index_cap: int) -> WaveSeries:
        poly = MultiPoly.const(value)
        return cls(0, {0: poly} if value != 0 else {}, INF, 0, index_cap)

    def cells(self):
        for e in sorted(self.coeffs, reverse=True):
            for mono, c in self.coeffs[e].terms.items():
                yield e, mono, c

    def _merge_meta(self, other: WaveSeries) -> tuple[int, int, int]:
        return (min(self.cap, other.cap), min(self.twmin, other.twmin),
                min(self.index_cap, other.index_cap))

    def __add__(self, other: WaveSeries) -> WaveSeries:
        if self.tag != other.tag:
            raise InvalidKeyError(
                f"cannot add prefactor tags {self.tag} and {other.tag}")
        cap, twmin, jcap = self._merge_meta(other)
        out = {e: p for e, p in self.coeffs.items()}
        for e, p in other.coeffs.items():
            out[e] = out[e] + p if e in out else p
        return WaveSeries(self.tag, out, cap, twmin, jcap)

    def __sub__(self, other: WaveSeries) -> WaveSeries:
        return self + other.scale(-1)

    def scale(self, factor) -> WaveSeries:
        return WaveSeries(self.tag,
                          {e: p.scale(factor) for e, p in self.coeffs.items()},
                          self.cap, self.twmin, self.index_cap)

    def __mul__(self, other: WaveSeries) -> WaveSeries:
        cap = min(_cap_add(self.cap, other.twmin),
                  _cap_add(other.cap, self.twmin))
        jcap = min(self.index_cap, other.index_cap)
        out: dict[int, MultiPoly] = {}
        for e1, p1 in self.coeffs.items():
            for e2, p2 in other.coeffs.items():
                e = e1 + e2
                prod = _capped_mul(p1, p2, _cap_add(cap, e))
                out[e] = out[e] + prod if e in out else prod
        return WaveSeries(self.tag + other.tag, out, cap,
                          self.twmin + other.twmin, jcap)

    def shift_exp(self, k: int) -> WaveSeries:
        """Multiply by xi**k."""
        return WaveSeries(self.tag,
                          {e + k: p for e, p in self.coeffs.items()},
                          _cap_add(self.cap, -k), self.twmin - k,
                          self.index_cap)

    def dx(self) -> WaveSeries:
        """d/dx with x identified with T_1, acting on the prefactor too."""
        out: dict[int, MultiPoly] = {}
        for e, p in self.coeffs.items():
            d = MultiPoly({m: c for m, c in p.deriv(1).terms.items()})
            if not d.is_zero():
                out[e] = out[e] + d if e in out else d
            if self.tag != 0:
                shifted = MultiPoly(p.terms).scale(self.tag)
                key = e + 1
                out[key] = out[key] + shifted if key in out else shifted
        return WaveSeries(self.tag, out, _cap_add(self.cap, -1),
                          self.twmin - 1, self.index_cap)

    def dxi(self) -> WaveSeries:
        """d/dxi: term-wise on exponents plus the prefactor divergence
        tag * sum n T_n xi^(n-1) (odd n up to the index cap)."""
        out: dict[int, MultiPoly] = {}
        for e, p in self.coeffs.items():
            if e != 0:
                d = MultiPoly(p.terms).scale(e)
                key = e - 1
                out[key] = out[key] + d if key in out else d
            if self.tag != 0:
                for n in range(1, self.index_cap + 1, 2):
                    term = _capped_mul(p, MultiPoly.var(n),
                                       _cap_add(self.cap, e + n))
                    term = term.scale(n * self.tag)
                    if term.is_zero():
                        continue
                    key = e + n - 1
                    out[key] = out[key] + term if key in out else term
        return WaveSeries(self.tag, out, _cap_add(self.cap, 1),
                          self.twmin + 1, self.index_cap)

    def eval_zero(self, var: str = "xi") -> Series1:
        """Set all T to zero; the reliability order equals the TW cap."""
        coeffs = {e: p.constant for e, p in self.coeffs.items()}
        order = None if self.cap >= INF else self.cap
        return Series1(var, coeffs, order)

    def agrees_with(self, other: WaveSeries) -> bool:
        if self.tag != other.tag:
            return False
        cap = min(self.cap, other.cap)
        exps = set(self.coeffs) | set(other.coeffs)
        zero = MultiPoly.zero()
        for e in exps:
            p = self.coeffs.get(e, zero)
            q = other.coeffs.get(e, zero)
            for mono in set(p.terms) | set(q.terms):
                if mono_weight(mono) - e > cap:
                    continue
                if p.terms.get(mono, Rat(0)) != q.terms.get(mono, Rat(0)):
                    return False
        return True

    def __repr__(self) -> str:
        head = {1: "exp(+S)*", -1: "exp(-S)*", 0: ""}.get(
            self.tag, f"exp({self.tag}S)*")
        bits = [f"xi^{e}*[{p!r}]" for e, p in sorted(self.coeffs.items(),
                                                     reverse=True)]
        return head + (" + ".join(bits) or "0") + f"  [TW<={self.cap}]"


# ---------------------------------------------------------------------------
# Sato quotients.
# ---------------------------------------------------------------------------

def _shift_expansion(poly: MultiPoly, direction: int
                     ) -> dict[int, dict[Monomial, Rat]]:
    """Coefficients of xi^(-k) of poly(T + direction * [1/xi]), i.e. after
    T_n -> T_n + direction * xi^(-n)/n."""
    out: dict[int, dict[Monomial, Rat]] = {}
    for mono, c in poly.terms.items():
        parts: list[tuple[int, Monomial, Rat]] = [(0, MONO_ONE, Rat(1))]
        for idx, e in mono:
            step = Rat(direction, idx)
            new: list[tuple[int, Monomial, Rat]] = []
            for k0, m0, c0 in parts:
                power = Rat(1)
                for i in range(e + 1):
                    cc = c0 * math.comb(e, i) * power
                    mm = m0 if i == e else mono_mul(m0, ((idx, e - i),))
                    new.append((k0 + idx * i, mm, cc))
                    power *= step
            parts = new
        for k, m, cc in parts:
            bucket = out.setdefault(k, {})
            bucket[m] = bucket.get(m, Rat(0)) + cc * c
    return out


def wave(tau: TruncatedTau) -> WaveSeries:
    """exp(sum T_n xi^n) * tau(T - [1/xi]) / tau(T)."""
    return _sato_quotient(tau, -1, +1)


def dual_wave(tau: TruncatedTau) -> WaveSeries:
    """exp(-sum T_n xi^n) * tau(T + [1/xi]) / tau(T)."""
    return _sato_quotient(tau, +1, -1)


def _sato_quotient(tau: TruncatedTau, shift_dir: int, tag: int) -> WaveSeries:
    inv = tau.poly.inverse()
    shifted = _shift_expansion(tau.poly, shift_dir)
    coeffs: dict[int, MultiPoly] = {}
    for k, bucket in shifted.items():
        # the quotient lands in cell xi^(-k), whose TW rule keeps weight
        # <= weight_cap - k
        part = MultiPoly(bucket, weight_cap=tau.weight_cap - k)
        quotient = part.mul(inv)
        if not quotient.is_zero():
            coeffs[-k] = quotient
    return WaveSeries(tag, coeffs, tau.weight_cap, 0, tau.index_cap)


def wronskian(p: WaveSeries, q: WaveSeries) -> WaveSeries:
    """p * dq/dx - dp/dx * q."""
    return p * q.dx() - p.dx() * q


# ---------------------------------------------------------------------------
# One-point identities.
# ---------------------------------------------------------------------------

def gradient_series(tau: TruncatedTau) -> WaveSeries:
    """sum_n xi^(-n-1) dF/dT_n as a prefactor-free wave object."""
    coeffs: dict[int, MultiPoly] = {}
    for n in range(1, tau.index_cap + 1):
        d = tau.free_energy.deriv(n)
        if not d.is_zero():
            coeffs[-n - 1] = d
    return WaveSeries(0, coeffs, tau.weight_cap + 1, 0, tau.index_cap)


def time_ladder(tau: TruncatedTau) -> WaveSeries:
    """sum_n n T_n xi^(n-1) over the tracked (odd) indices.

    The wave layer works in the ring of odd time variables throughout; even
    times never mix into odd-index cells under any operation used here, so
    restricting both sides of every identity to this ring is consistent.
    """
    coeffs = {n - 1: MultiPoly.var(n).scale(n)
              for n in range(1, tau.index_cap + 1, 2)}
    return WaveSeries(0, coeffs, INF, 1, tau.index_cap)


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
    expr_a = (left + one).scale(Rat(-1, 2)).shift_exp(-1)
    expr_b = (right + one).scale(Rat(1, 2)).shift_exp(-1)
    expr_c = (right - left).scale(Rat(1, 4)).shift_exp(-1)
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
    target = WaveSeries(0, {1: MultiPoly.const(-2)}, INF, -1, tau.index_cap)
    return pair.agrees_with(target)


# ---------------------------------------------------------------------------
# Differential Fay identities in the shift variables.
# ---------------------------------------------------------------------------

class ShiftSeries2:
    """Bivariate expansion in two shift variables with polynomial cells.

    TW of a cell is k1 + k2 + weight(monomial); completeness through the cap
    follows from the tau truncation's weight-completeness exactly as for
    wave series.
    """

    __slots__ = ("cells", "cap", "twmin")

    def __init__(self, cells: dict[tuple[int, int], MultiPoly], cap: int,
                 twmin: int):
        self.cap = cap
        self.twmin = twmin
        clean: dict[tuple[int, int], MultiPoly] = {}
        for (k1, k2), poly in cells.items():
            kept = poly if cap >= INF else poly.with_caps(
                weight_cap=cap - k1 - k2)
            if not kept.is_zero():
                clean[(k1, k2)] = kept
        self.cells = clean

    def __add__(self, other: ShiftSeries2) -> ShiftSeries2:
        out = dict(self.cells)
        for key, poly in other.cells.items():
            out[key] = out[key] + poly if key in out else poly
        return ShiftSeries2(out, min(self.cap, other.cap),
                            min(self.twmin, other.twmin))

    def __sub__(self, other: ShiftSeries2) -> ShiftSeries2:
        return self + other.scale(-1)

    def scale(self, factor) -> ShiftSeries2:
        return ShiftSeries2({k: p.scale(factor)
                             for k, p in self.cells.items()},
                            self.cap, self.twmin)

    def __mul__(self, other: ShiftSeries2) -> ShiftSeries2:
        cap = min(_cap_add(self.cap, other.twmin),
                  _cap_add(other.cap, self.twmin))
        out: dict[tuple[int, int], MultiPoly] = {}
        for (a1, a2), p in self.cells.items():
            for (b1, b2), q in other.cells.items():
                key = (a1 + b1, a2 + b2)
                if cap < INF and key[0] + key[1] > cap:
                    continue
                prod = _capped_mul(p, q, _cap_add(cap, -key[0] - key[1]))
                out[key] = out[key] + prod if key in out else prod
        return ShiftSeries2(out, cap, self.twmin + other.twmin)

    def dx(self) -> ShiftSeries2:
        return ShiftSeries2({k: MultiPoly(p.deriv(1).terms)
                             for k, p in self.cells.items()},
                            _cap_add(self.cap, -1), self.twmin - 1)

    def shift_s(self, d1: int, d2: int) -> ShiftSeries2:
        return ShiftSeries2({(k1 + d1, k2 + d2): p
                             for (k1, k2), p in self.cells.items()},
                            _cap_add(self.cap, d1 + d2),
                            self.twmin + d1 + d2)

    def agrees_with(self, other: ShiftSeries2,
                    bidegree: tuple[int, int] | None = None) -> bool:
        cap = min(self.cap, other.cap)
        keys = set(self.cells) | set(other.cells)
        zero = MultiPoly.zero()
        for k1, k2 in keys:
            if bidegree is not None and (k1 > bidegree[0]
                                         or k2 > bidegree[1]):
                continue
            p = self.cells.get((k1, k2), zero)
            q = other.cells.get((k1, k2), zero)
            for mono in set(p.terms) | set(q.terms):
                if k1 + k2 + mono_weight(mono) > cap:
                    continue
                if p.terms.get(mono, Rat(0)) != q.terms.get(mono, Rat(0)):
                    return False
        return True

    def covers_bidegree(self, k1: int, k2: int) -> bool:
        return k1 + k2 <= self.cap


def shifted_tau(tau: TruncatedTau, sign1: int, sign2: int) -> ShiftSeries2:
    """tau(T + sign1 [s1] + sign2 [s2]) as a shift expansion; a sign of 0
    omits that shift."""
    out: dict[tuple[int, int], dict[Monomial, Rat]] = {}
    for mono, c in tau.poly.terms.items():
        parts: list[tuple[int, int, Monomial, Rat]] = [(0, 0, MONO_ONE,
                                                        Rat(1))]
        for idx, e in mono:
            new = []
            for k1, k2, m0, c0 in parts:
                for i in range(e + 1):
                    if sign1 == 0 and i > 0:
                        break
                    for j in range(e - i + 1):
                        if sign2 == 0 and j > 0:
                            break
                        cc = (c0 * _multinomial(e, i, j)
                              * Rat(sign1, idx) ** i * Rat(sign2, idx) ** j)
                        rest = e - i - j
                        mm = m0 if rest == 0 else mono_mul(m0, ((idx, rest),))
                        new.append((k1 + idx * i, k2 + idx * j, mm, cc))
            parts = new
        for k1, k2, m, cc in parts:
            bucket = out.setdefault((k1, k2), {})
            bucket[m] = bucket.get(m, Rat(0)) + cc * c
    cells = {key: MultiPoly(bucket, weight_cap=tau.weight_cap)
             for key, bucket in out.items()}
    return ShiftSeries2(cells, tau.weight_cap, 0)


def _multinomial(e: int, i: int, j: int) -> int:
    return math.comb(e, i) * math.comb(e - i, j)


def differential_fay_check(tau: TruncatedTau,
                           bidegree: tuple[int, int]) -> bool:
    """s1 s2 {tau(T+[s1]), tau(T+[s2])} = (s1 - s2)
    (tau(T+[s1]) tau(T+[s2]) - tau(T) tau(T+[s1]+[s2])), through the
    requested shift bidegree and the tau truncation's reliable cells."""
    a1 = shifted_tau(tau, 1, 0)
    a2 = shifted_tau(tau, 0, 1)
    a12 = shifted_tau(tau, 1, 1)
    base = shifted_tau(tau, 0, 0)
    lhs = (a1 * a2.dx() - a1.dx() * a2).shift_s(1, 1)
    diff = a1 * a2 - base * a12
    rhs = diff.shift_s(1, 0) - diff.shift_s(0, 1)
    if not lhs.covers_bidegree(bidegree[0] + 1, bidegree[1] + 1):
        raise InsufficientCutoffError(
            f"tau weight cap {tau.weight_cap} cannot reach shift bidegree "
            f"{bidegree}")
    return lhs.agrees_with(rhs, (bidegree[0] + 1, bidegree[1] + 1))


def shifted_fay_check(tau: TruncatedTau,
                      bidegree: tuple[int, int]) -> bool:
    """The mixed-shift version: s1 s2 {tau(T+[s1]-[s2]), tau(T)} =
    (s1 - s2)(tau(T+[s1]-[s2]) tau(T) - tau(T+[s1]) tau(T-[s2])).

    This is the two-positive-shift identity with T moved by -[s2]; the
    substitution puts the mixed-shift factor in the first Wronskian slot
    (quoting it with the slots swapped flips the sign of the left side).
    """
    base = shifted_tau(tau, 0, 0)
    mixed = shifted_tau(tau, 1, -1)
    plus1 = shifted_tau(tau, 1, 0)
    minus2 = shifted_tau(tau, 0, -1)
    lhs = (mixed * base.dx() - mixed.dx() * base).shift_s(1, 1)
    diff = mixed * base - plus1 * minus2
    rhs = diff.shift_s(1, 0) - diff.shift_s(0, 1)
    if not lhs.covers_bidegree(bidegree[0] + 1, bidegree[1] + 1):
        raise InsufficientCutoffError(
            f"tau weight cap {tau.weight_cap} cannot reach shift bidegree "
            f"{bidegree}")
    return lhs.agrees_with(rhs, (bidegree[0] + 1, bidegree[1] + 1))


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
