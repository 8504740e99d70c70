"""Wave-function layer: shifted-tau quotients, Wronskian pairings, the
differential Fay identity, and the 2x2 matrix cross-check for the
2-reduced (KdV) case.

Everything here comes from the Miwa shift T_n -> T_n + sign * s^n / n
(``shifted_tau``).  The wave function is exp(sum T_n xi^n) tau(T - [1/xi])
/ tau(T) with s = 1/xi, and the Fay identities compare products of
tau(T +- [s1] +- [s2]).  Both live in ``WaveSeries``: sparse terms, each the
coefficient of s_1^k_1 ... s_r^k_r times a monomial in the times.  A wave
series has one shift variable and carries the prefactor
exp(tag * sum T_n xi^n) symbolically (tags add under products, and the x-
and xi-derivatives act on it by the product rule); expanding it would
create unbounded positive powers of xi.

Reliability rides on the total weight TW(term) = weight(monomial) +
sum(depths): a tau complete through weight W determines every term with
TW <= W, TW adds under products, and each derivative shifts it by one.  A
series stores nothing beyond its TW cap, and a product never multiplies a
pair whose TW exceeds it, which gives exactly the full product pruned at
the cap.

A term is one int, its packed key: a MultiPoly key (``multipoly.py``) with
two depth fields k_1, k_2 (8 bits, biased by 2^7: -128..127) in place of
its weight, the exponents of T_1 .. T_32 at the same offsets, a guard bit
above each field, and TW from bit ``TW_SHIFT``.  A product's key is
k1 + k2 - BIAS (BIAS the depth biases), and keys sort by TW.  The exponent
fields keep the MultiPoly guard argument; in k1 + k2 - BIAS a w-bit depth
field holds s1 + s2 - 2^(w-1) in [-2^(w-1), 2^(w+1)), passing no guard bit,
and a value that does not fit sets its guard, directly or by borrowing from
the field above (which leaves at least 2^(w+1) - 2^(w-1) >= 2^w), so the
lowest field that does not fit shows its guard.  Shifts and derivatives add
a valid unit key (s^delta, s^-1 or s^(1-n) T_n) less BIAS or take one T_1
off.  A new series refuses a key with a guard bit set, and the constructor
and the shift expansion refuse a term that does not fit.  1/tau and dF/dT_n
take MultiPoly keys by one multiply-add per term (``_wave_num``).

Coefficients are integer numerators over one denominator: products multiply
both, sums go to the lcm, shifts and derivatives keep it, and the shift
expansion's denominator is proved in ``_shift_expansion``.  Each tau keeps
its wave pair and shift expansions (``TruncatedTau.wave_pair`` and
``shift_expansions``), shared by every check on it.

The matrix checks read the 2x2 bilinear matrix Theta only at T = 0, so it
is built there from tau and dtau/dT_1 at the Miwa points +-[1/z], with no
wave series, once per tau (``TruncatedTau.theta_at_zero``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .errors import InsufficientCutoffError, InvalidKeyError
from .multipoly import (_EBITS, _EMASK, _WMASK, MONO_ONE, Monomial,
                        MultiPoly, _eoff, _guards, _mono, mono_str, mono_var,
                        mono_weight)
from .rational import Rat, Ratios, format_rat, lowest_terms, over_lcm
from .series import Series1

INF = 10 ** 9


def _cap_add(cap: int, delta: int) -> int:
    return INF if cap >= INF else cap + delta


# ---------------------------------------------------------------------------
# Truncated tau-functions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedTau:
    """exp(free energy) truncated by total weight.

    ``weight_cap`` is the completeness guarantee: every tau monomial of
    weight <= weight_cap is present and exact.  ``index_cap`` bounds the
    time indices that occur (odd only for the 2-reduced hierarchy).
    """

    poly: MultiPoly
    free_energy: MultiPoly
    weight_cap: int
    index_cap: int

    def __post_init__(self):
        if self.poly.constant != 1:
            raise InvalidKeyError("tau must have constant term 1")

    def is_kdv(self) -> bool:
        return all(idx % 2 == 1 for idx in self.poly.indices())

    @cached_property
    def theta_at_zero(self) -> tuple[tuple[Series1, ...], ...]:
        """``bilinear_matrix(self)``, built on first use and kept on this
        instance.  A failed build (a non-2-reduced tau) raises and caches
        nothing."""
        return bilinear_matrix(self)

    @cached_property
    def wave_pair(self) -> tuple[WaveSeries, WaveSeries]:
        """(``wave(self)``, ``dual_wave(self)``), built together on first
        use, sharing 1/tau, and kept on this instance."""
        inverse = self.poly.inverse()
        return tuple(_sato_quotient(self, inverse, tag) for tag in (1, -1))

    @cached_property
    def shift_expansions(self) -> dict[Key, WaveSeries]:
        """``shifted_tau(self, signs)`` by signs, filled on first use of
        each and kept on this instance."""
        return {}


def tau_from_free_energy(free_energy: MultiPoly,
                         weight_cap: int) -> TruncatedTau:
    """exp(free energy) through ``weight_cap``, with the index cap
    ``weight_cap`` (no time index above the weight can occur)."""
    poly = free_energy.with_caps(weight_cap=weight_cap).exp()
    return TruncatedTau(poly, free_energy, weight_cap, weight_cap)


def padded_weight_cap(weight_cap: int) -> int:
    """Completeness bonus of the mod-3 weight grading: every monomial weight
    is a multiple of 3, so a truncation complete through a multiple of 3 is
    complete through the next multiple minus one."""
    return 3 * (weight_cap // 3) + 2


def reliable_weight_cap(degree_cap: int | None = None,
                        index_cap: int | None = None) -> int | None:
    """A weight through which the 2-reduced tau built from the free energy
    keys of at most ``degree_cap`` points and of indices at most
    ``index_cap`` (``npoint.free_energy``) is complete.

    Weights add under products, and every key, a monomial of F, has weight
    2 sum(m_i) + n = 0 (mod 3), as the selection rule makes sum(m_i) = n
    (mod 3).  So every monomial of tau or 1/tau = exp(-F) has weight = 0
    (mod 3), and degree <= weight.  Each bound is one less than a weight
    no monomial holding an omitted key falls below, so through it tau and
    1/tau are built from kept keys only.  What a truncation holds above
    its bound is never read: the wave layer reads nothing above a tau's
    ``weight_cap``.

    * Degree cap D.  A monomial holding an omitted key has degree > D, so
      weight >= D + 1, and being a multiple of 3, >= 3 ceil((D+1)/3).
      This need not be the least such weight (at D = 4 it is 9).
    * Index cap J.  A key holding some m_i = m has weight 2 s + n, with
      s = sum(m_i) >= m.  At s = m, n = m (mod 3) and n >= 1 give
      n >= (m - 1) % 3 + 1, and (m, 0, ..., 0) attains it; at s > m the
      weight is >= 2m + 3, no less.  So such a key weighs at least
      w(m) = 2m + (m - 1) % 3 + 1, and w steps by
      2 + m % 3 - (m - 1) % 3 >= 0 as m grows: the cheapest key holding an
      index 2m + 1 > J weighs w(m) at the least such m >= 0,
      max(0, (J + 1) // 2), and this bound is the largest.
    """
    bounds = []
    if degree_cap is not None:
        bounds.append(3 * -(-(degree_cap + 1) // 3) - 1)
    if index_cap is not None:
        m = max(0, (index_cap + 1) // 2)
        bounds.append(2 * m + (m - 1) % 3)
    return min(bounds) if bounds else None


# ---------------------------------------------------------------------------
# Graded terms and the Miwa shift.
# ---------------------------------------------------------------------------

Key = tuple[int, ...]
Term = tuple[Key, Monomial]

# Packed keys (module docstring): 2 depth fields, each with a guard bit
# above it, in the 18 bits where a MultiPoly key holds its weight, the
# exponent fields of T_1 .. T_32 where a MultiPoly key holds them, then TW.
_DBITS = 8
_DBIAS = 1 << (_DBITS - 1)
_DMASK = (1 << _DBITS) - 1
_DOFF = (0, _DBITS + 1)
_EOFF = {idx: _eoff(idx) for idx in range(1, 33)}
TW_SHIFT = _EOFF[32] + _EBITS + 1
_BIAS = sum(_DBIAS << off for off in _DOFF)
_GUARD = (1 << _DBITS) | _guards(32)  # the second depth guard is bit 17
_EXPONENTS = sum(_EMASK << off for off in _EOFF.values())
_LIFT = (1 << TW_SHIFT) - 1  # key + weight * _LIFT moves weight into TW
_FIELDS = (f"at most {len(_DOFF)} shift depths in [{-_DBIAS}, {_DBIAS - 1}],"
           f" time indices 1..{len(_EOFF)} with exponents 1..{_EMASK}")


def _pack(depths: Key, mono: Monomial) -> int:
    """The packed key of one term; refuses a term that does not fit."""
    if (len(depths) > len(_DOFF)
            or not all(-_DBIAS <= k < _DBIAS for k in depths)
            or not all(idx in _EOFF and 0 < e <= _EMASK for idx, e in mono)):
        raise InvalidKeyError(f"wave term s^{depths}*{mono_str(mono)} does "
                              f"not fit a packed key: {_FIELDS}")
    return (_BIAS + ((sum(depths) + mono_weight(mono)) << TW_SHIFT)
            + sum(k << off for k, off in zip(depths, _DOFF))
            + sum(e << _EOFF[idx] for idx, e in mono))


def _unpack(key: int, nvars: int) -> Term:
    return (tuple((key >> off & _DMASK) - _DBIAS for off in _DOFF[:nvars]),
            _mono(key & _EXPONENTS))


def _wave_num(poly: MultiPoly, cap: int) -> dict[int, int]:
    """poly's numerators by the wave keys of s^0 times its monomials of
    weight <= cap (module docstring); refuses an index above 32."""
    out = {}
    for key, n in poly.num.items():
        weight = key & _WMASK
        if weight <= cap:
            if key >> TW_SHIFT:
                _pack((0,), _mono(key))  # raises: T_33 or beyond
            out[_BIAS + key + weight * _LIFT] = n
    return out


def _within(num: dict[int, int], cap: int) -> dict[int, int]:
    """The terms with TW <= cap."""
    top = (cap + 1) << TW_SHIFT
    return num if cap >= INF else {key: n for key, n in num.items()
                                   if key < top}


# What adding to a key multiplies its term by: s^-1, s and T_1.
_SHALLOWER, _DEEPER, _T1 = (_pack(depths, mono) - _BIAS for depths, mono in
                            (((-1,), ()), ((1,), ()), ((), ((1, 1),))))


class WaveSeries(Ratios):
    """Sparse terms ``{(depths (k_1, ..., k_r), monomial): coefficient}``,
    read as the coefficient of s_1^k_1 ... s_r^k_r times the monomial in T,
    with the TW cap and floor; only the nonzero terms with TW <= cap are
    kept.  A wave series (one shift variable s = 1/xi, depth k a power
    xi^(-k)) carries the prefactor exp(tag * sum T_n xi^n); a shift
    expansion of tau has tag 0.  The coefficients are integer numerators
    ``num`` by packed key over one positive ``den``, in lowest terms;
    ``nvars`` is r.  The constructor takes rational terms and ``terms``
    reads them back; it packs every given term before the cap cuts, so a
    term that does not fit or a mix of shift variables is refused at any
    TW."""

    __slots__ = ("tag", "cap", "twmin", "nvars")

    def __init__(self, tag: int, terms: dict[Term, Rat], cap: int,
                 twmin: int):
        nvars = {len(key) for key, _ in terms} or {1}
        if len(nvars) > 1:
            raise InvalidKeyError(f"wave terms mix shift variables {nvars}")
        self._fill(*over_lcm({_pack(*term): c for term, c in terms.items()}),
                   tag, cap, twmin, nvars.pop())

    def _fill(self, num, den, tag, cap, twmin, nvars) -> None:
        """Refuses a key with a guard bit set; drops the terms with
        TW > cap."""
        if any(map(_GUARD.__and__, num)):
            raise InvalidKeyError(
                f"a wave term left its packed key fields: {_FIELDS}")
        self.tag, self.cap, self.twmin, self.nvars = tag, cap, twmin, nvars
        self.num, self.den = lowest_terms(_within(num, cap), den)

    def _like(self, num: dict[int, int], den: int, cap: int,
              twmin: int) -> WaveSeries:
        """A series with this tag and r."""
        return WaveSeries._of(num, den, self.tag, cap, twmin, self.nvars)

    @property
    def terms(self) -> dict[Term, Rat]:
        return {_unpack(key, self.nvars): Rat(n, self.den)
                for key, n in self.num.items()}

    @classmethod
    def const(cls, value) -> WaveSeries:
        return cls(0, {((0,), MONO_ONE): Rat(value)}, INF, 0)

    def _sum(self, other: WaveSeries) -> tuple[int, ...]:
        if self.tag != other.tag:
            raise InvalidKeyError(
                f"cannot add prefactor tags {self.tag} and {other.tag}")
        return (self.tag, min(self.cap, other.cap),
                min(self.twmin, other.twmin), max(self.nvars, other.nvars))

    def __mul__(self, other: WaveSeries) -> WaveSeries:
        """Keys add, and the right factor sorted by key is sorted by TW:
        a left term of TW t meets only the right keys below
        (cap - t + 1) << TW_SHIFT, which gives exactly the full product
        pruned at the cap."""
        if not isinstance(other, WaveSeries):
            return self.scale(other)
        cap = min(_cap_add(self.cap, other.twmin),
                  _cap_add(other.cap, self.twmin))
        right = sorted(other.num.items())
        keys = [key for key, _ in right]
        top = (cap + 1) << TW_SHIFT
        out: dict[int, int] = {}
        for k1, n1 in self.num.items():
            base = k1 - _BIAS
            stop = bisect_left(keys, top - (k1 >> TW_SHIFT << TW_SHIFT))
            for k2, n2 in right[:stop]:
                key = base + k2
                out[key] = out.get(key, 0) + n1 * n2
        return WaveSeries._of(out, self.den * other.den,
                              self.tag + other.tag, cap,
                              self.twmin + other.twmin,
                              max(self.nvars, other.nvars))

    def shift(self, *deltas: int) -> WaveSeries:
        """Multiply by s_1^d_1 ... s_r^d_r; on a wave series shift(-k)
        multiplies by xi^k."""
        total, unit = sum(deltas), _pack(deltas, MONO_ONE) - _BIAS
        return WaveSeries._of({key + unit: n for key, n in self.num.items()},
                              self.den, self.tag, _cap_add(self.cap, total),
                              self.twmin + total, max(self.nvars, len(deltas)))

    def dx(self) -> WaveSeries:
        """d/dx with x identified with T_1, acting on the prefactor too
        (tag * xi lowers the first depth by one)."""
        out = defaultdict(int)
        for key, n in self.num.items():
            e = key >> _EOFF[1] & _EMASK
            if e:
                out[key - _T1] += n * e
            if self.tag != 0:
                out[key + _SHALLOWER] += n * self.tag
        return self._like(out, self.den, _cap_add(self.cap, -1),
                          self.twmin - 1)

    def dxi(self, index_cap: int) -> WaveSeries:
        """d/dxi of a wave series: term-wise on xi^(-k) plus the prefactor
        divergence tag * sum n T_n xi^(n-1) (odd n up to the tau's
        ``index_cap``)."""
        ladder = ([(n * self.tag, _pack((1 - n,), mono_var(n)) - _BIAS)
                   for n in range(1, index_cap + 1, 2)]
                  if self.tag != 0 else [])
        out = defaultdict(int)
        for key, n in self.num.items():
            k = (key & _DMASK) - _DBIAS
            if k != 0:
                out[key + _DEEPER] -= n * k
            for factor, unit in ladder:
                out[key + unit] += n * factor
        return self._like(out, self.den, _cap_add(self.cap, 1),
                          self.twmin + 1)

    def eval_zero(self) -> Series1:
        """Set all T to zero in a wave series; the reliability order equals
        the TW cap."""
        return Series1._of({_DBIAS - (key & _DMASK): n
                            for key, n in self.num.items()
                            if not key & _EXPONENTS},
                           self.den, "xi",
                           None if self.cap >= INF else self.cap)

    def agrees_with(self, other: WaveSeries,
                    depth: Key | None = None) -> bool:
        """Equal tags and equal terms within both TW caps, skipping keys
        deeper than ``depth`` in any shift variable.  Coefficients are
        compared across the two denominators: n1 / d1 == n2 / d2 exactly
        when n1 * d2 == n2 * d1."""
        if self.tag != other.tag:
            return False
        top = (min(self.cap, other.cap) + 1) << TW_SHIFT
        keys = [key for key in self.num.keys() | other.num.keys()
                if key < top]
        for off, d in zip(_DOFF[:max(self.nvars, other.nvars)], depth or ()):
            keys = [key for key in keys if key >> off & _DMASK <= d + _DBIAS]
        d1, d2 = self.den, other.den
        return all(self.num.get(key, 0) * d2 == other.num.get(key, 0) * d1
                   for key in keys)

    def __repr__(self) -> str:
        head = {1: "exp(+S)*", -1: "exp(-S)*", 0: ""}.get(
            self.tag, f"exp({self.tag}S)*")
        bits = [f"s^{key}*({format_rat(c)})*{mono_str(mono)}"
                for (key, mono), c in sorted(self.terms.items())]
        return head + (" + ".join(bits) or "0") + f"  [TW<={self.cap}]"


def shifted_tau(tau: TruncatedTau, signs: Key) -> WaveSeries:
    """tau(T + sign_1 [s_1] + ... + sign_r [s_r]), the Miwa shift
    T_n -> T_n + sum_v sign_v s_v^n / n expanded in the shift variables; a
    sign of 0 omits that shift.  Built once per tau and signs and kept on
    the tau (``TruncatedTau.shift_expansions``)."""
    expansions = tau.shift_expansions
    if signs not in expansions:
        expansions[signs] = _shift_expansion(tau, signs)
    return expansions[signs]


def _shift_expansion(tau: TruncatedTau, signs: Key) -> WaveSeries:
    """The expansion behind ``shifted_tau``, on integers and packed keys.

    A monomial prod_idx T_idx^e_idx of weight w expands into terms
    prod_idx T_idx^left_idx * prod_v s_v^(sum_idx idx * i_idx,v), each of
    TW = w, since every factor s_v^idx / idx taken in place of a T_idx
    trades weight idx for depth idx.  So a term is kept exactly when its
    monomial has w <= W, the weight cap, and only those are expanded.  A
    term's depths lie in [0, W] and each exponent is at most the largest
    one of its index among the kept monomials, so once s^(W, ..., W) times
    the product of those largest powers packs, every term fits, and its key
    is a sum of nonnegative field values with no carry.

    The coefficient of such a term is c * (multinomial) * prod signs *
    prod_idx idx^(-t_idx), with t_idx = sum_v i_idx,v <= e_idx the number of
    shift factors taken from T_idx^e_idx.  As idx * e_idx <= w <= W,
    t_idx <= floor(W / idx), so prod_idx idx^t_idx divides
    L = prod_idx idx^floor(W / idx) over the indices of the kept monomials.
    With tau's coefficients c = N / D over its denominator D, every term is
    (N * L / prod_idx idx^t_idx) * (multinomial) * prod signs over D * L,
    and the division is exact.
    """
    cap = tau.weight_cap
    kept = [(key, n, _mono(key)) for key, n in tau.poly.num.items()
            if key & _WMASK <= cap]
    top: dict[int, int] = {}
    for _, _, mono in kept:
        for idx, e in mono:
            top[idx] = max(top.get(idx, 0), e)
    _pack((cap,) * len(signs), tuple(sorted(top.items())))
    scale = math.prod(idx ** (cap // idx) for idx in top)
    active = [(_DOFF[v], sign) for v, sign in enumerate(signs)
              if sign != 0]
    out = defaultdict(int)
    for key, n, mono in kept:
        # the wave key of the monomial at depths 0 (``_wave_num``)
        parts = [(_BIAS + key + (key & _WMASK) * _LIFT, n * scale)]
        for idx, e in mono:
            # (T_idx + sum_v sign_v s_v^idx / idx)^e, one variable at a time:
            # (change of the key, power left on T_idx, multinomial * signs)
            off = _EOFF[idx]
            factor = [(0, e, 1)]
            for depth_off, sign in active:
                factor = [(delta + (idx * i << depth_off) - (i << off),
                           left - i, cf * math.comb(left, i) * sign ** i)
                          for delta, left, cf in factor
                          for i in range(left + 1)]
            parts = [(k0 + delta, c0 * cf // idx ** (e - left))
                     for k0, c0 in parts for delta, left, cf in factor]
        for k0, c0 in parts:
            out[k0] += c0
    return WaveSeries._of(out, tau.poly.den * scale, 0, cap, 0, len(signs))


# ---------------------------------------------------------------------------
# Sato quotients.
# ---------------------------------------------------------------------------

def wave(tau: TruncatedTau) -> WaveSeries:
    """exp(sum T_n xi^n) * tau(T - [1/xi]) / tau(T)."""
    return tau.wave_pair[0]


def dual_wave(tau: TruncatedTau) -> WaveSeries:
    """exp(-sum T_n xi^n) * tau(T + [1/xi]) / tau(T)."""
    return tau.wave_pair[1]


def _sato_quotient(tau: TruncatedTau, inverse: MultiPoly,
                   tag: int) -> WaveSeries:
    """exp(tag * S) * tau(T - tag [1/xi]) / tau(T), with ``inverse`` the
    polynomial 1/tau(T)."""
    right = WaveSeries._of(_wave_num(inverse, tau.weight_cap), inverse.den,
                           tag, tau.weight_cap, 0, 1)
    return _shift_expansion(tau, (-tag,)) * right


def wronskian(p: WaveSeries, q: WaveSeries) -> WaveSeries:
    """p * dq/dx - dp/dx * q."""
    return p * q.dx() - p.dx() * q


# ---------------------------------------------------------------------------
# One-point identities.
# ---------------------------------------------------------------------------

def gradient_series(tau: TruncatedTau) -> WaveSeries:
    """sum_n xi^(-n-1) dF/dT_n as a prefactor-free wave object; a term of
    dF/dT_n of weight w has TW = w + n + 1."""
    derivs = [(n, tau.free_energy.deriv(n))
              for n in range(1, tau.index_cap + 1)]
    den = math.lcm(*(d.den for _, d in derivs))
    out = {}
    for n, d in derivs:
        depth, scale = (n + 1) * (1 + (1 << TW_SHIFT)), den // d.den
        for key, c in _wave_num(d, tau.weight_cap - n).items():
            out[key + depth] = c * scale
    return WaveSeries._of(out, den, 0, tau.weight_cap + 1, 0, 1)


def time_ladder(tau: TruncatedTau) -> WaveSeries:
    """sum_n n T_n xi^(n-1) over the tracked (odd) indices.

    The wave layer works in the ring of odd time variables throughout; even
    times never mix into odd-index terms under any operation used here, so
    restricting both sides of every identity to this ring is consistent.
    """
    terms = {((1 - n,), mono_var(n)): Rat(n)
             for n in range(1, tau.index_cap + 1, 2)}
    return WaveSeries(0, terms, INF, 1)


def one_point_expressions(tau: TruncatedTau) -> list[WaveSeries]:
    """The three equivalent wave-side expressions for the one-point
    gradient plus time ladder: through the two single-derivative Wronskian
    pairings and their average."""
    w = wave(tau)
    ws = dual_wave(tau)
    w_xi = w.dxi(tau.index_cap)
    ws_xi = ws.dxi(tau.index_cap)
    one = WaveSeries.const(1)
    left = wronskian(w_xi, ws)
    right = wronskian(w, ws_xi)
    expr_a = (left + one).scale(Rat(-1, 2)).shift(1)
    expr_b = (right + one).scale(Rat(1, 2)).shift(1)
    expr_c = (right - left).scale(Rat(1, 4)).shift(1)
    return [expr_a, expr_b, expr_c]


def theorem_one_point_check(tau: TruncatedTau) -> bool:
    """All wave-side expressions agree with the ladder-plus-gradient side,
    and with each other, within the shared reliable terms."""
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
    target = WaveSeries(0, {((-1,), MONO_ONE): Rat(-2)}, INF, -1)
    return pair.agrees_with(target)


# ---------------------------------------------------------------------------
# Differential Fay identities in the shift variables.
# ---------------------------------------------------------------------------

def fay_sides(tau: TruncatedTau, signs: tuple[Key, Key, Key, Key]
              ) -> tuple[WaveSeries, WaveSeries]:
    """Both sides of s1 s2 {a, b} = (s1 - s2)(a b - c d), where a, b, c, d
    are ``shifted_tau(tau, sign)`` for the four sign pairs."""
    a, b, c, d = (shifted_tau(tau, sign) for sign in signs)
    lhs = wronskian(a, b).shift(1, 1)
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
    requested shift bidegree and the tau truncation's reliable terms."""
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

def _at_miwa(poly: MultiPoly, sign: int, order: int) -> Series1:
    """poly at the Miwa point T_n = sign * z^(-n) / n: a weight-w monomial
    lands on z^(-w), and the series is exact through z^(-order).

    A kept monomial prod_idx T_idx^e has idx * e <= w <= order, so its
    prod_idx idx^e divides L = prod_idx idx^floor(order / idx) over the
    indices of the kept monomials, as in ``_shift_expansion``: the
    numerators sum on integers over poly.den * L."""
    kept = [(key & _WMASK, n, _mono(key)) for key, n in poly.num.items()
            if key & _WMASK <= order]
    scale = math.prod(idx ** (order // idx)
                      for idx in {idx for *_, mono in kept for idx, _ in mono})
    num = defaultdict(int)
    for weight, n, mono in kept:
        num[-weight] += n * sign ** sum(e for _, e in mono) \
            * (scale // math.prod(idx ** e for idx, e in mono))
    return Series1._of(num, poly.den * scale, "z", order)


def bilinear_matrix(tau: TruncatedTau) -> tuple[tuple[Series1, ...], ...]:
    """Theta(z) = [[-(w w*)_x/2, -w w*], [w_x w*_x, (w w*)_x/2]] at T = 0,
    as series in z; traceless by construction.

    With w = exp(S) a and w* = exp(-S) b, where a = tau(T - [1/z]) / tau(T)
    and b = tau(T + [1/z]) / tau(T), one x-derivative reaches T = 0 only
    from the monomials 1 and T_1 of a and b.  As tau(0) = 1, these are
    f0 = tau(sign [1/z]) and f1 = (dtau/dT_1)(sign [1/z]) - c1 f0, with
    sign -1 for a and +1 for b and c1 the T_1 coefficient of tau; the
    prefactor adds -sign z f0 to the x-derivative.  For a tau complete
    through weight W, f0 is exact through z^(-W) and f1 through z^(-W+1),
    so the entries have orders W - 1, W, W - 2 and W - 1: the TW caps of
    the T-dependent products.
    """
    if not tau.is_kdv():
        raise InvalidKeyError(
            "the matrix cross-check applies to 2-reduced tau only "
            "(even time indices present)")
    cap = tau.weight_cap
    slope = tau.poly.deriv(1)
    c1 = tau.poly.coeff(mono_var(1))

    def terms_at(sign):  # (f0, f1)
        f0 = _at_miwa(tau.poly, sign, cap)
        return f0, _at_miwa(slope, sign, cap - 1) - f0.scale(c1)

    a0, a1 = terms_at(-1)
    b0, b1 = terms_at(1)
    product = a0 * b0
    product_x = a1 * b0 + a0 * b1
    return ((product_x.scale(Rat(-1, 2)), -product),
            ((a0.shift(1) + a1) * (b1 - b0.shift(1)),
             product_x.scale(Rat(1, 2))))


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
    the free energy directly.  With 1/(z1^2 - z2^2)^2 = sum_t (t + 1)
    z1^(-4-2t) z2^(2t) in |z1| > |z2|, the coefficient is
    sum_t (t + 1) sum_(r,c) Theta_rc[3 - j + 2t] Theta_cr[-k - 1 - 2t];
    no entry has a term above z^2, so t stops at (j - 1) // 2.  The sum
    reads Theta no deeper than z^(-(j + k)), so with the smallest entry
    order W - 2 every pair with j + k <= W - 2 is served.  Orders below 1
    are refused, as ``NPointEngine.connected`` refuses them.
    """
    if j < 1 or k < 1:
        raise InvalidKeyError(f"orders must be >= 1: {(j, k)}")
    entries = tau.theta_at_zero
    orders = [s.order for row in entries for s in row]
    if any(o is not None and o < j + k for o in orders):
        raise InsufficientCutoffError(
            f"tau weight cap {tau.weight_cap} too small for two-point "
            f"orders ({j},{k})")
    return sum(((t + 1) * entries[r][c].get(3 - j + 2 * t)
                * entries[c][r].get(-k - 1 - 2 * t)
                for t in range((j + 1) // 2)
                for r in range(2) for c in range(2)), Rat(0))
