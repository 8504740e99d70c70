"""The Airy-point fermionic kernel and its independent construction routes.

The kernel is the table of affine coordinates of the Airy point of the big
cell.  ``entry(m, n)`` is the coefficient of x^(-m-1) y^(-n-1) in the
generating function

    A(x, y) = (a(-x) b(y) - a(y) b(-x)) / (x^2 - y^2) - 1/(x - y),

expanded in the region |x| > |y|, where a and b are the Airy asymptotic
series (constant-normalized and slope-normalized respectively).  Four routes
produce the same table:

* ``kernel_closed``   -- explicit three-case product formula;
* ``kernel_series``   -- direct expansion of the generating function;
* ``kernel_gmatrix``  -- 2x2 transition-matrix factorization through the
                         even/odd split of a and b;
* ``grassmann.normalize`` on the Airy frame (built here), transposed.

Entry-wise agreement of all routes is the package's central acceptance
check.  Entries vanish unless m + n = 2 (mod 3).

A documented ``alternating`` flag switches a, b to their sign-alternated
partners (the Faber-Zagier series c, q), the opposite time-scaling
convention; the closed-form route applies to the standard convention only.
"""

from __future__ import annotations

import math

from .errors import CrossCheckError, InsufficientCutoffError, InvalidKeyError
from .rational import Rat, double_factorial, format_rat, parse_rat
from .series import (Laurent2, Series1, geometric_inv_diff,
                     geometric_inv_diff_squares)

STANDARD = "standard"
ALTERNATING = "alternating"


# ---------------------------------------------------------------------------
# The Airy asymptotic series.
# ---------------------------------------------------------------------------

def _airy_term(m: int) -> Rat:
    return Rat(double_factorial(6 * m - 1),
               6 ** (2 * m) * math.factorial(2 * m))


def wave_series(order: int, alternating: bool = False,
                var: str = "z") -> Series1:
    """a(z) = sum_m (6m-1)!!/(6^(2m) (2m)!) z^(-3m), truncated at z^(-order).

    With ``alternating`` the signs alternate in m (the series c(z))."""
    if order < 0:
        raise InvalidKeyError("order must be >= 0")
    coeffs: dict[int, Rat] = {}
    m = 0
    while 3 * m <= order:
        c = _airy_term(m)
        if alternating and m % 2 == 1:
            c = -c
        coeffs[-3 * m] = c
        m += 1
    return Series1(var, coeffs, order)


def slope_series(order: int, alternating: bool = False,
                 var: str = "z") -> Series1:
    """b(z) = -sum_m (6m-1)!!/(6^(2m) (2m)!) (6m+1)/(6m-1) z^(-3m+1).

    The m = 0 term is +z.  With ``alternating`` the m-th sign is
    (-1)^(m+1) instead of the overall minus (the series q(z))."""
    if order < 0:
        raise InvalidKeyError("order must be >= 0")
    coeffs: dict[int, Rat] = {}
    m = 0
    while 3 * m - 1 <= order:
        val = _airy_term(m) * Rat(6 * m + 1, 6 * m - 1)
        coeffs[-3 * m + 1] = (-1) ** (m + 1) * val if alternating else -val
        m += 1
    return Series1(var, coeffs, order)


def series_pair(order: int, convention: str = STANDARD
                ) -> tuple[Series1, Series1]:
    alt = _alt_flag(convention)
    return wave_series(order, alt), slope_series(order, alt)


def _alt_flag(convention: str) -> bool:
    if convention == STANDARD:
        return False
    if convention == ALTERNATING:
        return True
    raise InvalidKeyError(f"unknown convention {convention!r}")


# ---------------------------------------------------------------------------
# Closed-form entries (standard convention).
# ---------------------------------------------------------------------------

def closed_entry(m: int, n: int) -> Rat:
    """Closed form of the table value at row m, column n (both >= 0).

    Vanishes off the residue class m + n = 2 (mod 3); on it, the value
    depends on (m mod 3) through three cases sharing one product prefactor

        (6M+1)!! M (M+1)...(M+N-1) (2M+1)(2M+3)...(2M+2N-1)
        / (36^(M+N) (2M+2N)!)

    times the tail B(N, M) + b(N)/(6M+-1), where b(k) = 2^k (6k+1)!!/(2k)!
    and B(N, M) = (1/6) sum_{j=1..N} 108^j b(N-j) (M+N)(M+N-1)...(M+N-j+2).
    The tail is summed on integers over its common denominator
    6 (6M+-1) (2N)!, and one rational is built at the end.
    """
    if m < 0 or n < 0:
        raise InvalidKeyError("indices must be nonnegative")
    if (m + n) % 3 != 2:
        return Rat(0)
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
    top = big_m + big_n
    pref_num = (double_factorial(6 * big_m + 1)
                * math.perm(top - 1, big_n)
                * math.prod(range(2 * big_m + 1, 2 * top, 2)))
    pref_den = 36 ** top * math.factorial(2 * top)
    # 6 (2N)! b(N-j) = 6 2^(N-j) (6(N-j)+1)!! (2N)!/(2N-2j)!
    poly = sum(108 ** j * 2 ** (big_n - j)
               * double_factorial(6 * (big_n - j) + 1)
               * math.perm(2 * big_n, 2 * j) * math.perm(top, j - 1)
               for j in range(1, big_n + 1))
    den = 6 * big_m + shift
    tail_num = poly * den + 6 * 2 ** big_n * double_factorial(6 * big_n + 1)
    tail_den = 6 * den * math.factorial(2 * big_n)
    return Rat(sign * pref_num * tail_num, pref_den * tail_den)


# ---------------------------------------------------------------------------
# The Kernel object.
# ---------------------------------------------------------------------------

class Kernel:
    """Affine-coordinate table of the Airy point up to a cutoff.

    ``entry(m, n)`` is the coefficient of x^(-m-1) y^(-n-1) of the kernel
    generating function; support is restricted to m + n = 2 (mod 3).
    """

    __slots__ = ("cutoff", "table", "route", "convention")

    def __init__(self, cutoff: int, table: dict[tuple[int, int], Rat],
                 route: str, convention: str = STANDARD):
        self.cutoff = cutoff
        self.route = route
        self.convention = convention
        clean: dict[tuple[int, int], Rat] = {}
        for (m, n), value in table.items():
            if value == 0:
                continue
            if m < 0 or n < 0 or m > cutoff or n > cutoff:
                raise InvalidKeyError(f"entry ({m},{n}) outside cutoff {cutoff}")
            if (m + n) % 3 != 2:
                raise CrossCheckError(
                    f"nonzero entry ({m},{n}) off the residue class: "
                    f"{format_rat(value)} [route {route}]")
            clean[(m, n)] = value if isinstance(value, Rat) else Rat(value)
        self.table = clean

    def entry(self, m: int, n: int) -> Rat:
        if m > self.cutoff or n > self.cutoff or m < 0 or n < 0:
            raise InsufficientCutoffError(
                f"entry ({m},{n}) beyond kernel cutoff {self.cutoff}")
        return self.table.get((m, n), Rat(0))

    def rows(self) -> list[tuple[int, int, Rat]]:
        """Nonzero entries sorted by (m+n, m)."""
        return [(m, n, self.table[(m, n)])
                for m, n in sorted(self.table, key=lambda k: (k[0] + k[1],
                                                              k[0]))]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Kernel) and self.cutoff == other.cutoff
                and self.table == other.table)

    def __hash__(self):
        return hash((self.cutoff, frozenset(self.table.items())))


# ---------------------------------------------------------------------------
# Route 1: closed form.
# ---------------------------------------------------------------------------

def kernel_closed(cutoff: int) -> Kernel:
    table = {}
    for m in range(cutoff + 1):
        for n in range(cutoff + 1):
            if (m + n) % 3 != 2:
                continue
            # table orientation: entry(m, n) is the transposed closed value
            table[(m, n)] = closed_entry(n, m)
    return Kernel(cutoff, table, "closed")


# ---------------------------------------------------------------------------
# Route 2: generating-function expansion.
# ---------------------------------------------------------------------------

def required_order(cutoff: int) -> int:
    """Input truncation the expansion routes need: 3*cutoff + 6."""
    return 3 * cutoff + 6


def kernel_series(cutoff: int, order: int | None = None,
                  convention: str = STANDARD, check: bool = True) -> Kernel:
    """Expand 1/(x-y) + (a(x) b(-y) - a(-y) b(x))/(x^2-y^2) in |x| > |y|.

    The table is read off transposed (rows index the y-exponent), matching
    the affine-coordinate orientation of the other routes.
    """
    order = required_order(cutoff) if order is None else order
    if order < required_order(cutoff):
        raise InsufficientCutoffError(
            f"series order {order} < required {required_order(cutoff)} "
            f"for cutoff {cutoff}")
    a, b = series_pair(order, convention)
    pair = ("x", "y")
    ax = a.rename("x")
    bx = b.rename("x")
    a_neg_y = a.negate_var().rename("y")
    b_neg_y = b.negate_var().rename("y")
    numerator = Laurent2.outer(ax, b_neg_y, pair) \
        - Laurent2.outer(bx, a_neg_y, pair)

    pos = 2  # keep a couple of nonnegative exponents for the cancellation check
    k2max = (order + pos) // 2 + 1
    gf = numerator.mul(geometric_inv_diff_squares(pair, k2max),
                       xmin=-cutoff - 1, ymin=-cutoff - 1)
    gf = gf + geometric_inv_diff(pair, pos)
    gf = gf.restrict(xmin=-cutoff - 1, xmax=pos, ymin=-cutoff - 1, ymax=pos)

    if check:
        # all nonnegative-exponent cells cancel within the graded window
        for ex, ey, value in gf.cells():
            if ex + ey < 1 - order:
                continue
            if (ex >= 0 or ey >= 0) and value != 0:
                raise CrossCheckError(
                    f"uncancelled term x^{ex} y^{ey}: {format_rat(value)}")

    table = {}
    for m in range(cutoff + 1):
        for n in range(cutoff + 1):
            value = gf.coeff(-n - 1, -m - 1)
            if value != 0:
                table[(m, n)] = value
    return Kernel(cutoff, table, "series", convention)


# ---------------------------------------------------------------------------
# Route 3: 2x2 transition-matrix factorization.
# ---------------------------------------------------------------------------

def _even_part(f: Series1, var: str) -> Series1:
    """Compress the even exponents: coefficient of z^(-2n) lands at z^(-n)."""
    n = None if f.order is None else f.order // 2
    coeffs = {e // 2: c for e, c in f.coeffs.items()
              if e <= 0 and e % 2 == 0}
    return Series1(var, coeffs, n)


def _odd_part(f: Series1, var: str) -> Series1:
    """Compress the odd exponents: coefficient of z^(-(2n-1)) lands at
    z^(-n) (n >= 1)."""
    n = None if f.order is None else (f.order + 1) // 2
    coeffs = {(e - 1) // 2: c for e, c in f.coeffs.items()
              if e < 0 and e % 2 != 0}
    return Series1(var, coeffs, n)


def transition_matrix(order: int, convention: str = STANDARD
                      ) -> list[list[Series1]]:
    """The 2x2 series matrix of even/odd splits of a and b/z.

    Row convention: the top-right slot collects the slope coefficients of
    odd depth 2n+1 at z^(-n), one compressed step higher than the odd part
    of the constant-normalized split (which pairs depth 2n-1 with z^(-n)).
    """
    a, b = series_pair(order, convention)
    bt = b.shift(-1)  # constant-normalized slope series
    g11 = _even_part(a, "z")
    g12 = _odd_part(bt, "z").shift(1)
    g21 = _odd_part(a, "z")
    g22 = _even_part(bt, "z")
    return [[g11, g12], [g21, g22]]


def kernel_gmatrix(cutoff: int, order: int | None = None,
                   convention: str = STANDARD) -> Kernel:
    """Assemble the table from (1/(x-y)) (I - G(x) G(y)^(-1)).

    G(y)^(-1) is the adjugate, using det G = 1; the determinant is verified
    within the window first.
    """
    order = required_order(cutoff) if order is None else order
    if order < required_order(cutoff):
        raise InsufficientCutoffError(
            f"series order {order} < required {required_order(cutoff)} "
            f"for cutoff {cutoff}")
    g = transition_matrix(order, convention)
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    det_window = min(x for x in (det.order, order // 2 - 1) if x is not None)
    if not det.agrees_with(Series1.const("z", 1), through=det_window):
        raise CrossCheckError(
            "transition matrix determinant differs from 1 inside the window")
    ginv = [[g[1][1], -g[0][1]], [-g[1][0], g[0][0]]]

    pair = ("x", "y")
    half = cutoff // 2 + 1
    k1max = order
    cauchy = geometric_inv_diff(pair, k1max)
    table: dict[tuple[int, int], Rat] = {}
    for r in range(2):
        for c in range(2):
            prod = Laurent2.zero(pair)
            for s in range(2):
                prod = prod + Laurent2.outer(g[r][s].rename("x"),
                                             ginv[s][c].rename("y"), pair)
            block = Laurent2.zero(pair)
            if r == c:
                block = Laurent2.const(pair, 1)
            block = (block - prod).mul(cauchy, xmin=-half - 2, ymin=-half - 2)
            # block cell (-m-1, -n-1) is the closed-table value at
            # row 2m+r', column 2n+c' with r' = 1 - r, c' = c.
            for mm in range(half + 1):
                for nn in range(half + 1):
                    value = block.coeff(-mm - 1, -nn - 1)
                    if value == 0:
                        continue
                    row = 2 * mm + (1 - r)
                    col = 2 * nn + c
                    if row <= cutoff and col <= cutoff:
                        # transpose into the affine orientation
                        table[(col, row)] = value
    return Kernel(cutoff, table, "gmatrix", convention)


# ---------------------------------------------------------------------------
# Route 4 lives in grassmann.normalize; the frame it consumes is built here.
# ---------------------------------------------------------------------------

def airy_frame(count: int, order: int | None = None,
               convention: str = STANDARD) -> list[Series1]:
    """Admissible basis of the Airy point: elements 2n and 2n+1 are
    z^(2n) a(z) and z^(2n) b(z) (leading exponents 2n and 2n+1)."""
    order = 3 * count + 6 if order is None else order
    a, b = series_pair(order, convention)
    frame = []
    for k in range(count):
        base = a if k % 2 == 0 else b
        frame.append(base.shift(k - (k % 2)))
    return frame


def kernel_frame(cutoff: int, order: int | None = None,
                 convention: str = STANDARD) -> Kernel:
    """Gauss-normalize the Airy frame and read its affine coordinates
    entry by entry into a kernel table."""
    from .grassmann import AdmissibleFrame

    order = required_order(cutoff) if order is None else order
    frame = AdmissibleFrame(airy_frame(cutoff + 1, order, convention))
    coords = frame.normalize(cutoff)
    table = {}
    for m in range(cutoff + 1):
        for n in range(cutoff + 1):
            value = coords.entry(m, n)
            if value != 0:
                table[(m, n)] = value
    return Kernel(cutoff, table, "frame", convention)


ROUTES = {
    "closed": kernel_closed,
    "series": kernel_series,
    "gmatrix": kernel_gmatrix,
    "frame": kernel_frame,
}


def build_kernel(cutoff: int, route: str = "closed",
                 convention: str = STANDARD) -> Kernel:
    if route not in ROUTES:
        raise InvalidKeyError(f"unknown kernel route {route!r}")
    if route == "closed":
        if convention != STANDARD:
            raise InvalidKeyError(
                "closed-form route exists for the standard convention only")
        return kernel_closed(cutoff)
    return ROUTES[route](cutoff, convention=convention)


def check_all_routes(cutoff: int, convention: str = STANDARD) -> Kernel:
    """Build every applicable route and demand entry-wise equality.

    Returns the reference kernel; raises CrossCheckError naming the first
    differing entry otherwise.
    """
    names = ["closed", "series", "gmatrix", "frame"] if convention == STANDARD \
        else ["series", "gmatrix", "frame"]
    kernels = [build_kernel(cutoff, name, convention) for name in names]
    reference = kernels[0]
    for other in kernels[1:]:
        for m in range(cutoff + 1):
            for n in range(cutoff + 1):
                left = reference.entry(m, n)
                right = other.entry(m, n)
                if left != right:
                    raise CrossCheckError(
                        f"route {other.route} differs from {reference.route} "
                        f"at ({m},{n}): {format_rat(right)} vs "
                        f"{format_rat(left)}")
    return reference


# ---------------------------------------------------------------------------
# Diagonal restriction and the derivative-pairing identity.
# ---------------------------------------------------------------------------

def kernel_diagonal(order: int, convention: str = STANDARD) -> Series1:
    """The one-variable restriction (1/(2 xi)) (1 + a'(xi) b(-xi)
    - a(-xi) b'(xi)), truncated at xi^(-order)."""
    work = order + 3
    a, b = series_pair(work, convention)
    a, b = a.rename("xi"), b.rename("xi")
    inner = Series1.const("xi", 1) \
        + a.derivative() * b.negate_var() \
        - a.negate_var() * b.derivative()
    return inner.shift(-1).scale(Rat(1, 2)).truncated(order)


def diagonal_closed_coeff(g: int) -> Rat:
    """(6g-3)!!/(24^g g!), the coefficient at exponent -(6g-2)."""
    return Rat(double_factorial(6 * g - 3), 24 ** g * math.factorial(g))


def faber_zagier_identity_check(order: int) -> bool:
    """a'(xi) b(-xi) - a(-xi) b'(xi) = -1 + 2 sum_g (6g-3)!!/(24^g g!)
    xi^(-(6g-3)), verified through xi^(-order).

    The exponent 6g-3 is forced by the diagonal one-point series (1/8 at
    xi^(-4) after dividing by 2 xi); quoting the right side with exponent
    6g instead belongs to the opposite spectral-variable convention.
    """
    work = order + 3
    a, b = series_pair(work)
    a, b = a.rename("xi"), b.rename("xi")
    lhs = a.derivative() * b.negate_var() - a.negate_var() * b.derivative()
    rhs_terms: dict[int, Rat] = {0: Rat(-1)}
    g = 1
    while 6 * g - 3 <= order:
        rhs_terms[-(6 * g - 3)] = 2 * diagonal_closed_coeff(g)
        g += 1
    rhs = Series1("xi", rhs_terms, order)
    return lhs.agrees_with(rhs, through=order)


def airy_d_check(order: int) -> bool:
    """The alternating pair satisfies D c = q and D^2 c = z^2 c with
    D = z + 1/(2 z^2) - (1/z) d/dz, through z^(-order).

    The second relation is the quantized spectral-curve equation; together
    they close the ladder c, D c, D^2 c = z^2 c under the square of the
    variable, which is the 2-reduction seen at series level.
    """
    from .grassmann import d_operator

    work = order + 6
    c = wave_series(work, alternating=True)
    q = slope_series(work, alternating=True)
    dc = d_operator(c)
    if not dc.agrees_with(q, through=order):
        return False
    ddc = d_operator(dc)
    return ddc.agrees_with(c.shift(2), through=order)


# ---------------------------------------------------------------------------
# CSV dump.
# ---------------------------------------------------------------------------

def kernel_to_csv(kernel: Kernel) -> str:
    lines = ["m,n,value"]
    for m, n, value in kernel.rows():
        lines.append(f"{m},{n},{format_rat(value)}")
    return "\n".join(lines) + "\n"


def kernel_from_csv(text: str, cutoff: int, route: str = "csv",
                    convention: str = STANDARD) -> Kernel:
    table: dict[tuple[int, int], Rat] = {}
    for line in text.splitlines()[1:]:
        line = line.strip()
        if not line:
            continue
        m_text, n_text, value_text = line.split(",")
        table[(int(m_text), int(n_text))] = parse_rat(value_text)
    return Kernel(cutoff, table, route, convention)
