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

Each route builds only the cells it reads.  The two expansion routes cut
their univariate factors (a and b, or the entries of G) to the exponents
that can reach the window (proved in each docstring), scale them to integer
numerators over the lcm D of their denominators, and divide the numerator
f, over D^2, by x^s - y^s through the running sum G(ex, ey) = f(ex+s, ey) +
G(ex+s, ey-s) of ``series.div_diff_powers`` on a square window of
exponents: s = 2 on [-cutoff-1, 2]^2 for ``kernel_series`` (the table plus
the nonnegative cells that must cancel), s = 1 on [-cutoff//2-1, -1]^2 for
each ``kernel_gmatrix`` block.  The frame route cuts every element to
order cutoff + 1 before elimination.

Every builder reads a and b.  The opposite convention, the Faber-Zagier
pair c(z) = a(-z) and q(z) = -b(-z), is the same curve read at -z, so its
kernel is a sign twist of this one (``alternate``).  Substituting c, q for
a, b in A gives

    A_cq(x, y) = (a(-y) b(x) - a(x) b(-y)) / (x^2 - y^2) - 1/(x - y)
               = -A(-x, -y),

and the expansion region |x| > |y| is kept.  The coefficient of
x^(-m-1) y^(-n-1) in -A(-x, -y) is -(-1)^(m+n) times its coefficient in A,
so entry (m, n) of the alternating table is (-1)^(m+n+1) times the
standard entry.
"""

from __future__ import annotations

import math

from .errors import CrossCheckError, InsufficientCutoffError, InvalidKeyError
from .grassmann import AdmissibleFrame, AffineCoords
from .rational import ZERO, Rat, double_factorial, format_rat
from .series import Series1, div_diff_powers, outer_sum


# ---------------------------------------------------------------------------
# The Airy asymptotic series.
# ---------------------------------------------------------------------------

def _airy_term(m: int) -> Rat:
    return Rat(double_factorial(6 * m - 1),
               6 ** (2 * m) * math.factorial(2 * m))


def wave_series(order: int) -> Series1:
    """a(z) = sum_m (6m-1)!!/(6^(2m) (2m)!) z^(-3m), truncated at
    z^(-order)."""
    if order < 0:
        raise InvalidKeyError("order must be >= 0")
    return Series1("z", {-3 * m: _airy_term(m)
                         for m in range(order // 3 + 1)}, order)


def slope_series(order: int) -> Series1:
    """b(z) = -sum_m (6m-1)!!/(6^(2m) (2m)!) (6m+1)/(6m-1) z^(-3m+1).

    The m = 0 term is +z."""
    if order < 0:
        raise InvalidKeyError("order must be >= 0")
    return Series1("z", {1 - 3 * m: -_airy_term(m) * Rat(6 * m + 1, 6 * m - 1)
                         for m in range((order + 1) // 3 + 1)}, order)


def series_pair(order: int) -> tuple[Series1, Series1]:
    return wave_series(order), slope_series(order)


# ---------------------------------------------------------------------------
# Closed-form entries (standard convention).
# ---------------------------------------------------------------------------

# Row m and column n belong to family (M, N) = (m//3 + 1, n//3), and
# m % 3 picks its value: 0 for 6M+1 (rows 3M-3, 3M-1), 1 for 6M-1 (3M-2).
_CASES = (0, 1, 0)


def _tail_coefficients(big_n: int) -> list[int]:
    """c_j = 108^j (2N)! b(N-j) = 108^j 2^(N-j) (6(N-j)+1)!! (2N)!/(2N-2j)!
    for j = 0..N, the integers of the tail, which depend on N alone."""
    return [108 ** j * 2 ** (big_n - j) * double_factorial(6 * (big_n - j) + 1)
            * math.perm(2 * big_n, 2 * j) for j in range(big_n + 1)]


def _closed_family(big_m: int, big_n: int, coeffs: list[int]
                   ) -> tuple[Rat, Rat]:
    """The two values of family (M, N): over 6M+1 with sign (-1)^N, and
    over 6M-1 with sign -(-1)^N, from its tail coefficients ``coeffs``.
    The prefactor and the sum 6 (2N)! B(N, M) = sum_j c_j (M+N)...(M+N-j+2)
    are shared; the falling factorial is carried as a running product."""
    top = big_m + big_n
    pref_num = ((-1) ** big_n * double_factorial(6 * big_m + 1)
                * math.perm(top - 1, big_n)
                * math.prod(range(2 * big_m + 1, 2 * top, 2)))
    # the prefactor's denominator times the tail's 6 (2N)!
    pref_den = (6 * 36 ** top * math.factorial(2 * top)
                * math.factorial(2 * big_n))
    poly, falling = 0, 1
    for j in range(1, big_n + 1):
        poly += coeffs[j] * falling
        falling *= top - j + 1
    const, plus, minus = 6 * coeffs[0], 6 * big_m + 1, 6 * big_m - 1
    return (Rat(pref_num * (poly * plus + const), pref_den * plus),
            Rat(-pref_num * (poly * minus + const), pref_den * minus))


def closed_entry(m: int, n: int) -> Rat:
    """Closed form of the table value at row m, column n (both >= 0).

    Vanishes off the residue class m + n = 2 (mod 3); on it, the value
    depends on (m mod 3) through three cases sharing one product prefactor

        (6M+1)!! M (M+1)...(M+N-1) (2M+1)(2M+3)...(2M+2N-1)
        / (36^(M+N) (2M+2N)!)

    times the tail B(N, M) + b(N)/(6M+-1), where b(k) = 2^k (6k+1)!!/(2k)!
    and B(N, M) = (1/6) sum_{j=1..N} 108^j b(N-j) (M+N)(M+N-1)...(M+N-j+2).
    Rows 3M-1 (columns 3N) and 3M-3 (columns 3N+2) take the 6M+1 tail and
    the sign (-1)^N, rows 3M-2 (columns 3N+1) the 6M-1 tail and the sign
    -(-1)^N.  The tail is summed on integers over its common denominator
    6 (6M+-1) (2N)!, and one rational is built at the end.
    """
    if m < 0 or n < 0:
        raise InvalidKeyError("indices must be nonnegative")
    if (m + n) % 3 != 2:
        return Rat(0)
    big_n = n // 3
    return _closed_family(m // 3 + 1, big_n,
                          _tail_coefficients(big_n))[_CASES[m % 3]]


# ---------------------------------------------------------------------------
# The Kernel object.
# ---------------------------------------------------------------------------

class Kernel:
    """Affine-coordinate table of the Airy point up to a cutoff.

    ``entry(m, n)`` is the coefficient of x^(-m-1) y^(-n-1) of the kernel
    generating function; support is restricted to m + n = 2 (mod 3).
    """

    __slots__ = ("cutoff", "table", "route")

    def __init__(self, cutoff: int, table: dict[tuple[int, int], Rat],
                 route: str):
        self.cutoff = cutoff
        self.route = route
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
        return self.table.get((m, n), ZERO)

    def rows(self) -> list[tuple[int, int, Rat]]:
        """Nonzero entries sorted by (m+n, m)."""
        return [(m, n, self.table[(m, n)])
                for m, n in sorted(self.table, key=lambda k: (k[0] + k[1],
                                                              k[0]))]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Kernel) and self.cutoff == other.cutoff
                and self.table == other.table)


# ---------------------------------------------------------------------------
# Route 1: closed form.
# ---------------------------------------------------------------------------

def kernel_closed(cutoff: int) -> Kernel:
    """The closed-form table, family by family: the rows 3M-3..3M-1 and
    columns 3N..3N+2 of family (M, N) hold one cell each per row, and the
    tail coefficients are built once per N."""
    table = {}
    for big_n in range(cutoff // 3 + 1):
        coeffs = _tail_coefficients(big_n)
        for big_m in range(1, cutoff // 3 + 2):
            values = _closed_family(big_m, big_n, coeffs)
            for m in range(3 * big_m - 3, min(3 * big_m, cutoff + 1)):
                n = 3 * big_n + (2 - m) % 3
                if n <= cutoff:
                    # table orientation: entry(n, m) is the value at row m
                    table[(n, m)] = values[_CASES[m % 3]]
    return Kernel(cutoff, table, "closed")


# ---------------------------------------------------------------------------
# Route 2: generating-function expansion.
# ---------------------------------------------------------------------------

def required_order(cutoff: int) -> int:
    """3*cutoff + 6: the series order of the transition matrix that
    ``kernel_gmatrix`` factors at ``cutoff``, and of the Airy frames the
    sato suite of ``verify`` builds (``airy_coords`` proves a smaller
    one)."""
    return 3 * cutoff + 6


def _numerators(series: list[Series1]) -> tuple[list[dict[int, int]], int]:
    """Every series' numerators over one positive denominator D, the lcm
    of their denominators."""
    den = math.lcm(*(f.den for f in series))
    return [{e: n * (den // f.den) for e, n in f.num.items()}
            for f in series], den


def kernel_series(cutoff: int) -> Kernel:
    """Expand 1/(x-y) + (a(x) b(-y) - a(-y) b(x))/(x^2-y^2) in |x| > |y|.

    As 1/(x-y) = (x+y)/(x^2-y^2), the whole function is one numerator f
    divided by x^2 - y^2 through the running sum of ``div_diff_powers``, on
    the window [-cutoff-1, 2]^2: the table cells plus the nonnegative cells
    that must cancel.  The top x-exponent of f is 1, so a window cell
    (ex, ey) reads f(ex + 2j, ey + 2 - 2j) for 1 <= j <= (1 - ex)/2 only,
    and the factors are cut before the outer products to the exponents
    those reads reach:

    * x >= -(cutoff-1), since ex + 2j >= -cutoff-1 + 2;
    * y >= -(2 cutoff+1), since ey + 2 - 2j >= ey + ex + 1 >= -2 cutoff - 1.

    Both cuts are tight: one step tighter changes a table.  a and b are
    built exactly down to the deeper cut, z^-(2 cutoff + 1), so every read
    is exact, every window cell is exact, and the guard sees all
    nonnegative ones.  On integer numerators over one denominator D for
    the cut factors, f and the quotient sit over D^2.  The table is read
    off transposed (rows index the y-exponent, as in the other routes).
    """
    a, b = series_pair(2 * cutoff + 1)
    (ax, bx, ay, by), den = _numerators(
        [f.truncated(cutoff - 1) for f in (a, b)]
        + [f.truncated(2 * cutoff + 1).negate_var() for f in (a, b)])
    den *= den
    f = outer_sum([(1, ax, by), (-1, bx, ay)], {(1, 0): den, (0, 1): den})
    gf = div_diff_powers(f, 2, -cutoff - 1, 2)
    uncancelled = [cell for cell in gf if cell[0] >= 0 or cell[1] >= 0]
    if uncancelled:
        ex, ey = min(uncancelled)
        raise CrossCheckError(f"uncancelled term x^{ex} y^{ey}: "
                              f"{format_rat(Rat(gf[(ex, ey)], den))}")
    table = {(-ey - 1, -ex - 1): Rat(v, den) for (ex, ey), v in gf.items()}
    return Kernel(cutoff, table, "series")


# ---------------------------------------------------------------------------
# Route 3: 2x2 transition-matrix factorization.
# ---------------------------------------------------------------------------

def _parity_part(f: Series1, odd: int) -> Series1:
    """Compress the exponents of one parity: the coefficient of
    z^(-2n+odd) lands at z^(-n), for n >= odd."""
    n = None if f.order is None else (f.order + odd) // 2
    return Series1._of({(e - odd) // 2: c for e, c in f.num.items()
                        if e <= -odd and (e - odd) % 2 == 0}, f.den, "z", n)


def transition_matrix(order: int) -> list[list[Series1]]:
    """The 2x2 series matrix of even/odd splits of a and b/z.

    Row convention: the top-right slot collects the slope coefficients of
    odd depth 2n+1 at z^(-n), one compressed step higher than the odd part
    of the constant-normalized split (which pairs depth 2n-1 with z^(-n)).
    """
    a, b = series_pair(order)
    bt = b.shift(-1)  # constant-normalized slope series
    return [[_parity_part(a, 0), _parity_part(bt, 1).shift(1)],
            [_parity_part(a, 1), _parity_part(bt, 0)]]


def kernel_gmatrix(cutoff: int) -> Kernel:
    """Assemble the table from (1/(x-y)) (I - G(x) G(y)^(-1)).

    G(y)^(-1) is the adjugate, (-1)^(s+c) G[1-c][1-s] at (s, c), using
    det G = 1.  The entries are exact through z^(-order//2) with top
    exponents <= 0, so det G is checked through z^(-w), w = order//2 - 1,
    from entry terms down to z^(-w) only.  The entries are cut there and
    scaled to integer numerators N over one denominator D, and the check
    is N00 N11 - N01 N10 = D^2 through z^(-w).

    Each block numerator, over D^2, is divided by x - y through the running
    sum of ``div_diff_powers`` on the window [-half-1, -1]^2 with half =
    cutoff//2: block cell (-m-1, -n-1) lands at row 2m + r', column 2n + c'
    of the table, which keeps rows and columns <= cutoff, so m, n <= half.
    Its top x-exponent is 0, so a window cell (ex, ey) reads
    f(ex + j, ey + 1 - j) for 1 <= j <= -ex only, and the entries are cut
    before the outer products to the exponents those reads reach, both
    inside the cut at w:

    * x >= -half, since ex + j >= -half-1 + 1;
    * y >= -(2 half+1), since ey + 1 - j >= ey + ex + 1 >= -2 half - 1.

    The window and both cuts are tight: one step tighter changes a table.
    """
    order = required_order(cutoff)
    w, half = order // 2 - 1, cutoff // 2
    g = [f for row in transition_matrix(order) for f in row]
    # entry (r, s) of G cut at w, then at the x and y cuts, at 2r + s
    nums, den = _numerators([f.truncated(k) for k in (w, half, 2 * half + 1)
                             for f in g])
    den *= den
    det = {0: -den}
    for (ex, ey), v in outer_sum([(1, nums[0], nums[3]),
                                  (-1, nums[1], nums[2])], {}).items():
        if ex + ey >= -w:
            det[ex + ey] = det.get(ex + ey, 0) + v
    if any(det.values()):
        raise CrossCheckError(
            "transition matrix determinant differs from 1 inside the window")

    gx, gy = nums[4:8], nums[8:]
    table: dict[tuple[int, int], Rat] = {}
    for r in range(2):
        for c in range(2):
            block = outer_sum([((-1) ** (s + c + 1), gx[2 * r + s],
                                gy[3 - 2 * c - s]) for s in range(2)],
                              {(0, 0): den} if r == c else {})
            # block cell (-m-1, -n-1) is the closed-table value at
            # row 2m+r', column 2n+c' with r' = 1 - r, c' = c.
            for (ex, ey), v in div_diff_powers(block, 1, -half - 1,
                                               -1).items():
                row = 2 * (-ex - 1) + (1 - r)
                col = 2 * (-ey - 1) + c
                if row <= cutoff and col <= cutoff:
                    # transpose into the affine orientation
                    table[(col, row)] = Rat(v, den)
    return Kernel(cutoff, table, "gmatrix")


# ---------------------------------------------------------------------------
# Route 4 lives in grassmann.normalize; the frame it consumes is built here.
# ---------------------------------------------------------------------------

def airy_frame(count: int, order: int) -> list[Series1]:
    """Admissible basis of the Airy point: elements 2n and 2n+1 are
    z^(2n) a(z) and z^(2n) b(z) (leading exponents 2n and 2n+1), with a
    and b exact through z^(-order)."""
    a, b = series_pair(order)
    frame = []
    for k in range(count):
        base = a if k % 2 == 0 else b
        frame.append(base.shift(k - (k % 2)))
    return frame


def airy_coords(cutoff: int) -> AffineCoords:
    """The affine coordinates of the Airy point through ``cutoff``: the
    Airy frame of cutoff + 1 elements, Gauss-normalized.

    a and b are built exactly through z^-(cutoff + 1 + 2 (cutoff//2)).
    ``normalize(cutoff)`` reads element n only down to z^-(cutoff+1), and
    element n is z^(2 (n//2)) times a or b, so its reliable window reaches
    z^-(cutoff+1) exactly when a and b reach 2 (n//2) deeper; the deepest
    such read is at n = cutoff.  One order less raises WindowError.

    A negative cutoff reads no element.  Its order is 0 at cutoffs -1 and
    -2, and 3 cutoff + 6 < 0 below them, which ``series_pair`` refuses with
    InvalidKeyError: the exit codes ``tau --basis schur`` keeps there.
    """
    order = max(cutoff + 1 + 2 * (cutoff // 2), min(0, 3 * cutoff + 6))
    return AdmissibleFrame(airy_frame(cutoff + 1, order)).normalize(cutoff)


def kernel_frame(cutoff: int) -> Kernel:
    """The affine coordinates of the Airy point (``airy_coords``) read
    entry by entry into a kernel table."""
    return Kernel(cutoff, airy_coords(cutoff).table, "frame")


ROUTES = {
    "closed": kernel_closed,
    "series": kernel_series,
    "gmatrix": kernel_gmatrix,
    "frame": kernel_frame,
}


def check_all_routes(cutoff: int) -> Kernel:
    """Build every route and demand entry-wise equality.

    Returns the reference kernel (the first route built); raises
    CrossCheckError naming the first entry, in (m, n) order, where another
    route differs.  Tables hold no zeros, so a missing entry reads 0.
    """
    kernels = [build(cutoff) for build in ROUTES.values()]
    reference = kernels[0]
    for other in kernels[1:]:
        left, right = reference.table, other.table
        if left != right:
            m, n = min(key for key in left.keys() | right.keys()
                       if left.get(key) != right.get(key))
            raise CrossCheckError(
                f"route {other.route} differs from {reference.route} "
                f"at ({m},{n}): {format_rat(other.entry(m, n))} vs "
                f"{format_rat(reference.entry(m, n))}")
    return reference


def alternate(kernel: Kernel) -> Kernel:
    """The table in the opposite convention, the one read from c and q:
    entry (m, n) times (-1)^(m+n+1), as the module docstring proves.  An
    involution."""
    return Kernel(kernel.cutoff, {(m, n): v if (m + n) % 2 else -v
                                  for (m, n), v in kernel.table.items()},
                  kernel.route)


# ---------------------------------------------------------------------------
# Diagonal restriction and the derivative-pairing identity.
# ---------------------------------------------------------------------------

def _wronskian(order: int) -> Series1:
    """a'(xi) b(-xi) - a(-xi) b'(xi), from a and b exact through order + 3."""
    a, b = (f.rename("xi") for f in series_pair(order + 3))
    return a.derivative() * b.negate_var() - a.negate_var() * b.derivative()


def kernel_diagonal(order: int) -> Series1:
    """The one-variable restriction (1/(2 xi)) (1 + a'(xi) b(-xi)
    - a(-xi) b'(xi)), truncated at xi^(-order)."""
    if order < 0:
        raise InvalidKeyError("order must be >= 0")
    inner = Series1.const("xi", 1) + _wronskian(order)
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
    rhs_terms: dict[int, Rat] = {0: Rat(-1)}
    g = 1
    while 6 * g - 3 <= order:
        rhs_terms[-(6 * g - 3)] = 2 * diagonal_closed_coeff(g)
        g += 1
    rhs = Series1("xi", rhs_terms, order)
    return _wronskian(order).agrees_with(rhs, through=order)


def airy_d_check(order: int) -> bool:
    """The alternating pair satisfies D c = q and D^2 c = z^2 c with
    D = z + 1/(2 z^2) - (1/z) d/dz, through z^(-order).

    The second relation is the quantized spectral-curve equation; together
    they close the ladder c, D c, D^2 c = z^2 c under the square of the
    variable, which is the 2-reduction seen at series level.
    """
    from .grassmann import d_operator

    a, b = series_pair(order + 6)
    c, q = a.negate_var(), b.negate_var().scale(-1)
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
