"""Builders for the structured matrices and signed partition sums.

Column orders follow the explicit small displays (the 5x5 two-block matrix
and the 5x5 palindromic-row matrix), which fix the conventions the row
descriptions leave ambiguous.  The two-block, palindromic-row and bidegree
matrices are built from one row per point (`row_V`, `row_W`, `row_U`), so
a family of such matrices on shared points can take its rows from one
point table.  All constructors are generic over ring scalars and pure.
At a rational point `int_row_V/W/U` give that row as ints times one scale;
at a polynomial point, the row itself with scale 1.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import prod

from .linalg import RingMatrix, minors, over
from .symfunc import Partition, TooLongError


class LengthMismatchError(ValueError):
    """Scalar vectors do not have the length the builder requires."""


def _powers(x, top):
    """[x^0, x^1, ..., x^top], with x^0 = Fraction(1) and x^1 = x itself."""
    out = [Fraction(1), x][: top + 1]
    for _ in range(top - 1):
        out.append(out[-1] * x)
    return out


def _require_length(name, values, expected):
    if len(values) != expected:
        raise LengthMismatchError(f"{name} must have length {expected}, got {len(values)}")


def row_V(p, q, x, a):
    """One point's row of build_V: (1, x, .., x^{p-1}, a, a x, .., a x^{q-1})."""
    pw = _powers(x, max(p, q))
    return pw[:p] + [a * pw[k] for k in range(q)]


def row_W(n, x, a):
    """One point's row of build_W: column j (0-based) holds x^j + a x^{n-1-j}."""
    pw = _powers(x, n - 1 if n else 0)
    return [pw[j] + a * pw[n - 1 - j] for j in range(n)]


def row_U(p, q, x, y, a, b):
    """One point's row of build_U: (a x^{p-1}, .., a y^{p-1}, b x^{q-1}, .., b y^{q-1})."""
    top = max(p, q, 1) - 1
    px = _powers(x, top)
    py = _powers(y, top)
    return [a * px[p - 1 - k] * py[k] for k in range(p)] + [
        b * px[q - 1 - k] * py[k] for k in range(q)
    ]


def int_row_V(p, q, x, a):
    """row_V(p, q, x, a) at a rational point as (int row, scale): row_V times den(a) den(x)^top."""
    top = max(p, q, 1) - 1
    nx, dx = x.numerator, x.denominator
    pw = [nx**e * dx ** (top - e) for e in range(top + 1)]  # x^e den(x)^top
    da, na = a.denominator, a.numerator
    return [da * w for w in pw[:p]] + [na * w for w in pw[:q]], da * pw[0]


def int_row_W(n, x, a):
    """row_W(n, x, a) at a rational point as (int row, scale), from int_row_V(n, n, x, a)."""
    row, scale = int_row_V(n, n, x, a)
    return [row[j] + row[2 * n - 1 - j] for j in range(n)], scale


def int_row_U(p, q, x, y, a, b):
    """row_U at a rational point as (int row, scale): row_U times den(a) den(b) D^top.

    x^(h-k) y^k = X^(h-k) Y^k / D^h with X = num(x) den(y), Y = num(y) den(x), D = den(x) den(y).
    """
    top = max(p, q, 1) - 1
    dx, dy = x.denominator, y.denominator
    px, py = ([v**e for e in range(top + 1)] for v in (x.numerator * dy, y.numerator * dx))
    d, da, db = dx * dy, a.denominator, b.denominator
    ca = a.numerator * db * d ** (top + 1 - p)
    cb = b.numerator * da * d ** (top + 1 - q)
    return [ca * px[p - 1 - k] * py[k] for k in range(p)] + [
        cb * px[q - 1 - k] * py[k] for k in range(q)
    ], da * db * d**top


def _square(rows):
    return RingMatrix(len(rows), len(rows), [v for row in rows for v in row])


def build_V(p, q, xs, as_):
    """(p+q) x (p+q) two-block matrix, row i = row_V(p, q, x_i, a_i)."""
    n = p + q
    _require_length("xs", xs, n)
    _require_length("as_", as_, n)
    return _square([row_V(p, q, x, a) for x, a in zip(xs, as_)])


def build_W(n, xs, as_):
    """n x n palindromic-row matrix, row i = row_W(n, x_i, a_i)."""
    _require_length("xs", xs, n)
    _require_length("as_", as_, n)
    return _square([row_W(n, x, a) for x, a in zip(xs, as_)])


def build_U(p, q, xs, ys, as_, bs):
    """Homogeneous bidegree matrix, row i = row_U(p, q, x_i, y_i, a_i, b_i)."""
    n = p + q
    for name, vec in (("xs", xs), ("ys", ys), ("as_", as_), ("bs", bs)):
        _require_length(name, vec, n)
    return _square([row_U(p, q, *point) for point in zip(xs, ys, as_, bs)])


def _shift_exponents(p, q, lam, mu):
    """Column exponents of the shifted matrix: lam_{p-k} + k, then mu_{q-k} + k."""
    if lam.length() > p:
        raise TooLongError(f"{lam} longer than p={p}")
    if mu.length() > q:
        raise TooLongError(f"{mu} longer than q={q}")
    return [lam.part(p - 1 - k) + k for k in range(p)], [mu.part(q - 1 - k) + k for k in range(q)]


def build_V_shifted(p, q, lam, mu, xs, as_):
    """Exponent-shifted variant: row i = (x_i^{lam_p}, x_i^{lam_{p-1}+1}, .., a_i x_i^{mu_1+q-1}).

    Column k (0-based) of the first block has exponent lam_{p-k} + k, and of
    the second block mu_{q-k} + k with an a_i factor; empty shifts reproduce
    build_V.
    """
    n = p + q
    _require_length("xs", xs, n)
    _require_length("as_", as_, n)
    exps_x, exps_a = _shift_exponents(p, q, lam, mu)
    top = max(exps_x + exps_a, default=0)
    data = []
    for x, a in zip(xs, as_):
        pw = _powers(x, top)
        data.extend(pw[e] for e in exps_x)
        data.extend(a * pw[e] for e in exps_a)
    return RingMatrix(n, n, data)


def partition_family(tag, n):
    """The families P/Q/R of Frobenius-symmetric-offset partitions bounded by n.

    P: shapes (alpha | alpha+1) with length <= n (i.e. alpha_1 + 2 <= n);
    Q: shapes (alpha+1 | alpha) with length <= n;
    R: shapes (alpha | alpha) with length <= n.
    Deterministic order: by size, then by parts.
    """
    if tag not in ("P", "Q", "R"):
        raise ValueError(f"unknown family {tag!r}")
    amax = n - 2 if tag == "P" else n - 1
    members = []
    for size in range(0, max(amax + 1, 0) + 1):
        for arms in combinations(range(amax, -1, -1), size):
            if tag == "P":
                lam = Partition.from_frobenius(arms, tuple(a + 1 for a in arms))
            elif tag == "Q":
                lam = Partition.from_frobenius(tuple(a + 1 for a in arms), arms)
            else:
                lam = Partition.from_frobenius(arms, arms)
            members.append(lam)
    members.sort(key=lambda lam: (lam.size(), lam.parts))
    return members


def fgh_sum(tag, p, q, xs, as_):
    """The signed sums F/G/H of shifted-matrix determinants over the P/Q/R families.

    Every shifted matrix selects its columns from one table: x_i^e and
    a_i x_i^e for e up to the largest exponent `top` of the family.  Its
    integral row i is int_row_V(top + 1, top + 1, x_i, a_i), so each term is
    a minor of that table (on rational points an integer one, all taken in
    one shared elimination), and the sum is divided once by the product of
    the row scales, which is 1 on polynomials.
    """
    n = p + q
    _require_length("xs", xs, n)
    _require_length("as_", as_, n)
    terms, top, col_lists = _fgh_terms(tag, p, q)
    rows = [int_row_V(top + 1, top + 1, x, a) for x, a in zip(xs, as_)]
    values = minors([row for row, _ in rows], col_lists)
    total = sum(-m if odd else m for m, (_, _, odd) in zip(values, terms))
    return over(total, prod(scale for _, scale in rows))


@cache
def _fgh_terms(tag, p, q):
    """fgh_sum's terms [(lam, mu, odd)], top exponent and power-table columns per (tag, p, q).

    The lambda-block columns come first, so the terms of one lambda share elimination steps.
    """
    family = {"F": "P", "G": "Q", "H": "R"}.get(tag)
    if family is None:
        raise ValueError(f"unknown sum {tag!r}")
    terms = []
    for lam in partition_family(family, p):
        for mu in partition_family(family, q):
            if tag == "H":
                exponent = lam.size() + lam.diagonal() + mu.size() + mu.diagonal()
            else:
                exponent = lam.size() + mu.size()
            assert exponent % 2 == 0, "family member breaks the sign parity"
            terms.append((lam, mu, (exponent // 2) % 2))
    shifts = [_shift_exponents(p, q, lam, mu) for lam, mu, _ in terms]
    top = max((e for exps_x, exps_a in shifts for e in exps_x + exps_a), default=0)
    col_lists = tuple(tuple(ex + [top + 1 + e for e in ea]) for ex, ea in shifts)
    return tuple(terms), top, col_lists


def build_DBC(tag, r):
    """The +-1 band matrices: D is r x (2r-1), B is r x 2r, C is r x (2r+1).

    Row i carries a (negated for B/C) unit at column r-1-i and a unit at
    column r-1+i, r+i, r+1+i respectively; D at r=1 degenerates to [1].
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    shift = {"D": 0, "B": 1, "C": 2}.get(tag)
    if shift is None:
        raise ValueError(f"unknown band matrix {tag!r}")
    left = Fraction(1) if tag == "D" else Fraction(-1)
    cols = 2 * r - 1 + shift
    data = [Fraction(0)] * (r * cols)
    for i in range(r):
        data[i * cols + (r - 1 - i)] = left
        data[i * cols + (r - 1 + shift + i)] = Fraction(1)
    return RingMatrix(r, cols, data)
