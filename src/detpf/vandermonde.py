"""Builders for the structured matrices and signed partition sums.

Column orders follow the explicit small displays (the 5x5 two-block matrix
and the 5x5 palindromic-row matrix), which fix the conventions the row
descriptions leave ambiguous.  All constructors are generic over ring
scalars and pure.
"""

from fractions import Fraction
from itertools import combinations

from .linalg import RingMatrix, det
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


def build_V(p, q, xs, as_):
    """(p+q) x (p+q) matrix, row i = (1, x_i, .., x_i^{p-1}, a_i, a_i x_i, .., a_i x_i^{q-1})."""
    n = p + q
    _require_length("xs", xs, n)
    _require_length("as_", as_, n)
    data = []
    for x, a in zip(xs, as_):
        pw = _powers(x, max(p, q))
        data.extend(pw[:p])
        data.extend(a * pw[k] for k in range(q))
    return RingMatrix(n, n, data)


def build_W(n, xs, as_):
    """n x n matrix, column j (0-based) entry x_i^j + a_i x_i^{n-1-j}."""
    _require_length("xs", xs, n)
    _require_length("as_", as_, n)
    data = []
    for x, a in zip(xs, as_):
        pw = _powers(x, n - 1 if n else 0)
        data.extend(pw[j] + a * pw[n - 1 - j] for j in range(n))
    return RingMatrix(n, n, data)


def build_U(p, q, xs, ys, as_, bs):
    """Homogeneous bidegree matrix, row i = (a_i x_i^{p-1}, .., a_i y_i^{p-1}, b_i x_i^{q-1}, .., b_i y_i^{q-1})."""
    n = p + q
    for name, vec in (("xs", xs), ("ys", ys), ("as_", as_), ("bs", bs)):
        _require_length(name, vec, n)
    data = []
    top = max(p, q) - 1 if n else 0
    for x, y, a, b in zip(xs, ys, as_, bs):
        px = _powers(x, max(top, 0))
        py = _powers(y, max(top, 0))
        data.extend(a * px[p - 1 - k] * py[k] for k in range(p))
        data.extend(b * px[q - 1 - k] * py[k] for k in range(q))
    return RingMatrix(n, n, data)


def build_V_shifted(p, q, lam, mu, xs, as_):
    """Exponent-shifted variant: row i = (x_i^{lam_p}, x_i^{lam_{p-1}+1}, .., a_i x_i^{mu_1+q-1}).

    Column k (0-based) of the first block has exponent lam_{p-k} + k, and of
    the second block mu_{q-k} + k with an a_i factor; empty shifts reproduce
    build_V.
    """
    n = p + q
    _require_length("xs", xs, n)
    _require_length("as_", as_, n)
    if lam.length() > p:
        raise TooLongError(f"{lam} longer than p={p}")
    if mu.length() > q:
        raise TooLongError(f"{mu} longer than q={q}")
    exps_x = [lam.part(p - 1 - k) + k for k in range(p)]
    exps_a = [mu.part(q - 1 - k) + k for k in range(q)]
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
    """The signed sums F/G/H of shifted-matrix determinants over the P/Q/R families."""
    family = {"F": "P", "G": "Q", "H": "R"}.get(tag)
    if family is None:
        raise ValueError(f"unknown sum {tag!r}")
    n = p + q
    _require_length("xs", xs, n)
    _require_length("as_", as_, n)
    total = Fraction(0)
    for lam in partition_family(family, p):
        for mu in partition_family(family, q):
            if tag == "H":
                exponent = lam.size() + lam.diagonal() + mu.size() + mu.diagonal()
            else:
                exponent = lam.size() + mu.size()
            assert exponent % 2 == 0, "family member breaks the sign parity"
            term = det(build_V_shifted(p, q, lam, mu, xs, as_))
            if (exponent // 2) % 2:
                term = -term
            total = total + term
    return total


def build_DBC(tag, r):
    """The +-1 band matrices: D is r x (2r-1), B is r x 2r, C is r x (2r+1).

    Row i carries a (negated for B/C) unit at column r-1-i and a unit at
    column r-1+i, r+i, r+1+i respectively; D at r=1 degenerates to [1].
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if tag == "D":
        cols = 2 * r - 1
        data = [Fraction(0)] * (r * cols)
        for i in range(r):
            data[i * cols + (r - 1 - i)] = Fraction(1)
            data[i * cols + (r - 1 + i)] = Fraction(1)
        return RingMatrix(r, cols, data)
    if tag == "B":
        cols = 2 * r
        data = [Fraction(0)] * (r * cols)
        for i in range(r):
            data[i * cols + (r - 1 - i)] = Fraction(-1)
            data[i * cols + (r + i)] = Fraction(1)
        return RingMatrix(r, cols, data)
    if tag == "C":
        cols = 2 * r + 1
        data = [Fraction(0)] * (r * cols)
        for i in range(r):
            data[i * cols + (r - 1 - i)] = Fraction(-1)
            data[i * cols + (r + 1 + i)] = Fraction(1)
        return RingMatrix(r, cols, data)
    raise ValueError(f"unknown band matrix {tag!r}")
