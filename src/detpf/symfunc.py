"""Partitions and symmetric-function primitives.

Partitions carry the combinatorics (construction from Frobenius lists,
rectangle complements, index sets); Schur functions are computed in finitely
many variables.  When the values are distinct generators of one variable
table, the branching rule sums monomials with no polynomial product;
otherwise a Jacobi-Trudi determinant of complete homogeneous polynomials
does (both work for skew shapes and any number of variables; straight
shapes lose their full columns first).  The bialternant quotient (straight
shapes, enough variables) is the cross-check that the tests and the
benchmark keep.  All evaluators accept arbitrary ring scalars, so the same
code produces polynomials from generators and exact values from rationals.
"""

import math
from fractions import Fraction
from itertools import product

from . import linalg
from .linalg import RingMatrix
from .poly import EXPONENT_CAP, SLOT_BITS, ExponentCapError, Polynomial


class PartitionError(ValueError):
    """Invalid partition data."""


class NotInBoxError(PartitionError):
    """A partition does not fit in the requested rectangle."""


class TooLongError(PartitionError):
    """A partition is longer than the operation allows."""


class Partition:
    """Weakly decreasing positive integer parts; trailing zeros are trimmed."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        ps = [int(p) for p in parts]
        while ps and ps[-1] == 0:
            ps.pop()
        for k, p in enumerate(ps):
            if p < 0:
                raise PartitionError("negative part")
            if k and ps[k - 1] < p:
                raise PartitionError("parts must be weakly decreasing")
        self.parts = tuple(ps)

    @classmethod
    def box(cls, a, b):
        """The rectangle with a rows of length b."""
        return cls((b,) * a if b else ())

    @classmethod
    def staircase(cls, k):
        """(k, k-1, ..., 1); empty for k = 0."""
        return cls(range(k, 0, -1))

    @classmethod
    def from_text(cls, text):
        """Parse the bracket form, e.g. "[3,2,1]" or "[]"."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise PartitionError(f"bad partition text {text!r}")
        body = text[1:-1].strip()
        if not body:
            return cls()
        try:
            parts = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise PartitionError(f"bad partition text {text!r}") from None
        return cls(parts)

    @classmethod
    def from_frobenius(cls, arms, legs):
        """Partition with the given strictly decreasing arm/leg lists."""
        arms = tuple(arms)
        legs = tuple(legs)
        if len(arms) != len(legs):
            raise PartitionError("arm/leg length mismatch")
        for seq in (arms, legs):
            for k, v in enumerate(seq):
                if v < 0 or (k and seq[k - 1] <= v):
                    raise PartitionError("Frobenius lists must strictly decrease")
        d = len(arms)
        rows = [arms[i] + i + 1 for i in range(d)]
        max_len = legs[0] + 1 if d else 0
        for i in range(d + 1, max_len + 1):
            rows.append(sum(1 for j in range(d) if legs[j] + j + 1 >= i))
        return cls(rows)

    def size(self):
        return sum(self.parts)

    def length(self):
        return len(self.parts)

    def part(self, i):
        """0-based part access; zero beyond the length."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def contains(self, other):
        """Componentwise containment of Young diagrams."""
        return all(self.part(i) >= other.part(i) for i in range(other.length()))

    def diagonal(self):
        """Length of the main diagonal of the Young diagram."""
        return sum(1 for i, p in enumerate(self.parts) if p >= i + 1)

    def complement(self, a, b):
        """Complement in the a x b rectangle: i-th part is b - lam_{a+1-i}."""
        if self.length() > a or (self.parts and self.parts[0] > b):
            raise NotInBoxError(f"{self} not inside {a}x{b}")
        return Partition(b - self.part(a - 1 - i) for i in range(a))

    def text(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)!r})"


def partitions_in_box(rows, cols):
    """All partitions with at most `rows` parts, each at most `cols`, deterministic order."""
    out = []
    _box_partitions([], cols, rows, out)
    out.sort(key=lambda lam: (lam.size(), lam.parts))
    return out


def _box_partitions(prefix, maxpart, remaining_rows, out):
    """Append `prefix` and every extension of it by at most `remaining_rows`
    parts, each at most `maxpart`, to `out`."""
    out.append(Partition(prefix))
    if remaining_rows:
        for p in range(maxpart, 0, -1):
            _box_partitions(prefix + [p], p, remaining_rows - 1, out)


def index_set(lam, r):
    """I(lam) = {lam_r, lam_{r-1}+1, ..., lam_1+r-1}, a strictly increasing r-set."""
    if lam.length() > r:
        raise TooLongError(f"{lam} longer than {r}")
    return tuple(lam.part(r - 1 - k) + k for k in range(r))


class SkewShape:
    """A skew diagram outer/inner with inner contained in outer."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner=None):
        inner = inner if inner is not None else Partition()
        if not outer.contains(inner):
            raise PartitionError(f"{inner} not contained in {outer}")
        self.outer = outer
        self.inner = inner

    def __repr__(self):
        return f"SkewShape({self.outer!r}/{self.inner!r})"


def _check_degree(r):
    if r > EXPONENT_CAP:
        raise ExponentCapError(f"degree {r} exceeds the exponent cap {EXPONENT_CAP}")


def _generator_keys(values):
    """The packed monomials of `values` if they are distinct generators of one
    table (one-term monic monomials of degree 1), else None."""
    keys = []
    for v in values:
        if not isinstance(v, Polynomial) or v.table is not values[0].table or len(v.terms) != 1:
            return None
        ((key, coeff),) = v.terms.items()
        if coeff != 1 or key & (key - 1) or (key.bit_length() - 1) % SLOT_BITS:
            return None
        keys.append(key)
    return keys if keys and len(set(keys)) == len(keys) else None


def h_table(top, values):
    """[h_0, ..., h_top] of the given ring scalars; h_0 is the rational 1.

    For distinct generators h_d is the sum of the degree-d monomials, listed
    one variable at a time (those with x_k are x_k times the degree d - 1
    ones in x_1..x_k), so no product is made.  Other scalars take one pass
    of the same recurrence in ring operations, len(values) * top of them.  A
    degree above the polynomial exponent cap raises ExponentCapError up front.
    """
    _check_degree(top)
    keys = _generator_keys(values)
    if keys is not None:
        monomials = [[0]] + [[] for _ in range(top)]
        for key in keys:
            for d in range(1, top + 1):
                monomials[d] += [m + key for m in monomials[d - 1]]
        table = values[0].table
        return [Fraction(1)] + [Polynomial(table, dict.fromkeys(ms, 1)) for ms in monomials[1:]]
    h = [Fraction(1)] + [Fraction(0)] * top
    for v in values:
        for j in range(1, top + 1):
            h[j] = h[j] + v * h[j - 1]
    return h


def h_complete(r, values):
    """Complete homogeneous polynomial of degree r in the given ring scalars.

    h_0 = 1 and h_r = 0 for r < 0; otherwise the last entry of h_table(r).
    """
    if r < 0:
        return Fraction(0)
    return h_table(r, values)[r]


def schur_jacobi_trudi(shape, values):
    """Skew or straight Schur function of the given ring scalars.

    A straight shape in N = len(values) variables first loses its full
    columns (Macdonald I.3): s_lam is 0 when lam has more than N parts, and
    (x_1...x_N)^{lam_N} s_{lam - lam_N} when it has exactly N.  When the
    values are distinct generators, the branching rule sums the result with
    no product (`_branch`); otherwise it is the Jacobi-Trudi determinant of
    the h's of one h_table.  The exponent cap is checked as for the
    unstripped determinant, so the same shapes raise ExponentCapError on
    every route.
    """
    if isinstance(shape, Partition):
        shape = SkewShape(shape)
    outer, inner = shape.outer, shape.inner
    m = outer.length()
    if m == 0:
        return Fraction(1)
    factor = None
    if not inner.parts and m >= len(values):
        _check_degree(outer.part(0) + m - 1)
        if m > len(values):
            return Fraction(0)
        low = outer.part(m - 1)
        factor = math.prod(values) ** low
        outer = Partition(p - low for p in outer.parts)
        m = outer.length()
        if m == 0:
            return factor
    top = outer.part(0) - inner.part(m - 1) + m - 1
    keys = _generator_keys(values)
    if keys is not None:
        _check_degree(top)
        inner = tuple(inner.part(j) for j in range(m))
        value = Polynomial(values[0].table, _branch(outer.parts, len(keys), inner, keys, {}))
    else:
        hs = h_table(top, values)
        entries = []
        for i in range(m):
            for j in range(m):
                r = outer.part(i) - inner.part(j) - i + j
                entries.append(hs[r] if r >= 0 else Fraction(0))
        value = linalg.det(RingMatrix(m, m, entries))
    return value if factor is None else factor * value


def _branch(nu, k, inner, keys, memo):
    """Term map of s_{nu/inner}(x_1..x_k), where x_i has the packed monomial keys[i-1].

    The branching rule (Macdonald I.5 (5.11)): the sum over rho with nu/rho
    a horizontal strip, nu_{j+1} <= rho_j <= nu_j, of x_k^{|nu/rho|}
    s_{rho/inner}(x_1..x_{k-1}).  A column of rho/inner longer than k - 1
    makes that term 0, so rho_j is also at most inner_{j-k+1} (1-based);
    only rho = inner is left at k = 1.  Multiplying by x_k^d adds d times
    its key, and every coefficient is a positive count of tableaux, so
    nothing cancels.  `memo` maps (nu, k) to its term map; a module function
    rather than a self-calling closure, which would be a reference cycle.
    """
    if k == 0:
        return {0: 1}
    got = memo.get((nu, k))
    if got is not None:
        return got
    m = len(nu)
    ranges = []
    for j in range(m):
        lo = max(nu[j + 1] if j + 1 < m else 0, inner[j])
        hi = min(nu[j], inner[j - k + 1]) if j >= k - 1 else nu[j]
        if lo > hi:
            memo[nu, k] = {}
            return memo[nu, k]
        ranges.append(range(lo, hi + 1))
    size = sum(nu)
    key = keys[k - 1]
    out = {}
    get = out.get
    for rho in product(*ranges):
        shift = (size - sum(rho)) * key
        for t, c in _branch(rho, k - 1, inner, keys, memo).items():
            t += shift
            out[t] = get(t, 0) + c
    memo[nu, k] = out
    return out


def schur_bialternant(lam, values):
    """Straight-shape Schur function det(v_i^{lam_j + m - j}) / Vandermonde.

    Needs at least length(lam) values; exact division in the polynomial case.
    """
    if not isinstance(lam, Partition):
        raise PartitionError("bialternant route needs a straight shape")
    m = len(values)
    if lam.length() > m:
        raise TooLongError(f"{lam} needs at least {lam.length()} variables")
    numer = linalg.det(
        RingMatrix(
            m, m, [values[i] ** (lam.part(j) + m - (j + 1)) for i in range(m) for j in range(m)]
        )
    )
    delta = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            delta = delta * (values[i] - values[j])
    if isinstance(numer, Polynomial) or isinstance(delta, Polynomial):
        if not isinstance(numer, Polynomial):
            numer = Polynomial.const(delta.table, numer)
        return numer.exact_div(delta)
    return numer / delta


# the Schur (or skew Schur) function of a shape in the given scalars
schur = schur_jacobi_trudi
