"""Partitions and symmetric-function primitives.

Partitions carry the combinatorics (construction from Frobenius lists,
rectangle complements, index sets); Schur functions are computed in finitely
many variables, by Jacobi-Trudi determinants of complete homogeneous
polynomials (works for skew shapes and any number of variables; straight
shapes lose their full columns first) or by the bialternant quotient
(straight shapes, enough variables), which the tests and the benchmark keep
as the cross-check.  All evaluators accept arbitrary ring scalars, so the
same code produces polynomials from generators and exact values from
rationals.
"""

import math
from fractions import Fraction

from . import linalg
from .linalg import RingMatrix
from .poly import EXPONENT_CAP, ExponentCapError, Polynomial


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


def h_table(top, values):
    """[h_0, ..., h_top] of the given ring scalars, by one pass of the recurrence.

    Adds one variable at a time, so the cost is len(values) * top ring
    operations; a degree above the polynomial exponent cap raises
    ExponentCapError up front.
    """
    _check_degree(top)
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
    """Skew or straight Schur function as the Jacobi-Trudi determinant of h's.

    The h's come from one h_table.  A straight shape in N = len(values)
    variables first loses its full columns (Macdonald I.3): s_lam is 0 when
    lam has more than N parts, and (x_1...x_N)^{lam_N} s_{lam - lam_N} when
    it has exactly N.  The exponent cap is checked as for the unstripped
    determinant, so the same shapes raise ExponentCapError either way.
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
    hs = h_table(outer.part(0) - inner.part(m - 1) + m - 1, values)
    entries = []
    for i in range(m):
        for j in range(m):
            r = outer.part(i) - inner.part(j) - i + j
            entries.append(hs[r] if r >= 0 else Fraction(0))
    det = linalg.det(RingMatrix(m, m, entries))
    return det if factor is None else factor * det


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
