"""Exact determinants, Pfaffians, minors and hyperpfaffians over a commutative ring.

Scalars are int, Fraction or integer Polynomial (see poly.py); every algorithm
here uses ring operations only, except the rational fast paths which may divide.
A rational determinant scales each row by the lcm of its denominators, runs
fraction-free Bareiss elimination on plain ints and divides by the product
of the row scales once.  `clear_rows` and `minors_int` expose that route:
a family of minors of one rational table is cleared once and taken over
the integers in one elimination, whose steps the minors share along
common column prefixes.  `minors` takes integral Polynomial rows too, and
`over` divides any value by its scale.  A rational matrix product clears the
rows of its left factor and the columns of its right one, takes every dot
product on ints and divides each entry once by its row and column scales.
Every rational Pfaffian scales row and column i by the lcm of row i's
denominators and runs fraction-free skew elimination on plain ints.  One
division-free expansion along the smallest index, memoized on index subsets
and summing the polynomial products of each level in one term map, takes
every other Pfaffian and, as the Pfaffian of the block matrix [[0, A],
[-A^T, 0]], every other determinant up to dimension 12 and every cleared
one whose entries are not all rational (rational ones take the int pairs
times the product of the denominators); beyond, polynomial rows take
`minors_int`.  A skew matrix with a zero row is 0 before either Pfaffian
route runs.  Hyperpfaffians sum over unordered set partitions, each
enumerated once with its sign carried down the recursion and its last
block read off directly.
"""

from fractions import Fraction
from itertools import combinations, repeat
from math import lcm, prod
from operator import mul as _times

from .poly import Polynomial, dot

DET_EXPAND_MAX_DIM = 12
HYPERPFAFFIAN_DIM_CAP = 12


class NonSquareError(ValueError):
    """Determinant of a non-square matrix was requested."""


class DimensionMismatchError(ValueError):
    """Matrix dimensions do not line up for the requested product."""


class IndexBoundsError(IndexError):
    """A row/column selector is out of bounds or not strictly increasing."""


class OddIndexSetError(ValueError):
    """A subpfaffian was requested on an odd number of indices."""


class OddOrderError(ValueError):
    """A blocked tensor was requested with odd block size."""


class DimNotDivisibleError(ValueError):
    """Tensor dimension is not a multiple of the block size."""


class EnumerationCapError(ValueError):
    """The hyperpfaffian enumeration cap (dimension 12) was exceeded."""


def _check_index_set(idx, bound):
    idx = tuple(idx)
    for k, i in enumerate(idx):
        if not 0 <= i < bound:
            raise IndexBoundsError(f"index {i} outside 0..{bound - 1}")
        if k and idx[k - 1] >= i:
            raise IndexBoundsError("index set must be strictly increasing")
    return idx


def _all_rational(values):
    return all(map(isinstance, values, repeat((int, Fraction))))


class RingMatrix:
    """Dense rectangular matrix of ring scalars, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        data = list(data)
        if len(data) != rows * cols:
            raise DimensionMismatchError(
                f"expected {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self.data = data

    def at(self, i, j):
        return self.data[i * self.cols + j]

    def row_list(self, i):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def transpose(self):
        return RingMatrix(
            self.cols,
            self.rows,
            [self.at(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def minor(self, row_idx, col_idx):
        """Submatrix on strictly increasing row/column index sets."""
        row_idx = _check_index_set(row_idx, self.rows)
        col_idx = _check_index_set(col_idx, self.cols)
        return RingMatrix(
            len(row_idx),
            len(col_idx),
            [self.at(i, j) for i in row_idx for j in col_idx],
        )

    def delete(self, del_rows, del_cols):
        """Submatrix with the listed rows and columns removed."""
        keep_r = tuple(i for i in range(self.rows) if i not in set(del_rows))
        keep_c = tuple(j for j in range(self.cols) if j not in set(del_cols))
        return self.minor(keep_r, keep_c)

    def mul(self, other):
        if self.cols != other.rows:
            raise DimensionMismatchError("inner dimensions differ")
        if _all_rational(self.data) and _all_rational(other.data):
            left, row_scales = clear_rows(self.row_list(i) for i in range(self.rows))
            right, col_scales = clear_rows(other.data[j :: other.cols] for j in range(other.cols))
            out = [
                Fraction(sum(map(_times, row, col)), rs * cs)
                for row, rs in zip(left, row_scales)
                for col, cs in zip(right, col_scales)
            ]
            return RingMatrix(self.rows, other.cols, out)
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = Fraction(0)
                for k in range(self.cols):
                    acc = acc + self.at(i, k) * other.at(k, j)
                out.append(acc)
        return RingMatrix(self.rows, other.cols, out)

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols})"


class SkewMatrix:
    """Skew-symmetric matrix storing only the strict upper triangle.

    Antisymmetry is structural: entry(i, j) negates the stored value for
    i > j and the diagonal is identically zero.
    """

    __slots__ = ("dim", "upper")

    def __init__(self, dim, upper=None):
        self.dim = dim
        store = {}
        if upper:
            for (i, j), value in upper.items():
                if not (0 <= i < j < dim):
                    raise IndexBoundsError(f"upper-triangle key ({i},{j}) invalid")
                if value:
                    store[(i, j)] = value
        self.upper = store

    @classmethod
    def from_upper_function(cls, dim, entry):
        return cls(
            dim,
            {(i, j): entry(i, j) for i in range(dim) for j in range(i + 1, dim)},
        )

    def entry(self, i, j):
        if i == j:
            return Fraction(0)
        if i < j:
            return self.upper.get((i, j), Fraction(0))
        value = self.upper.get((j, i))
        return Fraction(0) if value is None else -value

    def principal(self, idx):
        """Principal submatrix on a strictly increasing index set."""
        idx = _check_index_set(idx, self.dim)
        pos = {v: k for k, v in enumerate(idx)}
        upper = {}
        for (i, j), value in self.upper.items():
            if i in pos and j in pos:
                upper[(pos[i], pos[j])] = value
        return SkewMatrix(len(idx), upper)

    def to_matrix(self):
        return RingMatrix(
            self.dim,
            self.dim,
            [self.entry(i, j) for i in range(self.dim) for j in range(self.dim)],
        )

    def __repr__(self):
        return f"SkewMatrix(dim={self.dim})"


class AlternatingTensor:
    """Alternating tensor of a given order on indices 0..dim-1.

    Values are stored on strictly increasing index tuples only; access by an
    arbitrary tuple applies the permutation sign and repeated indices give 0.
    """

    __slots__ = ("order", "dim", "values")

    def __init__(self, order, dim, values=None):
        self.order = order
        self.dim = dim
        store = {}
        if values:
            for idx, value in values.items():
                idx = _check_index_set(idx, dim)
                if len(idx) != order:
                    raise DimensionMismatchError("tensor key of wrong order")
                if value:
                    store[idx] = value
        self.values = store

    @classmethod
    def from_function(cls, order, dim, value):
        """The tensor with value(idx) at each sorted idx; `combinations` keys need no check."""
        tensor = cls(order, dim)
        values = ((idx, value(idx)) for idx in combinations(range(dim), order))
        tensor.values = {idx: v for idx, v in values if v}
        return tensor

    def __repr__(self):
        return f"AlternatingTensor(order={self.order}, dim={self.dim})"


def clear_rows(rows):
    """Rows of ints/Fractions as int rows, and the list of row scales.

    Row i is multiplied by the lcm of its denominators, which makes it
    integral; a minor on all the rows, any columns, is the rational minor
    times the product of the scales.  A family of minors of one rational
    table is cleared once and then taken over the integers.  A Polynomial
    is integral, so polynomial rows come back as they are, with scales 1.
    """
    rows = list(rows)
    scales = [lcm(*[v.denominator for v in row]) for row in rows]
    return [[v.numerator * (s // v.denominator) for v in row] for row, s in zip(rows, scales)], scales


def minors_int(rows, col_lists):
    """The determinant of the rows `rows` on each column list in `col_lists`.

    The rows hold ints or Polynomials; every quotient the elimination
    takes is exact, so `//` divides exactly on both.

    Fraction-free Bareiss elimination shared along common column prefixes.
    After k steps, entry (i, j) of a remaining row is the minor on the k
    pivot rows and columns plus row i and column j (Sylvester's identity),
    so the lists that begin with the same k columns share those k steps,
    row swaps included.  The lists are grouped by their next column, each
    group takes one step, and only the columns its lists still need are
    updated.  A group whose column is zero on every remaining row has only
    zero minors.  With two rows left, each list is finished by one 2 x 2
    determinant divided by the last pivot.  Zero rows give 1 on every list.
    """
    n = len(rows)
    col_lists = [tuple(cols) for cols in col_lists]
    for cols in col_lists:
        if len(cols) != n:
            raise DimensionMismatchError(f"column list of length {len(cols)} for {n} rows")
    if n == 0:
        return [1] * len(col_lists)
    if n == 1:
        return [rows[0][c] for (c,) in col_lists]
    out = [0] * len(col_lists)
    where = {j: j for cols in col_lists for j in cols}
    _minors_step(list(rows), where, 0, 1, 1, list(enumerate(col_lists)), out)
    return out


def minors(rows, col_lists):
    """The minors of `rows` on `col_lists`: one `minors_int` on int rows, else `det` on each."""
    if all(type(v) is int for row in rows for v in row):
        return minors_int(rows, col_lists)
    n = len(rows)
    return [det(RingMatrix(n, n, [row[c] for row in rows for c in cols])) for cols in col_lists]


def over(value, scale):
    """value / scale, the inverse of clearing; a Fraction when both are rational."""
    if isinstance(value, (int, Fraction)) and isinstance(scale, int):
        return Fraction(value, scale)
    return value if scale == 1 else value / scale


def _minors_step(a, where, k, sign, prev, group, out):
    """Write into `out` the minors of the (position, columns) pairs in `group`.

    Every list in `group` begins with the k columns already eliminated.  `a`
    holds the rows not yet pivoted, with column j at position where[j];
    `prev` is the last pivot and `sign` the sign of the row swaps so far.
    """
    if len(a) == 2:
        r0, r1 = a
        for pos, cols in group:
            c, d = where[cols[k]], where[cols[k + 1]]
            out[pos] = sign * ((r0[c] * r1[d] - r1[c] * r0[d]) // prev)
        return
    by_column = {}
    for item in group:
        by_column.setdefault(item[1][k], []).append(item)
    for c, sub in by_column.items():
        c = where[c]
        for i, pivot_row in enumerate(a):
            if pivot_row[c]:
                break
        else:
            continue
        # the swap of rows 0 and i, with the pivot row taken out
        rest = a[1:] if i == 0 else a[1:i] + [a[0]] + a[i + 1 :]
        pivot = pivot_row[c]
        needed = list(dict.fromkeys(j for _, cols in sub for j in cols[k + 1 :]))
        at = [where[j] for j in needed]
        new = []
        for row in rest:
            lead = row[c]
            new.append([(row[t] * pivot - lead * pivot_row[t]) // prev for t in at])
        where_new = {j: t for t, j in enumerate(needed)}
        _minors_step(new, where_new, k + 1, sign if i == 0 else -sign, pivot, sub, out)


def _det_bareiss(m):
    """Determinant of a polynomial matrix by the Bareiss elimination of `minors_int`.

    Its other entries are integers, lifted to constant polynomials first,
    since an int cannot be divided by a Polynomial.
    """
    table = next(v.table for v in m.data if isinstance(v, Polynomial))
    rows = [
        [v if isinstance(v, Polynomial) else Polynomial.const(table, v) for v in m.row_list(i)]
        for i in range(m.rows)
    ]
    (value,) = minors_int(rows, [range(m.cols)])
    return value


def _det_expand(m):
    """Determinant of a square matrix as the Pfaffian of its block embedding."""
    return _block_pfaffian(m.rows, m.at, None)


def det(m):
    """Exact determinant of a square RingMatrix; a Fraction when every entry is rational.

    Up to dimension 12 a matrix with a non-rational entry is the Pfaffian of
    its block embedding, by the memoized expansion that such Pfaffians take.
    """
    if m.rows != m.cols:
        raise NonSquareError(f"matrix is {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return Fraction(1)
    if _all_rational(m.data):
        pairs = [(v.numerator, v.denominator) for v in m.data]
        return det_of_ratios([pairs[i * n : (i + 1) * n] for i in range(n)])
    if n > DET_EXPAND_MAX_DIM:
        return _det_bareiss(m)
    return _det_expand(m)


def _pf_expand(a):
    """Division-free Pfaffian by expansion along the smallest index, memoized on subsets."""
    return _pf_cleared(a.entry, None, tuple(range(a.dim)), {(): Fraction(1)})


def pfaffian_of_ratios(n, upper):
    """Pf of the even-dimensional skew matrix with entries num/den, as a Fraction.

    `upper` maps pairs i < j to int pairs (num, den), den != 0 of either
    sign.  Row and column i are scaled by the (positive) lcm l_i of the
    denominators on index i, which makes every entry an int and multiplies
    the Pfaffian by prod(l_i).  Step k pivots on the pair (k, k+1) and
    overwrites each entry (i, j) with i, j > k+1 by the sub-Pfaffian on
    {0..k+1, i, j}; the division by the previous pivot, itself the
    sub-Pfaffian on {0..k-1}, is exact (Knuth's overlapping-Pfaffian
    identity).  Only the upper triangle is kept current, except when a zero
    pivot forces a swap.
    """
    scales = [1] * n
    for (i, j), (_, d) in upper.items():
        scales[i] = lcm(scales[i], d)
        scales[j] = lcm(scales[j], d)
    m = [[0] * n for _ in range(n)]
    for (i, j), (v, d) in upper.items():
        m[i][j] = v * (scales[i] // d) * scales[j]
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        if not m[k][k + 1]:
            for c in range(k + 2, n):
                if m[k][c]:
                    break
            else:
                return Fraction(0)
            for i in range(k, n):
                for j in range(i + 1, n):
                    m[j][i] = -m[i][j]
            m[k + 1], m[c] = m[c], m[k + 1]
            for row in m[k:]:
                row[k + 1], row[c] = row[c], row[k + 1]
            sign = -sign
        rk, rk1 = m[k], m[k + 1]
        p = rk[k + 1]
        for i in range(k + 2, n):
            row, ki, k1i = m[i], rk[i], rk1[i]
            for j in range(i + 1, n):
                row[j] = (p * row[j] - ki * rk1[j] + rk[j] * k1i) // prev
        prev = p
    return Fraction(sign * prev, prod(scales))


def det_of_ratios(rows):
    """det of the matrix whose rows hold int pairs (num, den), den != 0, as a Fraction.

    Each row is scaled by the (positive) lcm of its denominators for `minors_int`.
    """
    scales = [lcm(*[d for _, d in row]) for row in rows]
    cleared = [[v * (s // d) for v, d in row] for row, s in zip(rows, scales)]
    (value,) = minors_int(cleared, [range(len(rows))])
    return Fraction(value, prod(scales))


def pfaffian(a):
    """Exact Pfaffian of a SkewMatrix.

    Odd dimensions return 0 (the empty perfect-matching sum) and dimension
    0 returns 1.  A matrix with an index that no stored entry touches has a
    zero row, so it returns 0 before any dense matrix is built.  Rational
    matrices take the fraction-free elimination, whatever their dimension;
    a matrix with a polynomial entry takes the memoized expansion.
    """
    n = a.dim
    if n == 0:
        return Fraction(1)
    if n % 2 or len({i for pair in a.upper for i in pair}) < n:
        return Fraction(0)
    if _all_rational(a.upper.values()):
        return pfaffian_of_ratios(n, {k: (v.numerator, v.denominator) for k, v in a.upper.items()})
    return _pf_expand(a)


def sub_pfaffian(a, idx):
    """Pfaffian of the principal submatrix on an even strictly increasing index set."""
    idx = _check_index_set(idx, a.dim)
    if len(idx) % 2:
        raise OddIndexSetError("subpfaffian needs an even index set")
    return pfaffian(a.principal(idx))


def sub_pfaffians(a, index_sets):
    """{idx: Pf of the principal submatrix on idx} over even strictly increasing index sets.

    Memoized expansion along the smallest index, with one memo shared by
    all the index sets, so a sub-Pfaffian they have in common is taken once.
    """
    memo = {(): 1}
    out = {}
    for idx in index_sets:
        idx = _check_index_set(idx, a.dim)
        if len(idx) % 2:
            raise OddIndexSetError("subpfaffian needs an even index set")
        out[idx] = _pf_cleared(a.entry, None, idx, memo)
    return out


def congruence_product(x, a):
    """The exactly-skew product X A X^T as a SkewMatrix."""
    if x.cols != a.dim:
        raise DimensionMismatchError("X columns must match A dimension")
    return SkewMatrix.from_upper_function(x.rows, x.mul(a.to_matrix()).mul(x.transpose()).at)


def congruence_pfaffian(x, a):
    """Pf(X A X^T) for a 2n x N matrix X and an N x N skew matrix A."""
    return pfaffian(congruence_product(x, a))


def _partition_sum(values, n, remaining):
    """Signed sum over the partitions of `remaining` into sorted blocks of size n.

    `values` maps each sorted block to its nonzero tensor value.  Each
    partition is enumerated once, with the block that holds the smallest
    remaining index first; its sign is that of the concatenated blocks as a
    permutation.  A block at positions 0 = p_0 < p_1 < ... of `remaining`
    leaves sum(p_s - s) smaller indices to be placed after it, so the parity
    of that count is the sign it contributes.  The last block is `remaining`
    itself.  Blocks with a zero value are pruned; None stands for a sum
    with no nonzero term.
    """
    if len(remaining) == n:
        return values.get(remaining)
    first = remaining[0]
    acc = None
    for pos in combinations(range(1, len(remaining)), n - 1):
        value = values.get((first, *[remaining[q] for q in pos]))
        if not value:
            continue
        taken = set(pos)
        rest = tuple(v for q, v in enumerate(remaining) if q and q not in taken)
        sub = _partition_sum(values, n, rest)
        if not sub:
            continue
        value = value * sub
        if (sum(pos) - n * (n - 1) // 2) % 2:
            value = -value
        acc = value if acc is None else acc + value
    return acc


def hyperpfaffian(t):
    """Hyperpfaffian of an alternating tensor of order n on dim = n*r indices.

    The sum over ordered partitions of the index set into r sorted blocks of
    size n of sgn(sigma) times the product of tensor values, divided by r!.
    For even n the r! orderings of one partition share a sign, so the result
    is the signed sum over unordered partitions, each enumerated once; for
    odd n and r >= 2 the orderings cancel in pairs and the result is 0.
    Dimension capped at 12.
    """
    n = t.order
    if t.dim % n:
        raise DimNotDivisibleError(f"dim {t.dim} not a multiple of order {n}")
    if t.dim > HYPERPFAFFIAN_DIM_CAP:
        raise EnumerationCapError(f"hyperpfaffian capped at dim {HYPERPFAFFIAN_DIM_CAP}")
    if t.dim == 0:
        return Fraction(1)
    if n % 2 and t.dim > n:
        return Fraction(0)
    total = _partition_sum(t.values, n, tuple(range(t.dim)))
    return Fraction(0) if total is None else total


def blocked_tensor(a, n):
    """Order-n tensor whose entry at each sorted n-tuple is the subpfaffian of `a` there."""
    if n % 2:
        raise OddOrderError("block size must be even")
    if a.dim % n:
        raise DimNotDivisibleError(f"dim {a.dim} not a multiple of {n}")
    return AlternatingTensor(
        n,
        a.dim,
        {idx: sub_pfaffian(a, idx) for idx in combinations(range(a.dim), n)},
    )


def _ratios(num, den, pairs):
    """num/den on `pairs` as int pairs, and prod den; (None, None) if one is not rational."""
    dens = [den(i, j) for i, j in pairs]
    if not _all_rational(dens):
        return None, None
    nums = [num(i, j) for i, j in pairs]
    if not _all_rational(nums):
        return None, None
    ratios = [(a.numerator * b.denominator, a.denominator * b.numerator) for a, b in zip(nums, dens)]
    return ratios, Fraction(prod(b.numerator for b in dens), prod(b.denominator for b in dens))


def det_with_denominators(n, num, den):
    """det(num_ij / den_ij) * prod_ij den_ij on n x n.

    `num` and `den` are callables on pairs (i, j), as for
    `pfaffian_with_denominators`, den nonzero.  Rational entries take
    `det_of_ratios` times prod den, any others the cleared block Pfaffian.
    """
    ratios, dens = _ratios(num, den, [(i, j) for i in range(n) for j in range(n)])
    if ratios is None:
        return _block_pfaffian(n, num, den)
    return det_of_ratios([ratios[i * n : (i + 1) * n] for i in range(n)]) * dens


def _block_pfaffian(n, num, den):
    """det(num_ij / den_ij) * prod_ij den_ij as (-1)^(n(n-1)/2) Pf [[0, A], [-A^T, 0]].

    The cross pairs (i, n + j) take num(i, j) over den(i, j), the pairs
    inside a block 0 over 1; den None is all ones.
    """

    def block(f, inside):
        return lambda i, j: f(i, j - n) if i < n <= j else inside

    cleared = None if den is None else block(den, 1)
    value = _pf_cleared(block(num, 0), cleared, tuple(range(2 * n)), {(): Fraction(1)})
    return -value if n * (n - 1) // 2 % 2 else value


def pfaffian_with_denominators(dim, num, den):
    """Pf(num_ij / den_ij) * prod_{i<j} den_ij.

    `num` and `den` are callables on pairs i < j; num is the strict upper
    triangle of a skew matrix, den symmetric and nonzero.  Rational entries
    take `pfaffian_of_ratios` times prod den; any others, without division,
    the expansion along the smallest index memoized on index subsets, with
    the unmatched denominators multiplied back in at each step.
    """
    if dim % 2:
        return Fraction(0)
    pairs = list(combinations(range(dim), 2))
    ratios, dens = _ratios(num, den, pairs)
    if ratios is None:
        return _pf_cleared(num, den, tuple(range(dim)), {(): Fraction(1)})
    return pfaffian_of_ratios(dim, dict(zip(pairs, ratios))) * dens


# The recursion is a module-level function that takes its memo as an
# argument: a closure that calls itself is a reference cycle, which would keep
# its memo of polynomials alive until the cyclic garbage collector runs.
def _pf_cleared(num, den, idx, memo):
    """Pf(num/den) times the product of den over the pairs inside idx; den None is all ones."""
    cached = memo.get(idx)
    if cached is not None:
        return cached
    first = idx[0]
    rest = idx[1:]
    acc = None
    pair = pairs = None  # the first product of two Polynomials; all of them once there are two
    for t, j in enumerate(rest):
        entry = num(first, j)
        if not entry:
            continue
        if t % 2:
            entry = -entry
        if den is not None:
            # pairs inside idx that touch `first` or `j`, except (first, j) itself;
            # the small factors go onto the entry before the sub-Pfaffian
            for u in rest:
                if u != j:
                    entry = entry * den(first, u)
            for u in rest:
                if u != j:
                    entry = entry * den(min(u, j), max(u, j))
        sub = _pf_cleared(num, den, rest[:t] + rest[t + 1 :], memo)
        if type(entry) is Polynomial is type(sub) and sub.terms:
            if pair is None:
                pair = entry, sub
            else:
                pairs = pairs or [pair]
                pairs.append((entry, sub))
        else:
            acc = entry * sub if acc is None else acc + entry * sub
    if pair is not None:
        term = pair[0] * pair[1] if pairs is None else dot(pairs)  # the kernel sums two or more
        acc = term if acc is None else acc + term
    if acc is None:
        acc = Fraction(0)
    memo[idx] = acc
    return acc
