"""Littlewood-Richardson coefficients, two independent ways.

The oracle route counts lattice-word skew tableaux directly.  The
subpfaffian route builds the skew matrix B of h-polynomial coefficients
(Okada 1998), each entry a short sum read from one table of h_0..h_top per
alphabet, takes the principal Pfaffian on the index set of the target
partition, checks it symmetric under two generators of S_n and reads the
answer off its Schur expansion by the alternant formula; a third route
rewrites the near-rectangle problem through the complementation theorem.
All three agree on the common domain, which is the package's central
cross-check.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

from .linalg import SkewMatrix, pfaffian
from .poly import _SLOT_MASK, SLOT_BITS, Polynomial, VariableTable, _pack, _unpack
from .symfunc import (
    NotInBoxError,
    Partition,
    TooLongError,
    h_table,
    index_set,
    partitions_in_box,
)


def lr_bruteforce(lam, mu, nu):
    """c^lam_{mu,nu} by counting lattice-word semistandard fillings of lam/mu.

    Cells are filled row by row, right to left inside each row, which is
    exactly reverse reading-word order, so the lattice condition can be
    checked incrementally.
    """
    if lam.size() != mu.size() + nu.size():
        return 0
    if not lam.contains(mu):
        return 0
    if nu.size() == 0:
        return 1 if lam == mu else 0
    cells = [
        (i, j)
        for i in range(lam.length())
        for j in range(lam.part(i) - 1, mu.part(i) - 1, -1)
    ]
    return _count_fillings(0, cells, {}, [0] * (nu.length() + 1), nu)


def _count_fillings(pos, cells, grid, counts, nu):
    """Completions of the partial filling `grid` from cells[pos] on.

    `counts[v]` is how many filled cells hold v.  Cells are filled in
    reverse reading order, so the cells right of and above the current one
    are already in `grid` whenever they lie in the skew shape.  A module
    function rather than a self-calling closure, which would be a
    reference cycle.
    """
    if pos == len(cells):
        return 1
    i, j = cells[pos]
    right = grid.get((i, j + 1))
    above = grid.get((i - 1, j))
    total = 0
    lo = (above + 1) if above is not None else 1
    hi = right if right is not None else len(counts) - 1
    for v in range(lo, hi + 1):
        if counts[v] >= nu.part(v - 1):
            continue
        if v > 1 and counts[v] >= counts[v - 1]:
            continue
        grid[(i, j)] = v
        counts[v] += 1
        total += _count_fillings(pos + 1, cells, grid, counts, nu)
        counts[v] -= 1
        del grid[(i, j)]
    return total


def b_principal(idx, n, e, f, z_values, w_values):
    """Principal submatrix of the coefficient matrix B on the index set idx.

    idx is strictly increasing.  B_{k,l} is the coefficient of x^k y^l in
    (y-x) h_{e+n-1}(x,y,z) h_{f+n-1}(x,y,w).  For k < l it is the sum of
    h_i(z) h_j(w) over i+j = (e+n-1)+(f+n-1)+1-k-l with 0 <= i <= (e+n-1)-k
    and 0 <= j <= (f+n-1)-k, read from one h table per alphabet.  Only the
    nonzero h's of w enter the sum (an empty alphabet has h_0 = 1 alone), in
    increasing i, and a factor 1 makes no product.  B vanishes outside
    0..e+f+2n-1, so idx = range(e+f+2n) gives all of it.
    """
    top_z = e + n - 1
    top_w = f + n - 1
    hz = h_table(top_z, z_values)
    hw = [(j, b) for j, b in reversed(list(enumerate(h_table(top_w, w_values)))) if b]

    def entry(s, t):
        k, l = idx[s], idx[t]
        degree = top_z + top_w + 1 - k - l
        total = None
        for j, b in hw:
            i = degree - j
            if j <= top_w - k and 0 <= i <= top_z - k and hz[i]:
                a = hz[i]
                term = b if a == 1 else a if b == 1 else a * b
                total = term if total is None else total + term
        return 0 if total is None else total

    return SkewMatrix.from_upper_function(len(idx), entry)


@cache
def _alternant_shifts(n):
    """(packed sigma(delta), sgn sigma) for each permutation sigma of delta = (n-1, ..., 0)."""
    perms = permutations(range(n - 1, -1, -1))
    return tuple((_pack(q), (-1) ** sum(a < b for a, b in combinations(q, 2))) for q in perms)


def schur_expand(p):
    """Expand a symmetric polynomial in the Schur basis by the alternant formula.

    p is symmetric iff (z1 z2) and the n-cycle, which generate S_n, fix it;
    each moves the slots of a packed monomial by a few shifts.  Then c_lam is
    the coefficient sum_sigma sgn(sigma) p[lam + delta - sigma(delta)] of
    z^(lam+delta) in p a_delta (Macdonald I.3); a nonzero one makes that
    exponent a term of p, so lam has a degree of p and lam_1 is at most p's
    top exponent.  A slot that goes negative in the key subtraction borrows,
    setting a guard bit or the sign, and no term has such a key.
    """
    terms = p.terms
    n = len(p.table)
    s = SLOT_BITS
    swap = lambda k: k >> 2 * s << 2 * s | (k & _SLOT_MASK) << s | k >> s & _SLOT_MASK
    cycle = lambda k: (k << s) & ((1 << s * n) - 1) | k >> s * (n - 1)
    for move in (swap, cycle) if n > 1 else ():
        if any(terms.get(move(k)) != c for k, c in terms.items()):
            raise ValueError("polynomial is not symmetric")
    degrees = {sum(_unpack(k)) for k in terms}
    delta = _pack(range(n - 1, -1, -1))
    out = {}
    for lam in partitions_in_box(n, max((k & _SLOT_MASK for k in terms), default=0)):
        if lam.size() in degrees:
            key = _pack(lam.parts) + delta
            coeff = sum(sign * terms.get(key - d, 0) for d, sign in _alternant_shifts(n))
            if coeff:
                out[lam] = coeff
    return out


def lr_via_pfaffian(lam, n, e, f, mu):
    """c^lam_{mu, box(n,f)} from the principal Pfaffian of the coefficient matrix.

    Works in n z-variables with the w-alphabet empty: the subpfaffian on
    I(lam) expands as sum_mu c^lam_{mu,box(n,f)} s_{mu-complement}(z), and
    the requested coefficient is read off by `schur_expand`'s alternant
    formula after its two-generator symmetry check.  An
    asymmetric subpfaffian or a coefficient that is not a nonnegative
    integer breaks the theorem, so it raises AssertionError.
    """
    if lam.length() > 2 * n:
        raise TooLongError(f"{lam} longer than 2n={2 * n}")
    if not Partition.box(n, e).contains(mu):
        raise NotInBoxError(f"{mu} not inside {n}x{e}")
    table = VariableTable()
    table.add_vector("z", n)
    zs = table.gens()
    pf = pfaffian(b_principal(index_set(lam, 2 * n), n, e, f, zs, []))
    if isinstance(pf, Fraction):
        pf = Polynomial.const(table, pf)
    try:
        coeffs = schur_expand(pf)
    except ValueError as exc:
        raise AssertionError(f"subpfaffian has no Schur expansion: {exc}") from exc
    value = coeffs.get(mu.complement(n, e), Fraction(0))
    if value.denominator != 1 or value < 0:
        raise AssertionError(f"non-integral expansion coefficient {value}")
    return int(value)


def _alpha_beta(lam, n, e, f):
    # only valid under condition_holds, which makes both rows nonnegative
    alpha = Partition(lam.part(i) - f for i in range(n))
    beta = Partition(e - lam.part(2 * n - 1 - i) for i in range(n))
    return alpha, beta


def condition_holds(lam, n, e, f):
    """lam_n >= f and lam_{n+1} <= min(e, f)."""
    return lam.part(n - 1) >= f and lam.part(n) <= min(e, f)


def lr_rectangle_theorem(lam, n, e, f, mu):
    """c^lam_{mu, box(n,f)} via the complementation rewrite c^beta_{alpha, mu-complement}."""
    if lam.length() > 2 * n:
        raise TooLongError(f"{lam} longer than 2n={2 * n}")
    if not Partition.box(n, e).contains(mu):
        raise NotInBoxError(f"{mu} not inside {n}x{e}")
    if not condition_holds(lam, n, e, f):
        return 0
    alpha, beta = _alpha_beta(lam, n, e, f)
    if not beta.contains(alpha):
        return 0
    return lr_bruteforce(beta, alpha, mu.complement(n, e))
