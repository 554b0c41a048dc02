"""Littlewood-Richardson coefficients, two independent ways.

The oracle route counts lattice-word skew tableaux directly.  The
subpfaffian route builds the skew matrix B of h-polynomial coefficients
(Okada 1998), each entry a short sum read from one table of h_0..h_top per
alphabet, takes the principal Pfaffian on the index set of the target
partition and reads the answer off a Schur-basis expansion; a third route
rewrites the near-rectangle problem through the complementation theorem.
All three agree on the common domain, which is the package's central
cross-check.
"""

from fractions import Fraction

from .linalg import SkewMatrix, pfaffian
from .poly import Polynomial, VariableTable
from .symfunc import (
    NotInBoxError,
    Partition,
    TooLongError,
    h_table,
    index_set,
    schur_jacobi_trudi,
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
    and 0 <= j <= (f+n-1)-k, read from one h table per alphabet.  B vanishes
    outside 0..e+f+2n-1, so idx = range(e+f+2n) gives all of it.
    """
    top_z = e + n - 1
    top_w = f + n - 1
    hz = h_table(top_z, z_values)
    hw = h_table(top_w, w_values)

    def entry(s, t):
        k, l = idx[s], idx[t]
        degree = top_z + top_w + 1 - k - l
        total = Fraction(0)
        for i in range(max(0, degree - top_w + k), min(top_z - k, degree) + 1):
            total = total + hz[i] * hw[degree - i]
        return total

    return SkewMatrix.from_upper_function(len(idx), entry)


def schur_expand(p):
    """Expand a symmetric polynomial in the Schur basis by leading-term peeling.

    The graded-lex leading monomial of a symmetric polynomial has weakly
    decreasing exponents; subtracting its Schur polynomial strictly lowers the
    leading term, and a leading term that does not drop raises AssertionError.
    """
    out = {}
    nvars = len(p.table)
    gens = p.table.gens()
    last = None
    while p.terms:
        exps, coeff = p.leading_term()
        if last is not None and (sum(exps), exps) >= last:
            raise AssertionError(f"peeling did not lower the leading term {exps}")
        last = (sum(exps), exps)
        if any(exps[i] < exps[i + 1] for i in range(nvars - 1)):
            raise ValueError("polynomial is not symmetric")
        lam = Partition(exps)
        out[lam] = coeff
        p = p - coeff * schur_jacobi_trudi(lam, gens)
    return out


def lr_via_pfaffian(lam, n, e, f, mu):
    """c^lam_{mu, box(n,f)} from the principal Pfaffian of the coefficient matrix.

    Works in n z-variables with the w-alphabet empty: the subpfaffian on
    I(lam) expands as sum_mu c^lam_{mu,box(n,f)} s_{mu-complement}(z), and
    the requested coefficient is read off by Schur-basis peeling.  An
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
