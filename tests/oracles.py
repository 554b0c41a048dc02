"""Independent brute-force oracles used to check the library's fast paths.

These deliberately avoid the algorithms under test: determinants come from
the full permutation sum with inversion-counted signs, Pfaffians from the
explicit perfect-matching sum, LR coefficients from dominant-monomial
extraction out of s_mu * s_nu * Vandermonde, and coefficient-matrix entries
by reading the term map of the expanded product.
"""

from fractions import Fraction
from itertools import permutations

from detpf.poly import Monomial, Polynomial, VariableTable
from detpf.symfunc import Partition


def inversion_sign(seq):
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def det_leibniz(m):
    """Full n!-term permutation expansion."""
    n = m.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = inversion_sign(perm)
        for i in range(n):
            term = m.at(i, perm[i]) * term
        total = total + term
    return total


def pf_matchings(a):
    """Sum over perfect matchings, sign from the flattened pairing sequence."""
    n = a.dim
    if n % 2:
        return Fraction(0)
    total = Fraction(0)

    def rec(remaining, flat):
        nonlocal total
        if not remaining:
            term = inversion_sign(flat)
            for k in range(0, len(flat), 2):
                term = a.entry(flat[k], flat[k + 1]) * term
            total = total + term
            return
        first = remaining[0]
        for j in remaining[1:]:
            rest = [r for r in remaining if r not in (first, j)]
            rec(rest, flat + [first, j])

    rec(list(range(n)), [])
    return total


def random_skew(rng, dim, draw):
    from detpf.linalg import SkewMatrix

    return SkewMatrix(
        dim, {(i, j): draw(rng) for i in range(dim) for j in range(i + 1, dim)}
    )


def random_matrix(rng, rows, cols, draw):
    from detpf.linalg import RingMatrix

    return RingMatrix(rows, cols, [draw(rng) for _ in range(rows * cols)])


def lr_from_product(lam, mu, nu):
    """c^lam_{mu,nu} as the coefficient of x^(lam+delta) in s_mu s_nu Delta.

    The strictly decreasing exponent vector lam+delta occurs in exactly one
    antisymmetrized orbit, so the extraction needs no change of basis.
    """
    from detpf.symfunc import schur_jacobi_trudi

    if lam.size() != mu.size() + nu.size():
        return 0
    nvars = max(lam.length(), mu.length(), nu.length(), 1)
    table = VariableTable()
    table.add_vector("x", nvars)
    xs = table.gens()
    delta = Polynomial.const(table, 1)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            delta = delta * (xs[i] - xs[j])
    product = delta * schur_jacobi_trudi(mu, xs) * schur_jacobi_trudi(nu, xs)
    target = Monomial(
        {i: lam.part(i) + (nvars - 1 - i) for i in range(nvars)}
    )
    coeff = product.coefficient(target)
    assert coeff.denominator == 1
    return int(coeff)


def schur_by_tableaux(lam, values):
    """Schur polynomial as the monomial sum over semistandard tableaux."""
    from fractions import Fraction

    nvals = len(values)
    rows = lam.length()
    total = Fraction(0)
    tableau = {}

    def weight():
        term = Fraction(1)
        for v in tableau.values():
            term = term * values[v]
        return term

    def fill(i, j):
        nonlocal total
        if i == rows:
            total = total + weight()
            return
        ni, nj = (i, j + 1) if j + 1 < lam.part(i) else (i + 1, 0)
        lo = 0
        if j > 0:
            lo = max(lo, tableau[(i, j - 1)])
        if i > 0:
            lo = max(lo, tableau[(i - 1, j)] + 1)
        for v in range(lo, nvals):
            tableau[(i, j)] = v
            fill(ni, nj)
            del tableau[(i, j)]

    fill(0, 0)
    return total


def coefficient_of_powers(p, powers):
    """The polynomial multiplying the given variable powers in p, those variables removed.

    Example: for p in x,y,z and powers {x: 2, y: 0}, the z-polynomial
    multiplying x^2 y^0.
    """
    out = {}
    for key, coeff in p.terms.items():
        if all((key[v] if v < len(key) else 0) == e for v, e in powers.items()):
            out[tuple(0 if v in powers else e for v, e in enumerate(key))] = coeff
    return Polynomial(p.table, out)


def pieri_mu(n, e, k, direction):
    """The near-rectangle middle partition: one short row (h) or k shaved columns (v)."""
    if direction == "h":
        return Partition([e] * (n - 1) + [e - k])
    if direction == "v":
        return Partition([e] * (n - k) + [e - 1] * k)
    raise ValueError(f"unknown direction {direction!r}")
