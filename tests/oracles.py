"""Independent brute-force oracles used to check the library's fast paths.

These deliberately avoid the algorithms under test: determinants come from
the full permutation sum with inversion-counted signs, Pfaffians from the
explicit perfect-matching sum, LR coefficients from dominant-monomial
extraction out of s_mu * s_nu * Vandermonde, and coefficient-matrix entries
by peeling the expanded product term by term or, one entry at a time, from
the closed form `b_coeff` with h's computed afresh.  The reference
polynomial arithmetic at the end keys terms by exponent tuples and keeps
every coefficient a Fraction, independently of the packed-int kernel it
checks; its division, like the kernel's, is exact only over the integers.
The partition, rectangle-LR and polynomial helpers before it are the
paper's corollaries and accessors that only the tests call; each is checked
here against the tableau oracle or through the public API.
"""

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import factorial
from operator import add, mul

from detpf.poly import EXPONENT_CAP, ExactDivisionError, Polynomial, VariableTable, _pack, _unpack
from detpf.lr import _alpha_beta, condition_holds
from detpf.symfunc import Partition, SkewShape, h_complete


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


def matmul(x, y):
    """The product of two RingMatrix objects by the plain triple loop, summed from Fraction(0)."""
    from detpf.linalg import RingMatrix

    out = []
    for i in range(x.rows):
        for j in range(y.cols):
            total = Fraction(0)
            for k in range(x.cols):
                total = total + x.at(i, k) * y.at(k, j)
            out.append(total)
    return RingMatrix(x.rows, y.cols, out)


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
            if not a.entry(first, j):
                continue  # every matching through this pair has a zero term
            rest = [r for r in remaining if r not in (first, j)]
            rec(rest, flat + [first, j])

    rec(list(range(n)), [])
    return total


def ordered_block_partitions(n_letters, block, tensor):
    """Yield (blocks, sign) over ordered partitions into sorted blocks of size `block`.

    Every ordering of the blocks is its own partition here, so the signed
    sum of value products over them is r! times the hyperpfaffian.  Subtrees
    whose block has a zero tensor value are pruned (their products vanish).
    The sign is that of the concatenated sequence as a permutation.
    """

    def rec(remaining, blocks):
        if not remaining:
            yield tuple(blocks), inversion_sign(sum(blocks, ()))
            return
        for combo in combinations(remaining, block):
            if not tensor_value(tensor, combo):
                continue
            rest = [v for v in remaining if v not in combo]
            yield from rec(rest, blocks + [combo])

    yield from rec(list(range(n_letters)), [])


def fgh_by_shifted_dets(tag, p, q, xs, as_):
    """F/G/H as the signed sum of Leibniz determinants of the shifted matrices."""
    from detpf.vandermonde import build_V_shifted, partition_family

    family = {"F": "P", "G": "Q", "H": "R"}[tag]
    total = Fraction(0)
    for lam in partition_family(family, p):
        for mu in partition_family(family, q):
            exponent = lam.size() + mu.size()
            if tag == "H":
                exponent += lam.diagonal() + mu.diagonal()
            term = det_leibniz(build_V_shifted(p, q, lam, mu, xs, as_))
            total = total - term if (exponent // 2) % 2 else total + term
    return total


def hyper_v_by_ordered_partitions(n, xs, as_):
    """The order-n hyperpfaffian of (1 + prod a_i) prod (x_j - x_i) on 2n points.

    Summed over ordered partitions into two blocks and halved, with every
    entry taken in plain Fraction arithmetic.
    """
    from detpf.linalg import AlternatingTensor

    def entry(idx):
        weight = Fraction(1)
        for i in idx:
            weight = weight * as_[i]
        value = 1 + weight
        for s, i in enumerate(idx):
            for j in idx[s + 1 :]:
                value = value * (xs[j] - xs[i])
        return value

    tensor = AlternatingTensor.from_function(n, 2 * n, entry)
    total = Fraction(0)
    for blocks, sign in ordered_block_partitions(2 * n, n, tensor):
        total = total + sign * tensor_value(tensor, blocks[0]) * tensor_value(tensor, blocks[1])
    return total / 2


def hyper_u_by_ordered_partitions(n, xs, ys, as_, bs):
    """The order-n hyperpfaffian of (prod a_i + prod b_i) prod (y_i x_j - x_i y_j) on 2n points.

    Summed over ordered partitions into two blocks and halved, with every
    entry taken in plain Fraction arithmetic.
    """
    from detpf.linalg import AlternatingTensor

    def entry(idx):
        wa = wb = Fraction(1)
        for i in idx:
            wa = wa * as_[i]
            wb = wb * bs[i]
        value = wa + wb
        for s, i in enumerate(idx):
            for j in idx[s + 1 :]:
                value = value * (ys[i] * xs[j] - xs[i] * ys[j])
        return value

    tensor = AlternatingTensor.from_function(n, 2 * n, entry)
    total = Fraction(0)
    for blocks, sign in ordered_block_partitions(2 * n, n, tensor):
        total = total + sign * tensor_value(tensor, blocks[0]) * tensor_value(tensor, blocks[1])
    return total / 2


def vandermonde_hyperpfaffian_by_ordered_partitions(n, xs):
    """The order-n hyperpfaffian of prod (x_j - x_i) on the points xs.

    Summed over ordered partitions into len(xs)/n blocks and divided by the
    number of their orderings, with every entry taken in plain Fraction
    arithmetic.
    """
    from detpf.linalg import AlternatingTensor

    def entry(idx):
        value = Fraction(1)
        for s, i in enumerate(idx):
            for j in idx[s + 1 :]:
                value = value * (xs[j] - xs[i])
        return value

    tensor = AlternatingTensor.from_function(n, len(xs), entry)
    total = Fraction(0)
    for blocks, sign in ordered_block_partitions(len(xs), n, tensor):
        term = Fraction(sign)
        for block in blocks:
            term = term * tensor_value(tensor, block)
        total = total + term
    return total / factorial(len(xs) // n)


def vandermonde_hyperpfaffian_by_entries(n, x, y, a, b):
    """The order-n hyperpfaffian of (prod a_I + prod b_I) prod_{s<t in I} (x_s y_t - y_s x_t).

    Every entry is built on its own from its index set, with no prefix
    shared between entries, so it checks the prefix walk of
    `identities._vandermonde_hyperpfaffian`; it runs in any ring.
    """
    from detpf.linalg import AlternatingTensor, hyperpfaffian

    def product(items):
        return reduce(mul, items, Fraction(1))

    def entry(idx):
        weight = product(a[i] for i in idx) + product(b[i] for i in idx)
        return weight * product(x[s] * y[t] - y[s] * x[t] for s, t in combinations(idx, 2))

    return hyperpfaffian(AlternatingTensor.from_function(n, len(x), entry))


def cauchy_binet_by_minors(x, a, y):
    """sum over n-sets I, J of det A[I, J] det X[:, I] det Y[:, J], by Leibniz."""
    n, nn = x.rows, x.cols
    rows = tuple(range(n))
    total = Fraction(0)
    for i_set in combinations(range(nn), n):
        for j_set in combinations(range(nn), n):
            total = total + (
                det_leibniz(a.minor(i_set, j_set))
                * det_leibniz(x.minor(rows, i_set))
                * det_leibniz(y.minor(rows, j_set))
            )
    return total


def minor_sum_by_matchings(x, a):
    """sum over 2n-sets I of Pf A[I] det X[:, I], by matchings and Leibniz."""
    rows = tuple(range(x.rows))
    total = Fraction(0)
    for idx in combinations(range(x.cols), x.rows):
        total = total + pf_matchings(a.principal(idx)) * det_leibniz(x.minor(rows, idx))
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
    target = {i: lam.part(i) + (nvars - 1 - i) for i in range(nvars)}
    return coefficient(product, target)


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


def mono_key(exps):
    """The packed monomial of a dense exponent tuple or a {variable: exponent} map."""
    if isinstance(exps, dict):
        exps = [exps.get(var, 0) for var in range(max(exps, default=-1) + 1)]
    assert all(0 <= exp <= EXPONENT_CAP for exp in exps), exps
    return _pack(exps)


def poly_of(table, terms):
    """The Polynomial of {exponents: int coefficient}, exponents as `mono_key` takes
    them; coefficients of equal monomials add up and zero ones are dropped."""
    out = Counter()
    for exps, coeff in terms.items():
        assert type(coeff) is int, coeff
        out[mono_key(exps)] += coeff
    return Polynomial(table, {key: coeff for key, coeff in out.items() if coeff})


def term_list(p):
    """(dense exponent tuple, int) pairs of p in descending graded-lex order,
    read through the public API by peeling off leading terms."""
    out = []
    while p:
        exps, coeff = p.leading_term()
        out.append((exps, coeff))
        p = p - poly_of(p.table, {exps: coeff})
    return out


def coefficient_of_powers(p, powers):
    """The polynomial multiplying the given variable powers in p, those variables removed.

    Example: for p in x,y,z and powers {x: 2, y: 0}, the z-polynomial
    multiplying x^2 y^0.
    """
    out = {}
    for exps, coeff in term_list(p):
        if all(exps[v] == e for v, e in powers.items()):
            out[tuple(0 if v in powers else e for v, e in enumerate(exps))] = coeff
    return poly_of(p.table, out)


def b_coeff(k, l, n, e, f, z_values, w_values):
    """Closed-form coefficient of x^k y^l in (y-x) h_{e+n-1}(x,y,z) h_{f+n-1}(x,y,w).

    For k < l it is the sum of h_i(z) h_j(w) over i+j = (e+n-1)+(f+n-1)+1-k-l
    with 0 <= i <= (e+n-1)-k and 0 <= j <= (f+n-1)-k; the matrix of these
    coefficients is skew-symmetric and vanishes outside 0 <= k,l <= e+f+2n-1.
    """
    if k == l:
        return Fraction(0)
    if k > l:
        return -b_coeff(l, k, n, e, f, z_values, w_values)
    top_z = e + n - 1
    top_w = f + n - 1
    degree = top_z + top_w + 1 - k - l
    total = Fraction(0)
    for i in range(0, top_z - k + 1):
        j = degree - i
        if j < 0 or j > top_w - k:
            continue
        total = total + h_complete(i, z_values) * h_complete(j, w_values)
    return total


def pieri_mu(n, e, k, direction):
    """The near-rectangle middle partition: one short row (h) or k shaved columns (v)."""
    if direction == "h":
        return Partition([e] * (n - 1) + [e - k])
    if direction == "v":
        return Partition([e] * (n - k) + [e - 1] * k)
    raise ValueError(f"unknown direction {direction!r}")


class ConditionViolatedError(ValueError):
    """The near-rectangle corollary was invoked outside its hypothesis."""


def conjugate(lam):
    """The transposed partition lam'."""
    if not lam.parts:
        return Partition()
    cols = [0] * lam.parts[0]
    for p in lam.parts:
        for j in range(p):
            cols[j] += 1
    return Partition(cols)


def frobenius(lam):
    """(arms, legs): arm_i = lam_i - i, leg_i = lam'_i - i along the diagonal, 1-based."""
    conj = conjugate(lam)
    d = lam.diagonal()
    arms = tuple(lam.parts[i] - i - 1 for i in range(d))
    legs = tuple(conj.parts[i] - i - 1 for i in range(d))
    return arms, legs


def skew_size(shape):
    return shape.outer.size() - shape.inner.size()


def is_horizontal_strip(shape):
    """At most one cell per column."""
    oc, ic = conjugate(shape.outer), conjugate(shape.inner)
    return all(oc.part(j) - ic.part(j) <= 1 for j in range(oc.length()))


def is_vertical_strip(shape):
    """At most one cell per row."""
    return all(
        shape.outer.part(i) - shape.inner.part(i) <= 1
        for i in range(shape.outer.length())
    )


def lr_rect_rect(lam, n, e, f):
    """Indicator for c^lam of two full rectangles: pairing condition on opposite parts."""
    if lam.length() > 2 * n:
        return 0
    if lam.part(n) > min(e, f):
        return 0
    for i in range(n):
        if lam.part(i) + lam.part(2 * n - 1 - i) != e + f:
            return 0
    return 1


def lr_complement(mu, nu, n, e):
    """Indicator that nu is the complement of mu in the n x e box."""
    box = Partition.box(n, e)
    if not (box.contains(mu) and box.contains(nu)):
        return 0
    return 1 if nu == mu.complement(n, e) else 0


def pieri_near_rectangle(lam, n, e, f, k, direction):
    """Strip indicator for the near-rectangle cases of the complementation theorem.

    direction "h": mu has rows (e^{n-1}, e-k), the answer is 1 iff beta/alpha
    is a horizontal strip of length k; "v": mu = (e^{n-k}, (e-1)^k) and
    vertical strips.  Requires the rectangle condition to hold.
    """
    if not condition_holds(lam, n, e, f):
        raise ConditionViolatedError(f"{lam} violates the rectangle condition")
    alpha, beta = _alpha_beta(lam, n, e, f)
    if not beta.contains(alpha):
        return 0
    shape = SkewShape(beta, alpha)
    if skew_size(shape) != k:
        return 0
    if direction == "h":
        return 1 if is_horizontal_strip(shape) else 0
    if direction == "v":
        return 1 if is_vertical_strip(shape) else 0
    raise ValueError(f"unknown direction {direction!r}")


def coefficient(p, exps):
    """The int coefficient in p of the monomial that `mono_key` packs from exps, 0 if absent."""
    return p.terms.get(mono_key(exps), 0)


def evaluate(p, point):
    """Exact value of p at a map var-id -> Fraction; a missing variable raises KeyError."""
    total = Fraction(0)
    for key, coeff in p.terms.items():
        value = coeff
        for var, exp in enumerate(_unpack(key)):
            if exp:
                value = value * point[var] ** exp
        total += value
    return total


class ModP:
    """An element of the prime field Z/p, p = 2^61 - 1, that coerces ints and Fractions.

    It is integral, as an int is: `numerator` is the element itself and
    `denominator` is 1.  So `clear_rows` gives it scale 1, and every other
    route that tests for int or Fraction sends it down the ring route, where
    it runs the statements that polynomials run, at numeric sizes.  A false
    agreement of two values of degree d has probability at most d / p.
    """

    P = (1 << 61) - 1
    __slots__ = ("v",)
    denominator = 1

    def __init__(self, value):
        if isinstance(value, ModP):
            self.v = value.v
        elif type(value) is int:
            self.v = value % self.P
        elif isinstance(value, (int, Fraction)):
            # a denominator that p divides has no inverse: pow raises ValueError
            self.v = value.numerator * pow(value.denominator, -1, self.P) % self.P
        else:
            raise TypeError(f"no element of Z/p for {value!r}")

    @property
    def numerator(self):
        return self

    @staticmethod
    def _lift(other):
        return ModP(other) if isinstance(other, (int, Fraction, ModP)) else None

    def _with(self, other, op):
        other = self._lift(other)
        return NotImplemented if other is None else op(other.v)

    def __add__(self, other):
        return self._with(other, lambda v: ModP(self.v + v))

    __radd__ = __add__

    def __sub__(self, other):
        return self._with(other, lambda v: ModP(self.v - v))

    def __rsub__(self, other):
        return self._with(other, lambda v: ModP(v - self.v))

    def __mul__(self, other):
        return self._with(other, lambda v: ModP(self.v * v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self * other._inverse()

    def __rtruediv__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else other * self._inverse()

    def _inverse(self):
        if not self.v:
            raise ZeroDivisionError("division by zero in Z/p")
        return ModP(pow(self.v, -1, self.P))

    def __neg__(self):
        return ModP(-self.v)

    def __pow__(self, exponent):
        return ModP(pow(self.v, exponent, self.P))

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        return self._with(other, lambda v: self.v == v)

    __hash__ = None

    def __repr__(self):
        return f"ModP({self.v})"


def tensor_value(tensor, sorted_idx):
    """The stored value of an AlternatingTensor at a sorted index tuple, 0 if absent."""
    return tensor.values.get(tuple(sorted_idx), Fraction(0))


# ---------------------------------------------------------------------------
# reference polynomial arithmetic: term maps {exponent tuple: Fraction}, each
# tuple with its trailing zeros stripped


def _strip(exps):
    exps = tuple(exps)
    end = len(exps)
    while end and exps[end - 1] == 0:
        end -= 1
    return exps[:end]


def _mono_mul(a, b):
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b):]


def _mono_div(a, b):
    """a / b as an exponent tuple, or None if b does not divide a."""
    if len(b) > len(a):
        return None
    out = list(a)
    for i, e in enumerate(b):
        out[i] -= e
        if out[i] < 0:
            return None
    return _strip(out)


def _grlex(exps):
    return (sum(exps), exps)


def ref_poly(dense_terms):
    """A reference term map from {dense exponent tuple: coefficient}."""
    return {_strip(k): Fraction(c) for k, c in dense_terms.items() if c}


def ref_terms(p):
    """A Polynomial as a reference term map."""
    return {_strip(exps): coeff for exps, coeff in term_list(p)}


def ref_add(a, b):
    out = dict(a)
    for key, coeff in b.items():
        acc = out.get(key, Fraction(0)) + coeff
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def ref_neg(a):
    return {key: -coeff for key, coeff in a.items()}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = _mono_mul(e1, e2)
            acc = out.get(key, Fraction(0)) + c1 * c2
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


def ref_pow(a, k):
    out = {(): Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_exact_div(a, b):
    """Quotient by repeated cancellation of graded-lex leading terms; inexact
    unless every quotient coefficient is an integer."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    div_key = max(b, key=_grlex)
    quotient = {}
    rem = dict(a)
    while rem:
        key = max(rem, key=_grlex)
        q = _mono_div(key, div_key)
        qc = rem[key] / b[div_key]
        if q is None or qc.denominator != 1:
            raise ExactDivisionError("inexact polynomial division")
        quotient = ref_add(quotient, {q: qc})
        rem = ref_add(rem, ref_neg(ref_mul({q: qc}, b)))
    return quotient


def ref_text(a, names):
    if not a:
        return "0"
    rendered = []
    for key in sorted(a, key=_grlex, reverse=True):
        factors = [str(a[key])]
        for var, exp in enumerate(key):
            if exp:
                factors.append(names[var] if exp == 1 else f"{names[var]}^{exp}")
        rendered.append("*".join(factors))
    return " + ".join(rendered)
