"""Registry of all verifiable identities.

Each entry declares its variable vectors, its principal matrix dimension
(which caps symbolic mode) and a builder that produces (lhs, rhs) pairs
from a map prefix -> list of scalars.  Only rel_v1, rel_v2 and rel_uv1,
which divide, also declare guard expressions (factors that must not vanish
at a random evaluation point).  Each builder is one statement that both
modes run, on polynomial generators (symbolic: sides are polynomials or,
where a relation divides, quotients of them) or random rationals (numeric).
Values are cleared to integral rows from their numerators and denominators;
a polynomial is integral with scale 1, a quotient clears to polynomial rows
over a polynomial scale, and linalg picks the integer route for int rows.

Most of the paper's identities share one shape: det or Pf of num/den equals
a core over the product of the denominators, generalizing Cauchy's
det(1/(x_i+y_j)) and Schur's Pf((x_j-x_i)/(x_j+x_i)).  Those are declared
by `_register_quotient` from (kind, den, num, core) alone; its sides are
the denominator-cleared det or Pf and the core, and a draw with a zero
denominator raises `ZeroDenominatorError`.  Twenty-two identities are
declared that way, three of them (det_schur, pf_schur, pf_schur2) with unit
denominators.  Sixteen are instances of the paper's two theorems, each
stated once for any structured determinant family f (two-block V,
palindromic-row W, bidegree U, signed sums F, Schur polynomials of a shape
family): `_theorem_det` gives special1, main1, main3, homog2, variation1,
cauchy1 and det_schur, `_theorem_pf` gives special2, main2, prop_n2, main4,
homog1, variation2, schur1, pf_schur and pf_schur2; both take their
entries from `_Family.pair_values`.  `_product` multiplies the (num, core)
of such parts, so a Schur-function corollary is a seed times a theorem
instance.  hyper_v and special_hyppf specialize the hyper_u hyperpfaffian,
all three built in both modes by the one walk of `_vandermonde_hyperpfaffian`.

Sides are composed exclusively from the matrix builders, exact linear
algebra and symmetric-function primitives; no identity re-derives a closed
form of its own.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import factorial, prod
from operator import mul

from .linalg import (
    AlternatingTensor,
    RingMatrix,
    SkewMatrix,
    blocked_tensor,
    clear_rows,
    congruence_pfaffian,
    det,
    det_with_denominators,
    hyperpfaffian,
    minors,
    minors_int,
    over,
    pfaffian,
    pfaffian_with_denominators,
    sub_pfaffian,
    sub_pfaffians,
)
from .lr import b_principal, lr_bruteforce
from .symfunc import Partition, index_set, partitions_in_box, schur_jacobi_trudi
from .vandermonde import (
    build_DBC,
    fgh_sum,
    int_row_U,
    int_row_V,
    int_row_W,
    partition_family,
)


class InvalidParamsError(ValueError):
    """Identity parameters are unknown, malformed, or violate the statement's hypotheses."""


class UnknownIdentityError(KeyError):
    """No identity registered under the requested name."""


class ZeroDenominatorError(ZeroDivisionError):
    """A numeric side met a zero denominator: the draw is on the singular locus."""


def _check_nonneg(params, positive=("n",)):
    for key, value in params.items():
        if not isinstance(value, int) or value < 0:
            raise InvalidParamsError(f"parameter {key} must be a nonnegative integer")
    for key in positive:
        if key in params and params[key] < 1:
            raise InvalidParamsError(f"parameter {key} must be >= 1")


@dataclass(frozen=True)
class IdentitySpec:
    """A named identity with parameterized builders for both verification modes."""

    name: str
    summary: str
    defaults: dict
    numeric_defaults: dict
    vectors: object  # params -> [(prefix, count)]
    sides: object  # (params, sc, numeric) -> [(lhs, rhs)]; numeric is passed only for the tracer
    main_dim: object  # params -> principal matrix dimension (symbolic size cap)
    guards: object = None  # (params, sc) -> [scalar], or None
    check: object = _check_nonneg  # params -> None, raises InvalidParamsError
    symbolic_cases: tuple = ()

    def guard_values(self, params, sc):
        return [] if self.guards is None else list(self.guards(params, sc))


REGISTRY: dict = {}


def _register(**kwargs):
    spec = IdentitySpec(**kwargs)
    if spec.name in REGISTRY:
        raise ValueError(f"duplicate identity {spec.name}")
    REGISTRY[spec.name] = spec
    return spec


def _register_quotient(kind, den, parts, dim=None, **fields):
    """Register an identity  det|Pf(num/den) = core / prod(den).

    `kind` is "det" (den over all pairs of a dim x dim matrix) or "pf" (den
    over the pairs i < j of a dim x dim skew matrix).  `dim(params)` is that
    dimension (n or 2n by default), `den(params, sc, i, j)` one denominator,
    and `parts(params, sc)` returns `(num, core)` with `num(i, j)` the
    matching numerator and `core()` building the core.

    Both modes compare the denominator-cleared det/Pf with core, built
    after it: the memo of the expansion, which sets the peak memory, is gone
    by then.  Each denominator is evaluated once into a table, and a zero
    one raises `ZeroDenominatorError` before any entry is built.  linalg
    takes rational entries by their int pairs and others by the expansion.
    `main_dim` defaults to `dim`.
    """
    if dim is None:
        dim = (lambda p: p["n"]) if kind == "det" else (lambda p: 2 * p["n"])

    def sides(p, sc, numeric):
        n = dim(p)
        pairs = [(i, j) for i in range(n) for j in range(n)] if kind == "det" else _all_pairs(n)
        dens = {(i, j): den(p, sc, i, j) for i, j in pairs}
        if not all(dens.values()):
            raise ZeroDenominatorError(f"{fields['name']}: a denominator vanishes")
        num, core = parts(p, sc)
        cleared = det_with_denominators if kind == "det" else pfaffian_with_denominators
        return [(cleared(n, num, lambda i, j: dens[i, j]), core())]

    fields.setdefault("main_dim", dim)
    fields["sides"] = sides
    return _register(**fields)


# ---------------------------------------------------------------------------
# shared building blocks


def _prod(items):
    """Product of `items`, starting from Fraction(1).

    Rational factors are multiplied as one int numerator and denominator,
    which are normalized once; from the first Polynomial factor on, the
    product is taken in the polynomial ring.
    """
    items = iter(items)
    num = den = 1
    for x in items:
        if not isinstance(x, (int, Fraction)):
            total = Fraction(num, den) * x
            for y in items:
                total = total * y
            return total
        num *= x.numerator
        den *= x.denominator
    return Fraction(num, den)


def _delta(xs):
    """The Vandermonde product prod_{i<j} (x_j - x_i).

    Each difference c/d - a/b is carried as the pair (c*b - a*d, b*d) of its
    numerator and denominator, and the product is divided once at the end.
    """
    num = den = 1
    for i, xi in enumerate(xs):
        a, b = xi.numerator, xi.denominator
        for xj in xs[i + 1 :]:
            num *= xj.numerator * b - a * xj.denominator
            den *= b * xj.denominator
    return over(num, den)


def _sign(exponent):
    return -1 if exponent % 2 else 1


def _point_det(int_row, sizes, vecs):
    """The determinant of one row int_row(*sizes, *point) per point: one minor over the scales."""
    rows = [int_row(*sizes, *point) for point in zip(*vecs)]
    (value,) = minors([row for row, _ in rows], [range(sum(sizes))])
    return over(value, prod(scale for _, scale in rows))


def _dv(p, q, xs, as_):
    return _point_det(int_row_V, (p, q), (xs, as_))


def _dw(n, xs, as_):
    return _point_det(int_row_W, (n,), (xs, as_))


def _du(p, q, xs, ys, as_, bs):
    return _point_det(int_row_U, (p, q), (xs, ys, as_, bs))


def _F(pp, qq, xs, as_):
    return fgh_sum("F", pp, qq, list(xs), list(as_))


def _points(vectors):
    """The points of `vectors` (one vector per coordinate), each a tuple of coordinates."""
    return list(zip(*vectors))


# the determinants of one row per point, and that row
_POINT_ROWS = {_dv: int_row_V, _dw: int_row_W, _du: int_row_U}


@dataclass(frozen=True)
class _Family:
    """f(params, k, vecs) = build(*sizes(params, k), *vecs) on k extra points."""

    build: object
    sizes: object

    def __call__(self, p, k, vecs):
        return self.build(*self.sizes(p, k), *vecs)

    def pair_values(self, p, points, tail, pairs):
        """[f_1(points[i], points[j]; tail) for (i, j) in pairs].

        Each point is a tuple of coordinates, and `tail` holds one vector per
        coordinate.  When `build` is the determinant of one row per point, the
        integral rows of all points are transposed into one table, and each
        value is its minor on the columns tail + [i, j] (moving the two point
        rows past the tail is an even permutation) over the row scales: at
        rational points all the minors are taken in one integer elimination.
        Otherwise each value is f(p, 1, ...).
        """
        row = _POINT_ROWS.get(self.build)
        if row is None:
            vecs = lambda i, j: [[a, b] + c for a, b, c in zip(points[i], points[j], tail)]
            return [self(p, 1, vecs(i, j)) for i, j in pairs]
        sizes = self.sizes(p, 1)
        int_rows, scales = zip(*[row(*sizes, *point) for point in points + _points(tail)])
        m = len(points)
        tail_cols = list(range(m, len(int_rows)))
        values = minors(list(zip(*int_rows)), [tail_cols + [i, j] for i, j in pairs])
        tail_scale = prod(scales[m:])
        return [over(d, tail_scale * scales[i] * scales[j]) for d, (i, j) in zip(values, pairs)]


def _family(build, *names, step=1):
    """f(params, k, vecs): `build` at sizes params[s] + step*k, on k extra points."""
    return _Family(build, lambda p, k: [p[s] + step * k for s in names])


_v_square = _Family(_dv, lambda p, k: (k, k))
_V = _family(_dv, "p", "q")
_W = _family(_dw, "p", step=2)


def _schur(lam, values):
    return schur_jacobi_trudi(lam, list(values))


def _schur_family(shape):
    """f(params, k, vecs) = s_{shape(params, k)}(vecs[0])."""
    return _Family(_schur, lambda p, k: (shape(p, k),))


def _staircase(size):
    return _schur_family(lambda p, k: Partition.staircase(p[size]))


def _box(rows, cols):
    """The rectangle family box(rows + k, cols + n - k)."""
    return _schur_family(lambda p, k: Partition.box(p[rows] + k, p[cols] + p["n"] - k))


def _one(i, j):
    return 1


def _product(*factors):
    """parts(params, sc) whose num and core multiply those of the `factors` parts."""

    def parts(p, sc):
        nums, cores = zip(*(factor(p, sc) for factor in factors))
        num = lambda i, j: reduce(mul, [factor(i, j) for factor in nums])
        return num, lambda: reduce(mul, [core() for core in cores])

    return parts


def _at(parts, **fixed):
    """`parts` with the parameters in `fixed` held at those values."""
    return lambda p, sc: parts({**p, **fixed}, sc)


def _vectors(*groups):
    """[(prefix, size)] from groups (prefixes, size), the prefixes space-separated."""
    return [(prefix, size) for prefixes, size in groups for prefix in prefixes.split()]


# denominators shared by several quotient identities
def _unit_den(p, sc, i, j):
    return 1


def _x_gap(p, sc, i, j):
    return sc["x"][j] - sc["x"][i]


def _x_gap_palindromic(p, sc, i, j):
    x = sc["x"]
    return (x[j] - x[i]) * (1 - x[i] * x[j])


def _xy_gap_palindromic(p, sc, i, j):
    x, y = sc["x"], sc["y"]
    return (y[j] - x[i]) * (1 - x[i] * y[j])


def _all_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _skew_from(values, dim):
    return SkewMatrix(dim, dict(zip(_all_pairs(dim), values, strict=True)))


def _check_dodgson(params):
    _check_nonneg(params)
    if params["n"] < 2:
        raise InvalidParamsError("parameter n must be >= 2")


def _check_cauchy_binet(params):
    _check_nonneg(params, positive=("n", "N"))
    if params["n"] > params["N"]:
        raise InvalidParamsError("needs n <= N")


def _check_minor_sum(params):
    _check_nonneg(params, positive=("n", "N"))
    if 2 * params["n"] > params["N"]:
        raise InvalidParamsError("needs 2n <= N")


def _check_even_block(params):
    _check_nonneg(params, positive=("n", "r"))
    if params["n"] % 2:
        raise InvalidParamsError("n must be even")


# ---------------------------------------------------------------------------
# the paper's two theorems
#
# f(params, k, vecs) is one structured determinant (_dv, _dw, _du or _F) on k
# extra points: vecs holds one vector per argument of the builder, the k
# points' coordinates first and then the fixed tail t.  Both theorems take
# their entries f_1 from `_Family.pair_values`.


def _theorem_det(f, rows, cols, tail=(), signed=True):
    """parts of the Cauchy-type determinant theorem

        det(f_1(u_i, v_j; t) / den_ij) = s f_0(t)^(n-1) f_n(u, v; t) / prod den,

    with u, v, t the vectors named by `rows`, `cols`, `tail` (one prefix per
    builder argument) and s = (-1)^(n(n-1)/2) for V, U and F; the
    palindromic-row family W has s = 1 (`signed=False`).
    """

    def parts(p, sc):
        n = p["n"]
        u, v = [sc[k] for k in rows], [sc[k] for k in cols]
        t = [sc[k] for k in tail] if tail else [[]] * len(rows)
        pairs = [(i, n + j) for i in range(n) for j in range(n)]
        values = f.pair_values(p, _points(u) + _points(v), t, pairs)
        num = lambda i, j: values[i * n + j]
        core = lambda: f(p, 0, t) ** (n - 1) * f(p, n, [a + b + c for a, b, c in zip(u, v, t)])
        return num, (lambda: _sign(n * (n - 1) // 2) * core()) if signed else core

    return parts


def _theorem_pf(f, frows, ftail, g, grows, gtail):
    """parts of the Schur-type Pfaffian theorem

        Pf(f_1(u_i, u_j; t) g_1(u'_i, u'_j; t') / den_ij)
            = f_0(t)^(n-1) g_0(t')^(n-1) f_n(u; t) g_n(u'; t') / prod den,

    with u, t the vectors named by `frows`, `ftail` and u', t' by `grows`,
    `gtail`.
    """
    return _product(_pf_factor(f, frows, ftail), _pf_factor(g, grows, gtail))


def _pf_factor(f, rows, tail):
    """One family's part of `_theorem_pf`: entries f_1(u_i, u_j; t), core f_0^(n-1) f_n."""

    def parts(p, sc):
        n = p["n"]
        u = [sc[k] for k in rows]
        t = [sc[k] for k in tail] if tail else [[]] * len(rows)
        pairs = _all_pairs(2 * n)
        values = dict(zip(pairs, f.pair_values(p, _points(u), t, pairs)))
        top = [a + c for a, c in zip(u, t)]
        return (lambda i, j: values[(i, j)]), lambda: f(p, 0, t) ** (n - 1) * f(p, n, top)

    return parts


# ---------------------------------------------------------------------------
# classical seeds: Cauchy determinant and Schur Pfaffian


def _cauchy(p, sc):
    return _one, lambda: _delta(sc["x"]) * _delta(sc["y"])


_register_quotient(
    "det",
    den=lambda p, sc, i, j: sc["x"][i] + sc["y"][j],
    parts=_cauchy,
    name="cauchy",
    summary="det(1/(x_i+y_j)) equals the double Vandermonde over the pair products",
    defaults={"n": 2},
    numeric_defaults={"n": 3},
    vectors=lambda p: [("x", p["n"]), ("y", p["n"])],
)


def _schur_id(p, sc):
    x = sc["x"]
    return (lambda i, j: x[j] - x[i]), lambda: _delta(x)


_register_quotient(
    "pf",
    den=lambda p, sc, i, j: sc["x"][j] + sc["x"][i],
    parts=_schur_id,
    name="schur",
    summary="Pf((x_j-x_i)/(x_j+x_i)) equals the product over all pairs",
    defaults={"n": 2},
    numeric_defaults={"n": 3},
    vectors=lambda p: [("x", 2 * p["n"])],
)


_register_quotient(
    "det",
    den=lambda p, sc, i, j: sc["y"][j] - sc["x"][i],
    parts=_theorem_det(_v_square, ("x", "a"), ("y", "b")),
    name="special1",
    summary="det((b_j-a_i)/(y_j-x_i)) in terms of one two-block determinant",
    defaults={"n": 2},
    numeric_defaults={"n": 3},
    vectors=lambda p: [("x", p["n"]), ("y", p["n"]), ("a", p["n"]), ("b", p["n"])],
    main_dim=lambda p: 2 * p["n"],
)


_register_quotient(
    "pf",
    den=lambda p, sc, i, j: sc["x"][j] - sc["x"][i],
    parts=_theorem_pf(_v_square, ("x", "a"), (), _v_square, ("x", "b"), ()),
    name="special2",
    summary="Pf((a_j-a_i)(b_j-b_i)/(x_j-x_i)) as a product of two two-block determinants",
    defaults={"n": 2},
    numeric_defaults={"n": 3},
    vectors=lambda p: [("x", 2 * p["n"]), ("a", 2 * p["n"]), ("b", 2 * p["n"])],
)


# ---------------------------------------------------------------------------
# the four main identities


_register_quotient(
    "det",
    den=lambda p, sc, i, j: sc["y"][j] - sc["x"][i],
    parts=_theorem_det(_V, ("x", "a"), ("y", "b"), ("z", "c")),
    name="main1",
    summary="Cauchy-type determinant with two-block-determinant entries",
    defaults={"n": 2, "p": 1, "q": 0},
    numeric_defaults={"n": 2, "p": 1, "q": 2},
    vectors=lambda p: _vectors(("x y a b", p["n"]), ("z c", p["p"] + p["q"])),
    main_dim=lambda p: 2 * p["n"] + p["p"] + p["q"],
    symbolic_cases=({"n": 2, "p": 1, "q": 0}, {"n": 3, "p": 0, "q": 0}),
)


_paired_v = _theorem_pf(
    _V, ("x", "a"), ("z", "c"), _family(_dv, "r", "s"), ("x", "b"), ("w", "d")
)


def _main2_vectors(p):
    return _vectors(("x a b", 2 * p["n"]), ("z c", p["p"] + p["q"]), ("w d", p["r"] + p["s"]))


_register_quotient(
    "pf",
    den=_x_gap,
    parts=_paired_v,
    name="main2",
    summary="Schur-type Pfaffian with paired two-block-determinant entries",
    defaults={"n": 2, "p": 0, "q": 0, "r": 0, "s": 0},
    numeric_defaults={"n": 2, "p": 1, "q": 1, "r": 1, "s": 1},
    vectors=_main2_vectors,
    main_dim=lambda p: 2 * p["n"] + max(p["p"] + p["q"], p["r"] + p["s"]),
    symbolic_cases=(
        {"n": 2, "p": 0, "q": 0, "r": 0, "s": 0},
        {"n": 1, "p": 1, "q": 1, "r": 0, "s": 1},
    ),
)


_register_quotient(
    "det",
    den=_xy_gap_palindromic,
    parts=_theorem_det(_W, ("x", "a"), ("y", "b"), ("z", "c"), signed=False),
    name="main3",
    summary="Cauchy-type determinant with palindromic-row determinant entries",
    defaults={"n": 2, "p": 0},
    numeric_defaults={"n": 2, "p": 1},
    vectors=lambda p: _vectors(("x y a b", p["n"]), ("z c", p["p"])),
    main_dim=lambda p: 2 * p["n"] + p["p"],
)


_register_quotient(
    "pf",
    den=_x_gap_palindromic,
    parts=_theorem_pf(
        _W, ("x", "a"), ("z", "c"), _family(_dw, "q", step=2), ("x", "b"), ("w", "d")
    ),
    name="main4",
    summary="Schur-type Pfaffian with paired palindromic-row determinant entries",
    defaults={"n": 2, "p": 0, "q": 0},
    numeric_defaults={"n": 2, "p": 1, "q": 1},
    vectors=lambda p: _vectors(("x a b", 2 * p["n"]), ("z c", p["p"]), ("w d", p["q"])),
    main_dim=lambda p: 2 * p["n"] + max(p["p"], p["q"]),
)


# ---------------------------------------------------------------------------
# staircase Schur-function corollaries


_register_quotient(
    "det",
    den=lambda p, sc, i, j: sc["x"][i] + sc["y"][j],
    parts=_product(
        _cauchy, _theorem_det(_staircase("k"), ("x",), ("y",), ("z",), signed=False)
    ),
    name="cauchy1",
    summary="Cauchy determinant dressed with staircase Schur polynomials",
    defaults={"n": 2, "k": 1, "zlen": 1},
    numeric_defaults={"n": 2, "k": 2, "zlen": 2},
    vectors=lambda p: [("x", p["n"]), ("y", p["n"]), ("z", p["zlen"])],
    main_dim=lambda p: max(p["n"], p["k"]),
)


_register_quotient(
    "pf",
    den=lambda p, sc, i, j: sc["x"][j] + sc["x"][i],
    parts=_product(
        _schur_id, _theorem_pf(_staircase("k"), ("x",), ("z",), _staircase("l"), ("x",), ("w",))
    ),
    name="schur1",
    summary="Schur Pfaffian dressed with two staircase Schur polynomials",
    defaults={"n": 2, "k": 1, "l": 0, "zlen": 1, "wlen": 0},
    numeric_defaults={"n": 2, "k": 2, "l": 1, "zlen": 2, "wlen": 1},
    vectors=lambda p: [("x", 2 * p["n"]), ("z", p["zlen"]), ("w", p["wlen"])],
    main_dim=lambda p: max(2 * p["n"], p["k"], p["l"]),
)


# ---------------------------------------------------------------------------
# the 4x4 base case of the Pfaffian identity

_register_quotient(
    "pf",
    dim=lambda p: 4,
    den=_x_gap,
    parts=_at(_paired_v, n=2),
    name="prop_n2",
    summary="the n=2 base case of the paired-entry Pfaffian identity",
    defaults={"p": 1, "q": 0, "r": 0, "s": 1},
    numeric_defaults={"p": 1, "q": 1, "r": 1, "s": 1},
    vectors=lambda p: _main2_vectors({**p, "n": 2}),
    main_dim=lambda p: 4 + max(p["p"] + p["q"], p["r"] + p["s"]),
)


# ---------------------------------------------------------------------------
# reduction lemmas for the two-block matrices


def _rel_v1_check(p):
    _check_nonneg(p, positive=("p",))
    if p["p"] < p["q"]:
        raise InvalidParamsError("requires p >= q")


def _rel_v1_sides(p, sc, numeric):
    pp, qq = p["p"], p["q"]
    m = pp + qq
    x, a = sc["x"], sc["a"]
    xs, as_ = x[: m - 1], a[: m - 1]
    xm, am = x[m - 1], a[m - 1]
    lead = _prod(xm - x[i] for i in range(m - 1))
    aprime = [(as_[i] - am) / (xs[i] - xm) for i in range(m - 1)]
    lhs = _dv(pp, qq, x, a)
    rhs = lead * _dv(pp - 1, qq, xs, aprime)
    return [(lhs, rhs)]


_register(
    name="rel_v1",
    summary="strips the last point off a two-block determinant (divided differences)",
    defaults={"p": 2, "q": 1},
    numeric_defaults={"p": 3, "q": 2},
    vectors=lambda p: [("x", p["p"] + p["q"]), ("a", p["p"] + p["q"])],
    sides=_rel_v1_sides,
    main_dim=lambda p: p["p"] + p["q"],
    guards=lambda p, sc: [
        sc["x"][i] - sc["x"][p["p"] + p["q"] - 1] for i in range(p["p"] + p["q"] - 1)
    ],
    check=_rel_v1_check,
)


def _rel_v2_sides(p, sc, numeric):
    pp, qq = p["p"], p["q"]
    x, a = sc["x"], sc["a"]
    sign = _sign(pp * qq)
    lhs = _dv(pp, qq, x, a)
    rhs = sign * _prod(a) * _dv(qq, pp, x, [Fraction(1) / ai for ai in a])
    return [(lhs, rhs)]


_register(
    name="rel_v2",
    summary="swaps the two blocks of the determinant against inverted coefficients",
    defaults={"p": 2, "q": 1},
    numeric_defaults={"p": 2, "q": 2},
    vectors=lambda p: [("x", p["p"] + p["q"]), ("a", p["p"] + p["q"])],
    sides=_rel_v2_sides,
    main_dim=lambda p: p["p"] + p["q"],
    guards=lambda p, sc: list(sc["a"]),
)


# ---------------------------------------------------------------------------
# Desnanot-Jacobi quadratic relations


def _det_dodgson_sides(p, sc, numeric):
    n = p["n"]
    m = RingMatrix(n, n, sc["a"])
    lhs = det(m.delete([0], [0])) * det(m.delete([1], [1])) - det(
        m.delete([0], [1])
    ) * det(m.delete([1], [0]))
    rhs = det(m) * det(m.delete([0, 1], [0, 1]))
    return [(lhs, rhs)]


_register(
    name="det_dodgson",
    summary="Desnanot-Jacobi: quadratic relation among first and second minors",
    defaults={"n": 3},
    numeric_defaults={"n": 5},
    vectors=lambda p: [("a", p["n"] * p["n"])],
    sides=_det_dodgson_sides,
    main_dim=lambda p: p["n"],
    check=_check_dodgson,
)


def _pf_dodgson_sides(p, sc, numeric):
    dim = 2 * p["n"]
    a = _skew_from(sc["a"], dim)
    full = tuple(range(dim))

    def pf_without(*removed):
        keep = tuple(i for i in full if i not in removed)
        return sub_pfaffian(a, keep)

    lhs = (
        pf_without(0, 1) * pf_without(2, 3)
        - pf_without(0, 2) * pf_without(1, 3)
        + pf_without(0, 3) * pf_without(1, 2)
    )
    rhs = pfaffian(a) * pf_without(0, 1, 2, 3)
    return [(lhs, rhs)]


_register(
    name="pf_dodgson",
    summary="six-term Desnanot-Jacobi relation for Pfaffians",
    defaults={"n": 3},
    numeric_defaults={"n": 3},
    vectors=lambda p: [("a", p["n"] * (2 * p["n"] - 1))],
    sides=_pf_dodgson_sides,
    main_dim=lambda p: 2 * p["n"],
    check=_check_dodgson,
)


# ---------------------------------------------------------------------------
# homogeneous two-variable-pair versions


_register_quotient(
    "pf",
    den=lambda p, sc, i, j: sc["x"][i] * sc["y"][j] - sc["x"][j] * sc["y"][i],
    parts=_theorem_pf(
        _family(_du, "p", "q"), ("x", "y", "a", "b"), ("xi", "eta", "alpha", "beta"),
        _family(_du, "r", "s"), ("x", "y", "c", "d"), ("zeta", "omega", "gamma", "delta"),
    ),
    name="homog1",
    summary="homogeneous Pfaffian identity over variable pairs (x_i, y_i)",
    defaults={"n": 2, "p": 0, "q": 0, "r": 0, "s": 0},
    numeric_defaults={"n": 2, "p": 1, "q": 1, "r": 0, "s": 0},
    vectors=lambda p: _vectors(
        ("x y a b c d", 2 * p["n"]),
        ("xi eta alpha beta", p["p"] + p["q"]),
        ("zeta omega gamma delta", p["r"] + p["s"]),
    ),
    main_dim=lambda p: 2 * p["n"] + max(p["p"] + p["q"], p["r"] + p["s"]),
)


_register_quotient(
    "det",
    den=lambda p, sc, i, j: sc["x"][i] * sc["w"][j] - sc["z"][j] * sc["y"][i],
    parts=_theorem_det(
        _family(_du, "p", "q"),
        ("x", "y", "a", "b"), ("z", "w", "c", "d"), ("xi", "eta", "alpha", "beta"),
    ),
    name="homog2",
    summary="homogeneous determinant identity over variable pairs",
    defaults={"n": 2, "p": 0, "q": 0},
    numeric_defaults={"n": 2, "p": 1, "q": 1},
    vectors=lambda p: _vectors(
        ("x y z w a b c d", p["n"]), ("xi eta alpha beta", p["p"] + p["q"])
    ),
    main_dim=lambda p: 2 * p["n"] + p["p"] + p["q"],
)


# ---------------------------------------------------------------------------
# block embedding of a determinant into a Pfaffian


def _pf_det_sides(p, sc, numeric):
    n = p["n"]
    pairs = []
    a = RingMatrix(n, n, sc["a"])
    block = SkewMatrix.from_upper_function(
        2 * n,
        lambda i, j: a.at(i, j - n) if i < n <= j else Fraction(0),
    )
    pairs.append((pfaffian(block), _sign(n * (n - 1) // 2) * det(a)))
    if n >= 2:
        m = n - 1
        g = RingMatrix(m, 2 * n - m, sc["g"])
        lop = SkewMatrix.from_upper_function(
            2 * n,
            lambda i, j: g.at(i, j - m) if i < m <= j else Fraction(0),
        )
        pairs.append((pfaffian(lop), Fraction(0)))
    return pairs


_register(
    name="pf_det",
    summary="Pf of [[0, A], [-A^T, 0]] is a signed determinant, zero off-square",
    defaults={"n": 2},
    numeric_defaults={"n": 3},
    vectors=lambda p: [("a", p["n"] * p["n"]), ("g", (p["n"] - 1) * (p["n"] + 1))],
    sides=_pf_det_sides,
    main_dim=lambda p: 2 * p["n"],
    symbolic_cases=({"n": 2}, {"n": 3}),
)


# ---------------------------------------------------------------------------
# relations among the matrix families


def _rel_uv1_sides(p, sc, numeric):
    pp, qq = p["p"], p["q"]
    m = pp + qq
    x, y, a, b = sc["x"], sc["y"], sc["a"], sc["b"]
    u = [y[i] / x[i] for i in range(m)]
    v = [b[i] * x[i] ** qq / (a[i] * x[i] ** pp) for i in range(m)]
    lhs = _du(pp, qq, x, y, a, b)
    rhs = _prod(a[k] * x[k] ** pp / x[k] for k in range(m)) * _dv(pp, qq, u, v)
    return [(lhs, rhs)]


_register(
    name="rel_uv1",
    summary="dehomogenizes the bidegree matrix back to the two-block one",
    defaults={"p": 1, "q": 2},
    numeric_defaults={"p": 2, "q": 1},
    vectors=lambda p: _vectors(("x y a b", p["p"] + p["q"])),
    sides=_rel_uv1_sides,
    main_dim=lambda p: p["p"] + p["q"],
    guards=lambda p, sc: list(sc["x"]) + list(sc["a"]),
)


def _rel_uv2_sides(p, sc, numeric):
    pp, qq = p["p"], p["q"]
    m = pp + qq
    x, a = sc["x"], sc["a"]
    ones = [Fraction(1)] * m
    return [(_dv(pp, qq, x, a), _du(pp, qq, ones, x, ones, a))]


_register(
    name="rel_uv2",
    summary="the two-block matrix is the bidegree matrix at x=1, a=1",
    defaults={"p": 2, "q": 1},
    numeric_defaults={"p": 2, "q": 2},
    vectors=lambda p: [("x", p["p"] + p["q"]), ("a", p["p"] + p["q"])],
    sides=_rel_uv2_sides,
    main_dim=lambda p: p["p"] + p["q"],
)


def _rel_uw1_sides(p, sc, numeric):
    n = p["n"]
    x, a = sc["x"], sc["a"]
    ys = [1 + xi * xi for xi in x]
    cs = [1 + a[i] * x[i] for i in range(2 * n)]
    ds = [x[i] + a[i] for i in range(2 * n)]
    lhs = _du(n, n, x, ys, cs, ds)
    rhs = _sign(n * (n - 1) // 2) * _dw(2 * n, x, a)
    return [(lhs, rhs)]


_register(
    name="rel_uw1",
    summary="even palindromic-row determinant as a bidegree determinant",
    defaults={"n": 1},
    numeric_defaults={"n": 2},
    vectors=lambda p: [("x", 2 * p["n"]), ("a", 2 * p["n"])],
    sides=_rel_uw1_sides,
    main_dim=lambda p: 2 * p["n"],
    symbolic_cases=({"n": 1}, {"n": 2}),
)


def _rel_uw2_sides(p, sc, numeric):
    n = p["n"]
    x, a = sc["x"], sc["a"]
    ys = [1 + xi * xi for xi in x]
    cs = [1 + a[i] * x[i] * x[i] for i in range(2 * n + 1)]
    ds = [1 + a[i] for i in range(2 * n + 1)]
    lhs = _du(n, n + 1, x, ys, cs, ds)
    rhs = _sign(n * (n - 1) // 2) * _dw(2 * n + 1, x, a)
    return [(lhs, rhs)]


_register(
    name="rel_uw2",
    summary="odd palindromic-row determinant as a bidegree determinant",
    defaults={"n": 1},
    numeric_defaults={"n": 2},
    vectors=lambda p: [("x", 2 * p["n"] + 1), ("a", 2 * p["n"] + 1)],
    sides=_rel_uw2_sides,
    main_dim=lambda p: 2 * p["n"] + 1,
    symbolic_cases=({"n": 1}, {"n": 2}),
)


# ---------------------------------------------------------------------------
# the signed partition-sum variation


_register_quotient(
    "det",
    den=_xy_gap_palindromic,
    parts=_theorem_det(_family(_F, "p", "q"), ("x", "a"), ("y", "b"), ("z", "c")),
    name="variation1",
    summary="determinant identity for the signed partition-family sums",
    defaults={"n": 2, "p": 0, "q": 0},
    numeric_defaults={"n": 2, "p": 0, "q": 1},
    vectors=lambda p: _vectors(("x y a b", p["n"]), ("z c", p["p"] + p["q"])),
    main_dim=lambda p: 2 * p["n"] + p["p"] + p["q"],
)


_register_quotient(
    "pf",
    den=_x_gap_palindromic,
    parts=_theorem_pf(
        _family(_F, "p", "q"), ("x", "a"), ("z", "c"), _family(_F, "r", "s"), ("x", "b"), ("w", "d")
    ),
    name="variation2",
    summary="Pfaffian identity for the signed partition-family sums",
    defaults={"n": 2, "p": 0, "q": 0, "r": 0, "s": 0},
    numeric_defaults={"n": 1, "p": 1, "q": 1, "r": 1, "s": 1},
    vectors=_main2_vectors,
    main_dim=lambda p: 2 * p["n"] + max(p["p"] + p["q"], p["r"] + p["s"]),
)


def _sundquist(p, sc):
    n = p["n"]
    a = sc["a"]
    return (lambda i, j: a[j] - a[i]), lambda: _sign(n * (n - 1) // 2) * _F(n, n, sc["x"], a)


_register_quotient(
    "pf",
    den=lambda p, sc, i, j: 1 - sc["x"][i] * sc["x"][j],
    parts=_sundquist,
    name="sundquist",
    summary="Pf((a_j-a_i)/(1-x_i x_j)) as a signed shifted-determinant sum",
    defaults={"n": 2},
    numeric_defaults={"n": 3},
    vectors=lambda p: [("x", 2 * p["n"]), ("a", 2 * p["n"])],
)


def _rel_fv_sides(p, sc, numeric):
    pp, qq = p["p"], p["q"]
    m = pp + qq
    x, a = sc["x"], sc["a"]
    ys = [1 + xi * xi for xi in x]
    ones = [Fraction(1)] * m
    lhs = _F(pp, qq, x, a)
    rhs = _sign(pp * (pp - 1) // 2 + qq * (qq - 1) // 2) * _du(pp, qq, x, ys, ones, a)
    return [(lhs, rhs)]


_register(
    name="rel_fv",
    summary="the signed partition-family sum as a single bidegree determinant",
    defaults={"p": 2, "q": 1},
    numeric_defaults={"p": 2, "q": 2},
    vectors=lambda p: [("x", p["p"] + p["q"]), ("a", p["p"] + p["q"])],
    sides=_rel_fv_sides,
    main_dim=lambda p: p["p"] + p["q"],
    symbolic_cases=({"p": 1, "q": 1}, {"p": 2, "q": 1}),
)


def _rel_gh_sides(p, sc, numeric):
    pp, qq = p["p"], p["q"]
    x, a = sc["x"], sc["a"]
    f = _F(pp, qq, x, a)
    g = fgh_sum("G", pp, qq, list(x), list(a))
    h = fgh_sum("H", pp, qq, list(x), list(a))
    return [
        (g, _prod(1 - xi * xi for xi in x) * f),
        (h, _prod(1 - xi for xi in x) * f),
    ]


_register(
    name="rel_gh",
    summary="the two companion partition-family sums are scalar multiples of the first",
    defaults={"p": 2, "q": 1},
    numeric_defaults={"p": 2, "q": 2},
    vectors=lambda p: [("x", p["p"] + p["q"]), ("a", p["p"] + p["q"])],
    sides=_rel_gh_sides,
    main_dim=lambda p: p["p"] + p["q"],
)


def _littlewood_sides(p, sc, numeric):
    n = p["n"]
    x = sc["x"]
    total = Fraction(0)
    for lam in partition_family("P", n):
        term = _schur(lam, x)
        if (lam.size() // 2) % 2:
            term = -term
        total = total + term
    rhs = _prod(1 - x[i] * x[j] for i, j in _all_pairs(n))
    return [(total, rhs)]


_register(
    name="littlewood",
    summary="signed sum of hook-offset Schur polynomials equals prod (1 - x_i x_j)",
    defaults={"n": 3},
    numeric_defaults={"n": 4},
    vectors=lambda p: [("x", p["n"])],
    sides=_littlewood_sides,
    main_dim=lambda p: p["n"],
    symbolic_cases=({"n": 2}, {"n": 3}, {"n": 4}),
)


# ---------------------------------------------------------------------------
# minor expansion machinery


def _cauchy_binet_sides(p, sc, numeric):
    n, nn = p["n"], p["N"]
    x = RingMatrix(n, nn, sc["x"])
    y = RingMatrix(n, nn, sc["y"])
    a = RingMatrix(nn, nn, sc["a"])
    lhs = det(x.mul(a).mul(y.transpose()))
    rows = tuple(range(n))
    col_sets = list(combinations(range(nn), n))
    # X and Y cleared row by row, A by the lcm of all its entries
    xi, sx = clear_rows(x.row_list(i) for i in rows)
    yi, sy = clear_rows(y.row_list(i) for i in rows)
    (flat,), (la,) = clear_rows([a.data])
    ai = [flat[i * nn : (i + 1) * nn] for i in range(nn)]
    live = [(j_set, dy) for j_set, dy in zip(col_sets, minors(yi, col_sets)) if dy]
    j_sets = [j_set for j_set, _ in live]
    rhs = 0
    for i_set, dx in zip(col_sets, minors(xi, col_sets)):
        if dx:
            das = minors([ai[i] for i in i_set], j_sets)
            rhs += dx * sum(da * dy for da, (_, dy) in zip(das, live))
    return [(lhs, over(rhs, la**n * prod(sx) * prod(sy)))]


_register(
    name="cauchy_binet",
    summary="Cauchy-Binet: det(X A Y^T) as a sum over pairs of maximal minors",
    defaults={"n": 2, "N": 3},
    numeric_defaults={"n": 3, "N": 5},
    vectors=lambda p: [("x", p["n"] * p["N"]), ("y", p["n"] * p["N"]), ("a", p["N"] * p["N"])],
    sides=_cauchy_binet_sides,
    main_dim=lambda p: p["N"],
    check=_check_cauchy_binet,
)


def _band_minors(tag, r, cols, family, exponent):
    """Maximal minors of band matrix `tag` on I(lam), for lam in the r x cols box.

    Each is paired with (-1)^exponent(lam) when lam is in `family`, else with 0.
    """
    band = build_DBC(tag, r)
    members = {lam.parts for lam in partition_family(family, r)}
    shapes = partitions_in_box(r, cols)
    rows, _ = clear_rows(band.row_list(i) for i in range(r))  # unit entries, scale 1
    minors = minors_int(rows, [index_set(lam, r) for lam in shapes])
    return [
        (
            Fraction(minor),
            Fraction(_sign(exponent(lam))) if lam.parts in members else Fraction(0),
        )
        for lam, minor in zip(shapes, minors)
    ]


def _minor_dr_sides(p, sc, numeric):
    r = p["r"]
    return _band_minors("D", r, r - 1, "P", lambda lam: r * (r - 1) // 2 + lam.size() // 2)


_register(
    name="minor_Dr",
    summary="maximal minors of the symmetric unit band matrix: signs on one family, else 0",
    defaults={"r": 2},
    numeric_defaults={"r": 3},
    vectors=lambda p: [],
    sides=_minor_dr_sides,
    main_dim=lambda p: p["r"],
    check=lambda p: _check_nonneg(p, positive=("r",)),
    symbolic_cases=({"r": 1}, {"r": 2}, {"r": 3}),
)


def _minor_bc_sides(p, sc, numeric):
    r = p["r"]
    base = (r + 1) * r // 2
    b_exponent = lambda lam: base + (lam.size() + lam.diagonal()) // 2
    c_exponent = lambda lam: base + lam.size() // 2
    return _band_minors("B", r, r, "R", b_exponent) + _band_minors("C", r, r + 1, "Q", c_exponent)


_register(
    name="minor_BC",
    summary="maximal minors of the two signed band matrices against their families",
    defaults={"r": 2},
    numeric_defaults={"r": 3},
    vectors=lambda p: [],
    sides=_minor_bc_sides,
    main_dim=lambda p: p["r"],
    check=lambda p: _check_nonneg(p, positive=("r",)),
    symbolic_cases=({"r": 1}, {"r": 2}, {"r": 3}),
)


# ---------------------------------------------------------------------------
# reciprocal-entry Cauchy-type determinants: den_ij = f_1(x_i, y_j; z)


def _pair(f, p, sc, u1, u2, s1, s2):
    return f(p, 1, [[u1, u2] + sc["z"], [s1, s2] + sc["c"]])


def _reciprocal_den(f):
    return lambda p, sc, i, j: _pair(f, p, sc, sc["x"][i], sc["y"][j], sc["a"][i], sc["b"][j])


def _reciprocal_parts(f):
    """det(1/f_1(x_i, y_j; z)) = sign * prod_{i<j} f_1(x_i, x_j; z) f_1(y_i, y_j; z) / prod den."""

    def parts(p, sc):
        n = p["n"]
        x, y, a, b = sc["x"], sc["y"], sc["a"], sc["b"]
        core = lambda: _sign(n * (n - 1) // 2) * _prod(
            _pair(f, p, sc, x[i], x[j], a[i], a[j]) * _pair(f, p, sc, y[i], y[j], b[i], b[j])
            for i, j in _all_pairs(n)
        )
        return _one, core

    return parts


_register_quotient(
    "det",
    den=_reciprocal_den(_V),
    parts=_reciprocal_parts(_V),
    name="another1",
    summary="det of reciprocals of two-block determinants factors over all pairs",
    defaults={"n": 2, "p": 0, "q": 0},
    numeric_defaults={"n": 2, "p": 1, "q": 1},
    vectors=lambda p: _vectors(("x y a b", p["n"]), ("z c", p["p"] + p["q"])),
    main_dim=lambda p: max(p["n"], p["p"] + p["q"] + 2),
)


_register_quotient(
    "det",
    den=_reciprocal_den(_W),
    parts=_reciprocal_parts(_W),
    name="another2",
    summary="det of reciprocals of palindromic-row determinants factors over all pairs",
    defaults={"n": 2, "p": 0},
    numeric_defaults={"n": 2, "p": 1},
    vectors=lambda p: _vectors(("x y a b", p["n"]), ("z c", p["p"])),
    main_dim=lambda p: max(p["n"], p["p"] + 2),
)


# ---------------------------------------------------------------------------
# Pluecker relations


def _plucker_sides(p, sc, numeric):
    m = p["m"]
    mat = RingMatrix(m + 2, m + 4, sc["g"])
    rows = tuple(range(m + 2))
    tail = tuple(range(4, m + 4))

    def dcols(i, j):
        return det(mat.minor(rows, tuple(sorted((i - 1, j - 1))) + tail))

    rhs = dcols(1, 3) * dcols(2, 4) - dcols(1, 4) * dcols(2, 3)
    return [(dcols(1, 2) * dcols(3, 4), rhs)]


_register(
    name="plucker",
    summary="three-term Pluecker relation among maximal minors sharing m columns",
    defaults={"m": 0},
    numeric_defaults={"m": 4},
    vectors=lambda p: [("g", (p["m"] + 2) * (p["m"] + 4))],
    sides=_plucker_sides,
    main_dim=lambda p: p["m"] + 2,
    symbolic_cases=({"m": 0}, {"m": 2}),
)


def _plucker_vw_sides(p, sc, numeric):
    pp, qq = p["p"], p["q"]
    x, y, a, b = sc["x"], sc["y"], sc["a"], sc["b"]
    z, c, w, d = sc["z"], sc["c"], sc["w"], sc["d"]

    def quad(f):
        return (
            f(x[0], x[1], a[0], a[1]) * f(y[0], y[1], b[0], b[1]),
            f(x[0], y[0], a[0], b[0]) * f(x[1], y[1], a[1], b[1])
            - f(x[0], y[1], a[0], b[1]) * f(x[1], y[0], a[1], b[0]),
        )

    f_v = lambda u1, u2, s1, s2: _dv(pp + 1, qq + 1, [u1, u2] + z, [s1, s2] + c)
    f_w = lambda u1, u2, s1, s2: _dw(pp + 2, [u1, u2] + w, [s1, s2] + d)
    return [quad(f_v), quad(f_w)]


_register(
    name="plucker_vw",
    summary="quadratic relation among the pairwise structured determinants",
    defaults={"p": 0, "q": 0},
    numeric_defaults={"p": 1, "q": 1},
    vectors=lambda p: _vectors(("x y a b", 2), ("z c", p["p"] + p["q"]), ("w d", p["p"])),
    sides=_plucker_vw_sides,
    main_dim=lambda p: p["p"] + p["q"] + 2,
    symbolic_cases=({"p": 0, "q": 0}, {"p": 1, "q": 0}),
)


# ---------------------------------------------------------------------------
# degenerate Pfaffians and hyperpfaffians


def _special_pf(p, sc):
    m = p["n"] // 2
    x = sc["x"]
    num = lambda i, j: (x[j] ** m - x[i] ** m) ** 2
    return num, lambda: _delta(x) * _delta(x) if p["r"] == 1 else Fraction(0)


_register_quotient(
    "pf",
    dim=lambda p: p["n"] * p["r"],
    den=_x_gap,
    parts=_special_pf,
    name="special_pf",
    summary="Pf((x_j^m - x_i^m)^2/(x_j - x_i)): a Vandermonde for one block, else 0",
    defaults={"n": 2, "r": 2},
    numeric_defaults={"n": 2, "r": 3},
    vectors=lambda p: [("x", p["n"] * p["r"])],
    check=_check_even_block,
    symbolic_cases=({"n": 2, "r": 1}, {"n": 2, "r": 2}),
)


def _vandermonde_hyperpfaffian(n, x, y, a, b):
    """Hpf of the order-n tensor (prod a_I + prod b_I) prod_{s<t in I} (x_s y_t - y_s x_t).

    hyper_u takes it at (x, y, a, b), where the two blocks square away the
    orientation of the cross factors.  At (1, x, 1, a) the entries are
    (1 + prod a_I) Delta(x_I), which is hyper_v, and at (1, x, 1, 0) they are
    Delta(x_I), which is special_hyppf.  Both modes take the entries from one
    walk over the sorted prefixes that can still be completed to n indices.
    """
    m = len(x)
    # x, y, a, b = X / lx, Y / ly, A / la, B / lb with integral X, Y, A, B: each entry is
    # integral over (la lb)^n (lx ly)^C(n,2), and the hyperpfaffian has degree m / n
    (x, y, a, b), (lx, ly, la, lb) = clear_rows([x, y, a, b])
    walk = [((), 1, lb**n, la**n)]  # (prefix, its cross product, prod A lb^n, prod B la^n)
    for depth in range(n):
        prefixes, walk = walk, []
        for idx, c, pa, pb in prefixes:
            for t in range(idx[-1] + 1 if idx else 0, m - n + depth + 1):
                ct = c
                for s in idx:
                    ct *= x[s] * y[t] - y[s] * x[t]
                walk.append((idx + (t,), ct, pa * a[t], pb * b[t]))
    tensor = AlternatingTensor.from_function(n, m, {idx: (pa + pb) * c for idx, c, pa, pb in walk}.get)
    scale = (la * lb) ** n * (lx * ly) ** (n * (n - 1) // 2)
    return over(hyperpfaffian(tensor), scale ** (m // n))


def _special_hyppf_sides(p, sc, numeric):
    x = sc["x"]
    ones = [Fraction(1)] * len(x)
    lhs = _vandermonde_hyperpfaffian(p["n"], ones, x, ones, [Fraction(0)] * len(x))
    return [(lhs, _delta(x) if p["r"] == 1 else Fraction(0))]


_register(
    name="special_hyppf",
    summary="hyperpfaffian of block Vandermonde factors: one block survives, else 0",
    defaults={"n": 2, "r": 2},
    numeric_defaults={"n": 2, "r": 3},
    vectors=lambda p: [("x", p["n"] * p["r"])],
    sides=_special_hyppf_sides,
    main_dim=lambda p: p["n"] * p["r"],
    check=_check_even_block,
    symbolic_cases=({"n": 2, "r": 1}, {"n": 2, "r": 2}),
)


def _hyper_v_sides(p, sc, numeric):
    n, x, a = p["n"], sc["x"], sc["a"]
    ones = [Fraction(1)] * len(x)
    return [(_vandermonde_hyperpfaffian(n, ones, x, ones, a), _dv(n, n, x, a))]


_register(
    name="hyper_v",
    summary="the square two-block determinant as an order-n hyperpfaffian",
    defaults={"n": 2},
    numeric_defaults={"n": 4},
    vectors=lambda p: [("x", 2 * p["n"]), ("a", 2 * p["n"])],
    sides=_hyper_v_sides,
    main_dim=lambda p: 2 * p["n"],
    check=_check_even_block,
)


def _hyper_u_sides(p, sc, numeric):
    n = p["n"]
    x, y, a, b = sc["x"], sc["y"], sc["a"], sc["b"]
    return [(_vandermonde_hyperpfaffian(n, x, y, a, b), _du(n, n, x, y, a, b))]


_register(
    name="hyper_u",
    summary="the square bidegree determinant as an order-n hyperpfaffian",
    defaults={"n": 2},
    numeric_defaults={"n": 4},
    vectors=lambda p: _vectors(("x y a b", 2 * p["n"])),
    sides=_hyper_u_sides,
    main_dim=lambda p: 2 * p["n"],
    check=_check_even_block,
)


def _compo_sides(p, sc, numeric):
    n, r = p["n"], p["r"]
    m = n // 2
    a = _skew_from(sc["a"], n * r)
    lhs = hyperpfaffian(blocked_tensor(a, n))
    rhs = Fraction(factorial(m * r), factorial(m) ** r * factorial(r)) * pfaffian(a)
    return [(lhs, rhs)]


_register(
    name="compo",
    summary="hyperpfaffian of the subpfaffian tensor is a multiple of the Pfaffian",
    defaults={"n": 2, "r": 2},
    numeric_defaults={"n": 2, "r": 3},
    vectors=lambda p: [("a", (p["n"] * p["r"]) * (p["n"] * p["r"] - 1) // 2)],
    sides=_compo_sides,
    main_dim=lambda p: p["n"] * p["r"],
    check=_check_even_block,
    symbolic_cases=({"n": 2, "r": 2}, {"n": 2, "r": 3}, {"n": 4, "r": 1}),
)


# ---------------------------------------------------------------------------
# rectangle Schur-function corollaries and the coefficient matrix


_register_quotient(
    "det",
    den=_unit_den,
    parts=_product(_cauchy, _theorem_det(_box("q", "e"), ("x",), ("y",), ("z",))),
    name="det_schur",
    summary="determinant of rectangle Schur polynomials at merged alphabets",
    defaults={"n": 2, "q": 0, "e": 1, "zlen": 1},
    numeric_defaults={"n": 2, "q": 1, "e": 1, "zlen": 2},
    vectors=lambda p: [("x", p["n"]), ("y", p["n"]), ("z", p["zlen"])],
    main_dim=lambda p: p["n"] + p["q"],
)


# at q = s = 0 the k = 1 boxes are the single rows h_{e+n-1}, h_{f+n-1}
_pf_schur = _product(
    _schur_id, _theorem_pf(_box("q", "e"), ("x",), ("z",), _box("s", "f"), ("x",), ("w",))
)


_register_quotient(
    "pf",
    den=_unit_den,
    parts=_pf_schur,
    name="pf_schur",
    summary="Pfaffian of rectangle Schur entries factors into four rectangle Schurs",
    defaults={"n": 2, "q": 0, "s": 0, "e": 1, "f": 0, "zlen": 1, "wlen": 0},
    numeric_defaults={"n": 2, "q": 1, "s": 0, "e": 1, "f": 1, "zlen": 2, "wlen": 1},
    vectors=lambda p: [("x", 2 * p["n"]), ("z", p["zlen"]), ("w", p["wlen"])],
    main_dim=lambda p: max(2 * p["n"], p["n"] + p["q"], p["n"] + p["s"]),
)


_register_quotient(
    "pf",
    den=_unit_den,
    parts=_at(_pf_schur, q=0, s=0),
    name="pf_schur2",
    summary="complete-homogeneous specialization: two rectangle Schurs on the right",
    defaults={"n": 2, "e": 1, "f": 0, "zlen": 1, "wlen": 0},
    numeric_defaults={"n": 2, "e": 1, "f": 1, "zlen": 2, "wlen": 2},
    vectors=lambda p: [("x", 2 * p["n"]), ("z", p["zlen"]), ("w", p["wlen"])],
)


def _pf_schur3_sides(p, sc, numeric):
    n, e, f = p["n"], p["e"], p["f"]
    z, w = sc["z"], sc["w"]
    pairs = []
    mus = partitions_in_box(n, e)
    nus = partitions_in_box(n, f)
    for lam in partitions_in_box(2 * n, e + f):
        lhs = Fraction(0)
        for mu in mus:
            for nu in nus:
                c = lr_bruteforce(lam, mu, nu)
                if c:
                    lhs = lhs + c * _schur(mu.complement(n, e), z) * _schur(
                        nu.complement(n, f), w
                    )
        pairs.append((lhs, pfaffian(b_principal(index_set(lam, 2 * n), n, e, f, z, w))))
    return pairs


_register(
    name="pf_schur3",
    summary="coefficient-matrix subpfaffians generate rectangle LR sums",
    defaults={"n": 1, "e": 1, "f": 1},
    numeric_defaults={"n": 1, "e": 2, "f": 2},
    vectors=lambda p: [("z", p["n"]), ("w", p["n"])],
    sides=_pf_schur3_sides,
    main_dim=lambda p: 2 * p["n"],
    symbolic_cases=({"n": 1, "e": 1, "f": 1}, {"n": 1, "e": 2, "f": 2}),
)


def _minor_sum_sides(p, sc, numeric):
    n, nn = p["n"], p["N"]
    x = RingMatrix(2 * n, nn, sc["x"])
    a = _skew_from(sc["a"], nn)
    rhs = congruence_pfaffian(x, a)
    # A scaled by the lcm of its entries, so every sub-Pfaffian on 2n indices
    # is an int times la^n; X cleared row by row; one memo for all index sets
    (upper,), (la,) = clear_rows([sc["a"]])
    ai = _skew_from(upper, nn)
    xi, sx = clear_rows(x.row_list(i) for i in range(2 * n))
    pfs = {idx: pf for idx, pf in sub_pfaffians(ai, combinations(range(nn), 2 * n)).items() if pf}
    lhs = sum(pf * d for pf, d in zip(pfs.values(), minors(xi, list(pfs))))
    return [(over(lhs, la**n * prod(sx)), rhs)]


_register(
    name="minor_sum",
    summary="sum of subpfaffians times maximal minors equals the congruence Pfaffian",
    defaults={"n": 1, "N": 3},
    numeric_defaults={"n": 2, "N": 7},
    vectors=lambda p: [("x", 2 * p["n"] * p["N"]), ("a", p["N"] * (p["N"] - 1) // 2)],
    sides=_minor_sum_sides,
    main_dim=lambda p: p["N"],
    check=_check_minor_sum,
    symbolic_cases=({"n": 1, "N": 3}, {"n": 2, "N": 5}),
)


def registry():
    """Deterministic, complete list of identity keys."""
    return list(REGISTRY)


def get_spec(name):
    spec = REGISTRY.get(name)
    if spec is None:
        raise UnknownIdentityError(name)
    return spec
