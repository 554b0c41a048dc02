import gc
import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest

import detpf.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from detpf.linalg import (
    AlternatingTensor,
    DimensionMismatchError,
    DimNotDivisibleError,
    EnumerationCapError,
    IndexBoundsError,
    NonSquareError,
    OddIndexSetError,
    OddOrderError,
    RingMatrix,
    SkewMatrix,
    blocked_tensor,
    clear_rows,
    congruence_pfaffian,
    congruence_product,
    det,
    det_with_denominators,
    hyperpfaffian,
    minors,
    minors_int,
    over,
    pfaffian,
    pfaffian_of_ratios,
    pfaffian_with_denominators,
    sub_pfaffian,
    _det_bareiss,
    _det_expand,
    _pf_expand,
)
from detpf.poly import Polynomial, Quotient, VariableTable, random_rational

from oracles import (
    det_leibniz,
    inversion_sign,
    matmul,
    ordered_block_partitions,
    pf_matchings,
    random_matrix,
    random_skew,
    tensor_value,
)


def _pf_elimination(a):
    """The integer skew elimination on the entries of a rational SkewMatrix."""
    return pfaffian_of_ratios(a.dim, {k: (v.numerator, v.denominator) for k, v in a.upper.items()})


def _draw(rng):
    return random_rational(rng, 20)


def _identity(n):
    return RingMatrix(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])


def test_det_identity():
    for n in (1, 3, 6):
        assert det(_identity(n)) == 1
    assert det(RingMatrix(0, 0, [])) == 1


def test_det_nonsquare():
    with pytest.raises(NonSquareError):
        det(RingMatrix(1, 2, [Fraction(1), Fraction(2)]))


def test_det_matches_leibniz_oracle():
    rng = random.Random(42)
    for _ in range(200):
        m = random_matrix(rng, 5, 5, _draw)
        assert det(m) == det_leibniz(m)


_ENTRIES = (
    st.integers(-5, 5)
    | st.integers(-(2**70), 2**70)
    | st.builds(
        Fraction,
        st.integers(-(2**70), 2**70),
        st.integers(1, 9) | st.integers(2**64 + 1, 2**70),
    )
)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_rational_product_matches_triple_loop(data):
    rows, inner, cols = data.draw(st.tuples(*[st.integers(0, 4)] * 3))

    def matrix(r, c):
        return RingMatrix(r, c, data.draw(st.lists(_ENTRIES, min_size=r * c, max_size=r * c)))

    x, y = matrix(rows, inner), matrix(inner, cols)
    if rows and data.draw(st.booleans()):
        i = data.draw(st.integers(0, rows - 1))
        x.data[i * inner : (i + 1) * inner] = [0] * inner
    if cols and data.draw(st.booleans()):
        y.data[data.draw(st.integers(0, cols - 1)) :: cols] = [0] * inner
    got = x.mul(y)
    assert (got.rows, got.cols) == (rows, cols)
    assert got.data == matmul(x, y).data
    assert all(type(v) is Fraction for v in got.data)


def test_rational_product_edge_shapes():
    empty_inner = RingMatrix(2, 0, []).mul(RingMatrix(0, 3, []))
    assert (empty_inner.rows, empty_inner.cols) == (2, 3)
    assert empty_inner.data == [0] * 6 and all(type(v) is Fraction for v in empty_inner.data)
    big = 2**64 + 13
    x = RingMatrix(2, 2, [big, Fraction(1, big), 0, 0])
    y = RingMatrix(2, 1, [Fraction(3, 2), big])
    assert x.mul(y).data == [Fraction(3 * big, 2) + 1, 0]


def test_polynomial_product_keeps_the_ring_loop():
    table = VariableTable()
    table.add_vector("t", 6)
    t = table.gens()
    # a polynomial meets a non-integral rational only inside a Quotient
    x = RingMatrix(2, 3, [t[0], Fraction(6, 3), 3, t[1] * t[2], 0, t[3] / 2])
    y = RingMatrix(3, 2, [Fraction(-2), t[4], t[5], 1, -t[0], Fraction(5)])
    got = x.mul(y)
    assert got.data == matmul(x, y).data
    assert got.at(0, 0) == -2 * t[0] + 2 * t[5] - 3 * t[0]
    assert got.at(1, 1) == t[1] * t[2] * t[4] + t[3] * 5 / 2
    rational_left = RingMatrix(1, 2, [Fraction(1, 2), 3]).mul(RingMatrix(2, 1, [t[0] / 3, t[1]]))
    assert rational_left.data == [t[0] / 6 + 3 * t[1]]


def test_det_polynomial_cofactor_matches_bareiss():
    table = VariableTable()
    table.add_vector("t", 9)
    gens = table.gens()
    m = RingMatrix(3, 3, gens)
    assert _det_expand(m) == _det_bareiss(m) == det_leibniz(m)


def test_polynomial_bareiss_divides_exactly_on_rational_constants():
    # `//` floors on Fractions and ints, and an int cannot be divided by a
    # Polynomial, so a constant block that Bareiss pivots on must be lifted
    # to polynomials before the elimination divides by it
    table = VariableTable()
    table.add_vector("t", 4)
    t = table.gens()
    two, three = Fraction(4, 2), Fraction(-9, 3)
    block = RingMatrix(4, 4, [
        two, three, t[0], 1,
        three, two, Fraction(7), t[1],
        t[2], 3, t[3] * t[0] - two, Fraction(-5),
        1, t[3], three * t[1], t[2] + 1,
    ])
    assert _det_bareiss(block) == det_leibniz(block) == _det_expand(block)

    def entry(r):
        value = Fraction(r.randint(-20, 20))
        return value + r.choice(t) if r.random() < 0.4 else value

    rng = random.Random(20)
    for n in (2, 3, 4, 5):
        m = random_matrix(rng, n, n, entry)
        m.data[-1] = m.data[-1] + t[3]  # at least one polynomial entry
        assert _det_bareiss(m) == det_leibniz(m)


def test_minors_int_on_polynomial_rows_matches_cofactor():
    table = VariableTable()
    table.add_vector("t", 3)
    t = table.gens()
    rng = random.Random(21)
    entries = [t[0], t[1] - t[2], t[0] * t[2] + 1, Fraction(-12, 4) * t[1], t[2] ** 2]
    rows = [[rng.choice(entries) + rng.randint(-2, 2) for _ in range(6)] for _ in range(3)]
    rows[0][0] = Polynomial.zero(table)  # the shared first step swaps rows
    lists = [(0, 1, 2), (0, 1, 5), (0, 4, 3), (2, 1, 0), (2, 1, 4), (5, 3, 3)]
    want = [_det_expand(RingMatrix(3, 3, [r[c] for r in rows for c in cols])) for cols in lists]
    assert minors_int(rows, lists) == want


def test_pfaffian_small():
    table = VariableTable(["t"])
    (t,) = table.gens()
    assert pfaffian(SkewMatrix(2, {(0, 1): t})) == t
    names = VariableTable(["a", "b", "c", "d", "e", "f"])
    a, b, c, d, e, f = names.gens()
    pf = pfaffian(SkewMatrix(4, {(0, 1): a, (0, 2): b, (0, 3): c, (1, 2): d, (1, 3): e, (2, 3): f}))
    assert pf == a * f - b * e + c * d


def test_pfaffian_conventions():
    assert pfaffian(SkewMatrix(0, {})) == 1
    assert pfaffian(SkewMatrix(3, {(0, 1): Fraction(2)})) == 0  # odd dim


def test_pfaffian_squares_to_det():
    rng = random.Random(1)
    for _ in range(100):
        a = random_skew(rng, 6, _draw)
        pf = pfaffian(a)
        assert pf * pf == det(a.to_matrix())


def test_pfaffian_matches_matching_oracle():
    rng = random.Random(2)
    for dim in (2, 4, 6, 8):
        for _ in range(10):
            a = random_skew(rng, dim, _draw)
            assert pfaffian(a) == pf_matchings(a)


_XY = VariableTable(["x", "y"])


def _small_polynomial(terms):
    x, y = _XY.gens()
    return sum((c * x**i * y**j for c, i, j in terms), Polynomial.zero(_XY))


_SMALL_POLYNOMIALS = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3
).map(_small_polynomial)
# a Polynomial meets a Fraction only when the Fraction is an integer
_POLYNOMIAL_ENTRIES = st.sampled_from([0, Fraction(0)]) | st.integers(-3, 3) | st.integers(
    -3, 3
).map(Fraction) | _SMALL_POLYNOMIALS


def _mixed_entries(draw):
    """0, ints, Fractions and small Polynomials, or (half the time) no Polynomial at all."""
    return draw(st.sampled_from([_POLYNOMIAL_ENTRIES, st.just(0) | _RATIONAL_ENTRIES["mixed"]]))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pfaffian_of_mixed_entries_matches_matchings(data):
    entries = _mixed_entries(data.draw)
    n = data.draw(st.integers(0, 8))
    a = SkewMatrix(n, {(i, j): data.draw(entries) for i, j in combinations(range(n), 2)})
    assert pfaffian(a) == pf_matchings(a)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_det_of_mixed_entries_matches_leibniz(data):
    entries = _mixed_entries(data.draw)
    n = data.draw(st.integers(0, 8))
    # sparse past dimension 6, so the 8! Leibniz terms stay cheap to multiply
    if n > 6:
        entries = st.just(0) | entries
    m = RingMatrix(n, n, [data.draw(entries) for _ in range(n * n)])
    assert det(m) == det_leibniz(m)


def test_pfaffian_with_denominators_at_polynomial_entries_matches_matchings():
    # Pf(num/den) prod den is the matching sum of prod num over the matched pairs
    # times prod den over the unmatched ones
    x, y = _XY.gens()
    rng = random.Random(15)
    for dim in (2, 4, 6):
        pairs = list(combinations(range(dim), 2))
        for _ in range(5):
            nums = {p: rng.choice([0, 1, -2, x, y - 1, x * y + 2, Fraction(3)]) for p in pairs}
            dens = {p: rng.choice([1, -1, x + 1, y + 2, x - y + 3]) for p in pairs}
            got = pfaffian_with_denominators(dim, lambda i, j: nums[i, j], lambda i, j: dens[i, j])
            want = Fraction(0)
            for matched in (q for q in combinations(pairs, dim // 2) if len({*sum(q, ())}) == dim):
                flat = SkewMatrix(dim, {p: nums[p] for p in matched})
                term = pf_matchings(flat)
                for p in pairs:
                    if p not in matched:
                        term = term * dens[p]
                want = want + term
            assert got == want


def test_zero_pfaffian_of_polynomial_entries_is_a_zero_polynomial():
    # the products of the top level cancel in the kernel's one term map
    x, _ = _XY.gens()
    got = pfaffian(SkewMatrix(4, {(0, 1): x, (2, 3): x, (0, 2): x, (1, 3): x, (1, 2): 1}))
    assert type(got) is Polynomial and not got


def test_skew_entry_is_zero_on_the_diagonal_and_off_the_stored_triangle():
    a = SkewMatrix(4, {(0, 2): Fraction(5), (1, 3): 0})
    assert a.entry(0, 2) == 5 and a.entry(2, 0) == -5
    for i, j in [(1, 1), (0, 1), (1, 0), (1, 3), (3, 1), (2, 3), (3, 2)]:
        assert a.entry(i, j) == 0 and not a.entry(i, j)


def test_from_upper_function_stores_what_the_constructor_stores():
    x, y = _XY.gens()
    zero = Polynomial.zero(_XY)
    values = [0, x, Fraction(0), Fraction(-2, 3), y - y, 7, x * y, zero, 1, -x, 0, y, 0, 2, 0]
    pairs = list(combinations(range(6), 2))
    table = dict(zip(pairs, values))
    built = SkewMatrix.from_upper_function(6, lambda i, j: table[i, j])
    checked = SkewMatrix(6, table)
    assert built.upper == checked.upper and list(built.upper) == list(checked.upper)
    assert built.dim == 6 and len(built.upper) == 8


def test_pfaffian_elimination_agrees_with_expansion():
    rng = random.Random(3)
    a = random_skew(rng, 16, _draw)
    assert _pf_elimination(a) == _pf_expand(a)
    assert pfaffian(a) == _pf_elimination(a)  # rational dim 16 takes the elimination route
    sparse = SkewMatrix(16, {(0, 1): Fraction(3)})
    assert _pf_elimination(sparse) == 0


_INTS = st.integers(-3, 3) | st.integers(-(2**70), 2**70)
_DENOMINATORS = st.integers(1, 9) | st.integers(2**64 + 1, 2**70)
_RATIONAL_ENTRIES = {
    "int": _INTS,
    "fraction": st.builds(Fraction, _INTS, _DENOMINATORS),
    "mixed": _INTS | st.builds(Fraction, _INTS, _DENOMINATORS),
}


@st.composite
def _rational_matrices(draw, entries):
    """Square matrices up to 6x6; some with a zero leading pivot, some singular."""
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(st.sampled_from(["random", "zero pivot", "singular"]))
    if n > 1 and shape == "zero pivot":
        rows[0][0] = 0
        rows[1][0] = draw(entries.filter(bool))
    elif n > 1 and shape == "singular":
        scale = draw(entries)
        rows[-1] = [scale * v for v in rows[0]]
    return RingMatrix(n, n, [v for row in rows for v in row])


_SWAP_NEEDED = RingMatrix(3, 3, [0, 2, 1, Fraction(1, 2**64 + 1), 0, 3, 4, 5, 6])
_SINGULAR = RingMatrix(3, 3, [Fraction(1, 3), 2, 5, Fraction(2, 3), 4, 10, 7, 1, Fraction(-1, 2**65)])
_HUGE_DENOMINATORS = RingMatrix(
    2, 2, [Fraction(1, 2**64 + 13), Fraction(3, 2**70 - 1), Fraction(-5, 2**67 + 1), 1]
)


def _check_rational_det(m):
    d = det(m)
    assert isinstance(d, Fraction)
    assert d == det_leibniz(m) == _det_expand(m)
    return d


@pytest.mark.parametrize("kind", sorted(_RATIONAL_ENTRIES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rational_det_matches_leibniz_and_cofactor(kind, data):
    _check_rational_det(data.draw(_rational_matrices(_RATIONAL_ENTRIES[kind])))


def test_rational_det_edge_cases():
    assert _check_rational_det(_SWAP_NEEDED) == 24 - Fraction(7, 2**64 + 1)
    assert _check_rational_det(_SINGULAR) == 0
    assert _check_rational_det(_HUGE_DENOMINATORS).denominator > 2**128


@st.composite
def _int_tables(draw):
    """Int tables up to 6 x 9 and column lists that share prefixes.

    Lists drawn with replacement repeat columns; the shaped tables add an
    all-zero column, a zero leading pivot that needs a row swap, or two
    proportional leading columns (a singular prefix), with the first list
    starting on those columns.
    """
    n = draw(st.integers(0, 6))
    width = draw(st.integers(max(n, 1), 9))
    rows = [draw(st.lists(_INTS, min_size=width, max_size=width)) for _ in range(n)]
    shape = draw(st.sampled_from(["random", "zero column", "zero pivot", "singular prefix"]))
    if shape == "zero column":
        for row in rows:
            row[0] = 0
    elif n > 1 and shape == "zero pivot":
        rows[0][0] = 0
        rows[draw(st.integers(1, n - 1))][0] = draw(_INTS.filter(bool))
    elif n > 1 and shape == "singular prefix":
        scale = draw(_INTS)
        for row in rows:
            row[1] = scale * row[0]

    def columns(size):
        return tuple(draw(st.lists(st.integers(0, width - 1), min_size=size, max_size=size,
                                   unique=draw(st.booleans()))))

    lists = [tuple(range(n)) if shape != "random" else columns(n)]
    for _ in range(draw(st.integers(0, 8))):
        base = draw(st.sampled_from(lists))
        k = draw(st.integers(0, n))
        lists.append(base[:k] + columns(n - k))
    return rows, lists


def _minor_leibniz(rows, cols):
    return det_leibniz(RingMatrix(len(rows), len(rows), [row[c] for row in rows for c in cols]))


@given(table=_int_tables())
@settings(max_examples=150, deadline=None)
def test_minors_int_matches_leibniz(table):
    rows, lists = table
    got = minors_int(rows, lists)
    assert all(type(v) is int for v in got)
    assert got == [_minor_leibniz(rows, cols) for cols in lists]


def test_minors_int_edge_cases():
    assert minors_int([], [(), ()]) == [1, 1]
    assert minors_int([[4, -7]], [(1,), (0,), (1,)]) == [-7, 4, -7]
    # column 0 is zero on every row: every list through it is 0, the others are not
    rows = [[0, 1, 2], [0, 3, 5]]
    assert minors_int(rows, [(0, 1), (1, 0), (1, 2), (2, 1)]) == [0, 0, -1, 1]
    # the leading pivot is zero, so the shared first step swaps rows 0 and 2
    rows = [[0, 1, 2, 3], [0, 4, 5, 6], [7, 8, 9, 11]]
    lists = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 3, 3)]
    assert minors_int(rows, lists) == [_minor_leibniz(rows, c) for c in lists] == [-21, -42, -21, 0]
    with pytest.raises(DimensionMismatchError):
        minors_int([[1, 2], [3, 4]], [(0,)])


def test_polynomial_rows_clear_to_themselves_with_scale_one():
    x, y = VariableTable(["x", "y"]).gens()
    rows = [[x, 2 * y - 1], [x * y, y]]
    cleared, scales = clear_rows(rows)
    assert cleared == rows and scales == [1, 1]
    assert all(isinstance(v, Polynomial) for row in cleared for v in row)
    # integral rationals beside them clear to ints, with scale 1 too
    mixed, scales = clear_rows([[x, Fraction(3), Fraction(0)]])
    assert mixed == [[x, 3, 0]] and scales == [1] and type(mixed[0][1]) is int


def test_minors_take_the_int_elimination_on_int_rows_and_det_on_others():
    rows = [[0, 1, 2, 3], [0, 4, 5, 6], [7, 8, 9, 11]]
    lists = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 3, 3)]
    assert minors(rows, lists) == minors_int(rows, lists)
    assert minors([], [(), ()]) == [1, 1]
    x, y, z = VariableTable(["x", "y", "z"]).gens()
    poly_rows = [[x, 1, y, 0], [z, x * y, 2, x], [1, y, z * z, -3]]
    got = minors(poly_rows, lists)
    want = [det(RingMatrix(3, 3, [row[c] for row in poly_rows for c in cols])) for cols in lists]
    assert got == want and got[3] == 0 and all(isinstance(v, Polynomial) for v in got[:3])
    assert got[0] == det_leibniz(RingMatrix(3, 3, [row[c] for row in poly_rows for c in lists[0]]))


def test_over_divides_by_every_scale_and_never_drops_one():
    assert over(6, 4) == Fraction(3, 2) and type(over(6, 4)) is Fraction
    assert type(over(Fraction(1, 3), 1)) is Fraction
    x = VariableTable(["x"]).gens()[0]
    assert over(x + 1, 1) == x + 1
    for scale in (2, x, x - 1):
        assert over(x + 1, scale) * scale == x + 1
        assert over(x + 1, scale) != x + 1
    assert over(0, x) == 0


def test_cleared_det_and_pfaffian_of_rational_entries_match_the_fraction_oracle():
    # a negative denominator and a zero numerator on each route; det_with_denominators
    # and pfaffian_with_denominators return det/Pf(num/den) times prod den
    nums = {(0, 0): Fraction(2, 3), (0, 1): 0, (1, 0): -5, (1, 1): Fraction(7, 4)}
    dens = {(0, 0): -3, (0, 1): Fraction(1, 2), (1, 0): Fraction(-5, 6), (1, 1): 4}
    got = det_with_denominators(2, lambda i, j: nums[i, j], lambda i, j: dens[i, j])
    ratio = RingMatrix(2, 2, [Fraction(nums[i, j]) / dens[i, j] for i in range(2) for j in range(2)])
    assert type(got) is Fraction
    assert got == det_leibniz(ratio) * prod(dens.values()) != 0
    pairs = list(combinations(range(4), 2))
    pf_nums = dict(zip(pairs, [Fraction(1, 2), 0, 3, -2, Fraction(5, 7), 1]))
    pf_dens = dict(zip(pairs, [-2, Fraction(3, 5), 1, Fraction(-1, 4), 7, -1]))
    got = pfaffian_with_denominators(4, lambda i, j: pf_nums[i, j], lambda i, j: pf_dens[i, j])
    skew = SkewMatrix(4, {k: Fraction(pf_nums[k]) / pf_dens[k] for k in pairs})
    assert type(got) is Fraction
    assert got == pf_matchings(skew) * prod(pf_dens.values()) != 0


@st.composite
def _rational_skews(draw, entries):
    """Skew matrices of dims 8-12; some with a zero first pivot, some with a zero row."""
    n = draw(st.sampled_from([8, 10, 12]))
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i + 1, n)}
    shape = draw(st.sampled_from(["random", "zero pivot", "zero row"]))
    if shape == "zero pivot":
        upper[(0, 1)] = 0
        upper[(0, draw(st.integers(2, n - 1)))] = draw(entries.filter(bool))
    elif shape == "zero row":
        k = draw(st.integers(0, n - 1))
        upper = {key: (0 if k in key else v) for key, v in upper.items()}
    return SkewMatrix(n, upper)


@pytest.mark.parametrize("kind", sorted(_RATIONAL_ENTRIES))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_integer_pf_elimination_matches_expansion_and_matchings(kind, data):
    a = data.draw(_rational_skews(_RATIONAL_ENTRIES[kind]))
    pf = _pf_elimination(a)
    assert isinstance(pf, Fraction)
    assert pf == _pf_expand(a) == pf_matchings(a)


def test_pfaffian_takes_one_route_per_ring(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Pfaffian reached the other ring's route")

    rng = random.Random(22)
    rational = [random_skew(rng, dim, _draw) for dim in (2, 4, 6)]
    expected = [pf_matchings(a) for a in rational]
    with monkeypatch.context() as patch:
        patch.setattr(detpf.linalg, "_pf_expand", refuse)
        assert [pfaffian(a) for a in rational] == expected
    table = VariableTable()
    table.add_vector("t", 15)
    t = table.gens()
    symbolic = [SkewMatrix.from_upper_function(dim, lambda i, j: t[i + j] + i) for dim in (2, 4, 6)]
    monkeypatch.setattr(detpf.linalg, "pfaffian_of_ratios", refuse)
    assert [pfaffian(a) for a in symbolic] == [pf_matchings(a) for a in symbolic]


def test_pfaffian_of_a_zero_row_builds_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("a matrix with a zero row reached a Pfaffian route")

    monkeypatch.setattr(detpf.linalg, "pfaffian_of_ratios", refuse)
    monkeypatch.setattr(detpf.linalg, "_pf_expand", refuse)
    assert pfaffian(SkewMatrix(3000, {})) == 0
    assert pfaffian(SkewMatrix(3000, {(0, 1): Fraction(1, 3)})) == 0
    assert pfaffian(SkewMatrix(8, {(i, 7): Fraction(i + 1) for i in range(6)})) == 0


@pytest.mark.parametrize("dim", [6, 8, 10, 14])
def test_pfaffian_routes_agree_across_the_switch(dim):
    rng = random.Random(dim)
    # half the entries of the 14x14 matrix are zero, which keeps the matching sum small
    zero_share = 0.5 if dim == 14 else 0.0
    a = random_skew(rng, dim, lambda r: Fraction(0) if r.random() < zero_share else _draw(r))
    pf = pfaffian(a)
    assert pf != 0
    assert pf == _pf_expand(a) == _pf_elimination(a) == pf_matchings(a)


def test_pfaffian_elimination_on_int_entries_stays_exact():
    rng = random.Random(0)
    a = SkewMatrix(16, {(i, j): rng.randint(-3, 3) for i in range(16) for j in range(i + 1, 16)})
    assert _pf_expand(a) == 183768
    pf = pfaffian(a)  # dim 16 takes the elimination route
    assert isinstance(pf, (Fraction, int)) and pf == 183768


def test_minor_selection():
    m = RingMatrix(2, 3, [Fraction(k) for k in range(6)])
    assert m.minor((0, 1), (0, 1, 2)).data == m.data
    single = m.minor((0,), (0,))
    assert single.rows == single.cols == 1 and single.at(0, 0) == 0
    with pytest.raises(IndexBoundsError):
        m.minor((0, 1), (0, 3))
    with pytest.raises(IndexBoundsError):
        m.minor((1, 0), (0,))


def test_sub_pfaffian_contract():
    rng = random.Random(4)
    a = random_skew(rng, 6, _draw)
    assert sub_pfaffian(a, tuple(range(6))) == pfaffian(a)
    assert sub_pfaffian(a, (1, 4)) == a.entry(1, 4)
    with pytest.raises(OddIndexSetError):
        sub_pfaffian(a, (0, 1, 2))


def test_minor_summation_formula():
    # sum over 4-subsets of subpfaffian times maximal minor = congruence Pfaffian
    rng = random.Random(5)
    for _ in range(50):
        x = random_matrix(rng, 4, 6, _draw)
        a = random_skew(rng, 6, _draw)
        total = Fraction(0)
        for idx in combinations(range(6), 4):
            total += sub_pfaffian(a, idx) * det(x.minor((0, 1, 2, 3), idx))
        assert total == congruence_pfaffian(x, a)


def test_congruence_identity_and_degenerate():
    rng = random.Random(6)
    a = random_skew(rng, 5, _draw)
    assert congruence_pfaffian(_identity(5), a) == pfaffian(a)
    x = random_matrix(rng, 4, 7, _draw)
    zero_row = RingMatrix(4, 7, [Fraction(0)] * 7 + x.data[7:])
    b = random_skew(rng, 7, _draw)
    assert congruence_pfaffian(zero_row, b) == 0
    with pytest.raises(DimensionMismatchError):
        congruence_pfaffian(_identity(3), b)


def test_congruence_product_is_skew():
    rng = random.Random(7)
    x = random_matrix(rng, 4, 7, _draw)
    a = random_skew(rng, 7, _draw)
    s = congruence_product(x, a)
    direct = matmul(matmul(x, a.to_matrix()), x.transpose())
    for i in range(4):
        for j in range(4):
            assert s.entry(i, j) == direct.at(i, j)


def _block_census(n_letters, block):
    """(flattened blocks, sign) from the enumerator behind hyperpfaffian, nothing pruned."""
    ones = AlternatingTensor.from_function(block, n_letters, lambda idx: Fraction(1))
    return [
        (sum(blocks, ()), sign)
        for blocks, sign in ordered_block_partitions(n_letters, block, ones)
    ]


def test_block_permutation_census():
    census = _block_census(4, 2)
    # 0-based version of the six explicitly listed elements
    assert {perm for perm, _ in census} == {
        (0, 1, 2, 3),
        (0, 2, 1, 3),
        (0, 3, 1, 2),
        (2, 3, 0, 1),
        (1, 3, 0, 2),
        (1, 2, 0, 3),
    }
    assert all(sign == inversion_sign(perm) for perm, sign in census)
    assert len(_block_census(6, 2)) == factorial(6) // 2**3


# (order, r) with order * r <= 12 whose ordered enumeration, dim! / (order!)^r
# sequences, stays under a few thousand
_HYPER_SHAPES = [
    (n, r)
    for n in range(1, 7)
    for r in range(1, 4)
    if n * r <= 12 and factorial(n * r) // factorial(n) ** r <= 2000
]


@pytest.mark.parametrize("order, r", _HYPER_SHAPES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_hyperpfaffian_matches_ordered_oracle(order, r, data):
    dim = order * r
    values = data.draw(
        st.lists(_RATIONAL_ENTRIES["mixed"], min_size=comb(dim, order), max_size=comb(dim, order))
    )
    t = AlternatingTensor(order, dim, dict(zip(combinations(range(dim), order), values)))
    ordered = sum(
        sign * prod(tensor_value(t, b) for b in blocks)
        for blocks, sign in ordered_block_partitions(dim, order, t)
    )
    hpf = hyperpfaffian(t)
    assert hpf == Fraction(ordered) / factorial(r)
    if order % 2 and r > 1:
        assert hpf == 0


def test_hyperpfaffian_single_block():
    table = VariableTable(["u"])
    (u,) = table.gens()
    t = AlternatingTensor(4, 4, {(0, 1, 2, 3): u})
    assert hyperpfaffian(t) == u


def test_hyperpfaffian_order_two_is_pfaffian():
    rng = random.Random(8)
    for dim in (4, 6):
        a = random_skew(rng, dim, _draw)
        t = AlternatingTensor(2, dim, dict(a.upper))
        assert hyperpfaffian(t) == pfaffian(a)
    assert hyperpfaffian(AlternatingTensor(2, 0, {})) == pfaffian(SkewMatrix(0)) == 1


def test_hyperpfaffian_errors():
    with pytest.raises(DimNotDivisibleError):
        hyperpfaffian(AlternatingTensor(3, 4, {}))
    with pytest.raises(EnumerationCapError):
        hyperpfaffian(AlternatingTensor(2, 14, {}))


def test_blocked_tensor_contract():
    rng = random.Random(9)
    a = random_skew(rng, 6, _draw)
    t = blocked_tensor(a, 2)
    for i, j in combinations(range(6), 2):
        assert tensor_value(t, (i, j)) == a.entry(i, j)
    whole = blocked_tensor(a, 6)
    assert tensor_value(whole, tuple(range(6))) == pfaffian(a)
    with pytest.raises(OddOrderError):
        blocked_tensor(a, 3)
    with pytest.raises(DimNotDivisibleError):
        blocked_tensor(a, 4)


def test_composition_factor():
    rng = random.Random(10)
    for n, r in ((2, 1), (2, 2), (2, 3), (4, 1), (4, 2)):
        m = n // 2
        a = random_skew(rng, n * r, _draw)
        factor = Fraction(factorial(m * r), factorial(m) ** r * factorial(r))
        assert hyperpfaffian(blocked_tensor(a, n)) == factor * pfaffian(a)


def test_det_with_denominators_matches_division():
    rng = random.Random(11)
    for _ in range(25):
        n = 3
        num = random_matrix(rng, n, n, _draw)
        den = random_matrix(rng, n, n, lambda r: Fraction(r.randint(1, 9)))
        cleared = det_with_denominators(n, num.at, den.at)
        ratio = RingMatrix(
            n, n, [num.at(i, j) / den.at(i, j) for i in range(n) for j in range(n)]
        )
        prod = Fraction(1)
        for v in den.data:
            prod *= v
        assert cleared == det(ratio) * prod


@pytest.mark.parametrize("n", [1, 2, 3])
def test_det_with_denominators_is_the_cleared_block_pfaffian(n):
    # Pf [[0, N], [-N^T, 0]] = (-1)^(n(n-1)/2) det N, with den(i, j) on the cross
    # pairs and 0 / 1 on the pairs inside a block; both routes clear on polynomials
    table = VariableTable()
    table.add_vector("x", n)
    table.add_vector("y", n)
    x, y = table.gens()[:n], table.gens()[n:]
    num = lambda i, j: x[i] * y[j] - (i + 2 * j)
    den = lambda i, j: x[i] + y[j] + i * j + 1
    cross = lambda i, j: i < n <= j
    block_num = lambda i, j: num(i, j - n) if cross(i, j) else 0
    block_den = lambda i, j: den(i, j - n) if cross(i, j) else 1
    cleared = det_with_denominators(n, num, den)
    assert isinstance(cleared, Polynomial) and cleared
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    assert cleared == sign * pfaffian_with_denominators(2 * n, block_num, block_den)
    # det_with_denominators is that Pfaffian, so the reference is the permutation
    # sum of the row-cleared matrix: num(i, j) times den(i, k) for every k != j
    row_cleared = RingMatrix(n, n, [
        num(i, j) * prod(den(i, k) for k in range(n) if k != j) for i in range(n) for j in range(n)
    ])
    assert cleared == det_leibniz(row_cleared)


def test_det_of_quotient_entries_matches_leibniz():
    # rel_v1's divided differences (a_i - a_m) / (x_i - x_m): Bareiss cannot
    # divide Quotients, so det takes the block Pfaffian expansion
    table = VariableTable()
    table.add_vector("x", 4)
    table.add_vector("a", 4)
    x, a = table.gens()[:4], table.gens()[4:]
    diff = [(a[i] - a[3]) / (x[i] - x[3]) for i in range(3)]
    m = RingMatrix(3, 3, [v for i in range(3) for v in (diff[i], x[i] * diff[i], x[i] ** 2)])
    got = det(m)
    assert isinstance(got, Quotient) and got
    assert got == det_leibniz(m)


def test_pfaffian_with_denominators_matches_division():
    rng = random.Random(12)
    for dim in (2, 4, 6):
        for _ in range(10):
            nvals = {(i, j): _draw(rng) for i, j in combinations(range(dim), 2)}
            dvals = {(i, j): Fraction(rng.randint(1, 9)) for i, j in combinations(range(dim), 2)}
            cleared = pfaffian_with_denominators(
                dim, lambda i, j: nvals[(i, j)], lambda i, j: dvals[(i, j)]
            )
            ratio = SkewMatrix(
                dim, {k: nvals[k] / dvals[k] for k in nvals}
            )
            prod = Fraction(1)
            for v in dvals.values():
                prod *= v
            assert cleared == pfaffian(ratio) * prod
    assert pfaffian_with_denominators(3, lambda i, j: Fraction(1), lambda i, j: Fraction(1)) == 0


def test_memoized_recursions_leave_no_reference_cycles():
    table = VariableTable()
    table.add_vector("x", 4)
    x = table.gens()
    skew = SkewMatrix.from_upper_function(4, lambda i, j: (x[j] - x[i]) ** 3)
    tensor = blocked_tensor(skew, 2)
    routines = [
        lambda: det(RingMatrix(4, 4, [x[i] ** j for i in range(4) for j in range(4)])),
        lambda: pfaffian(skew),
        lambda: pfaffian_with_denominators(4, lambda i, j: x[j] - x[i], lambda i, j: x[i] + x[j]),
        lambda: hyperpfaffian(tensor),
    ]
    gc.collect()
    gc.disable()
    try:
        for routine in routines:
            assert routine()
            # nothing left for the cycle collector: each memo dies with its call
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_desnanot_jacobi_det():
    rng = random.Random(13)
    for _ in range(20):
        a = random_matrix(rng, 5, 5, _draw)
        lhs = det(a.delete([0], [0])) * det(a.delete([1], [1])) - det(
            a.delete([0], [1])
        ) * det(a.delete([1], [0]))
        assert lhs == det(a) * det(a.delete([0, 1], [0, 1]))


def test_desnanot_jacobi_pfaffian():
    rng = random.Random(14)
    full = tuple(range(6))
    for _ in range(20):
        a = random_skew(rng, 6, _draw)

        def pf_without(*removed):
            return sub_pfaffian(a, tuple(i for i in full if i not in removed))

        lhs = (
            pf_without(0, 1) * pf_without(2, 3)
            - pf_without(0, 2) * pf_without(1, 3)
            + pf_without(0, 3) * pf_without(1, 2)
        )
        assert lhs == pfaffian(a) * pf_without(0, 1, 2, 3)


def test_block_embedding_pf_det():
    rng = random.Random(15)
    for n in (1, 2, 3):
        a = random_matrix(rng, n, n, _draw)
        block = SkewMatrix.from_upper_function(
            2 * n, lambda i, j: a.at(i, j - n) if i < n <= j else Fraction(0)
        )
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        assert pfaffian(block) == sign * det(a)
    # off-square block vanishes
    g = random_matrix(rng, 2, 4, _draw)
    lop = SkewMatrix.from_upper_function(
        6, lambda i, j: g.at(i, j - 2) if i < 2 <= j else Fraction(0)
    )
    assert pfaffian(lop) == 0


def test_cauchy_binet():
    rng = random.Random(16)
    for _ in range(50):
        x = random_matrix(rng, 3, 5, _draw)
        y = random_matrix(rng, 3, 5, _draw)
        a = random_matrix(rng, 5, 5, _draw)
        lhs = det(x.mul(a).mul(y.transpose()))
        rhs = Fraction(0)
        rows = (0, 1, 2)
        for i_set in combinations(range(5), 3):
            for j_set in combinations(range(5), 3):
                rhs += det(a.minor(i_set, j_set)) * det(x.minor(rows, i_set)) * det(
                    y.minor(rows, j_set)
                )
        assert lhs == rhs


def test_plucker_relation():
    rng = random.Random(17)
    for m in range(5):
        mat = random_matrix(rng, m + 2, m + 4, _draw)
        rows = tuple(range(m + 2))
        tail = tuple(range(4, m + 4))

        def dd(i, j):
            return det(mat.minor(rows, tuple(sorted((i - 1, j - 1))) + tail))

        assert dd(1, 2) * dd(3, 4) - dd(1, 3) * dd(2, 4) + dd(1, 4) * dd(2, 3) == 0
