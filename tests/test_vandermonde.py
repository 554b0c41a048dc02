from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detpf.linalg import det
from detpf.poly import VariableTable
from detpf.symfunc import Partition, TooLongError, index_set, partitions_in_box
from detpf.vandermonde import (
    LengthMismatchError,
    build_DBC,
    build_U,
    build_V,
    build_V_shifted,
    build_W,
    fgh_sum,
    int_row_U,
    int_row_V,
    int_row_W,
    partition_family,
)

from oracles import conjugate, fgh_by_shifted_dets, row_U, row_V, row_V_shifted, row_W


def _gens(spec):
    table = VariableTable()
    slots = {}
    for prefix, n in spec:
        slots[prefix] = table.add_vector(prefix, n)
    gens = table.gens()
    return tuple([gens[i] for i in slots[prefix]] for prefix, _ in spec)


def test_build_v_classical_vandermonde():
    (xs,) = _gens([("x", 3)])
    m = build_V(3, 0, xs, [Fraction(0)] * 3)
    assert det(m) == (xs[1] - xs[0]) * (xs[2] - xs[0]) * (xs[2] - xs[1])


def test_build_v_1_1():
    xs, as_ = _gens([("x", 2), ("a", 2)])
    assert det(build_V(1, 1, xs, as_)) == as_[1] - as_[0]


def test_build_v_3_2_display():
    xs, as_ = _gens([("x", 5), ("a", 5)])
    m = build_V(3, 2, xs, as_)
    for i in range(5):
        x, a = xs[i], as_[i]
        assert m.at(i, 0) == 1
        assert m.at(i, 1) == x
        assert m.at(i, 2) == x * x
        assert m.at(i, 3) == a
        assert m.at(i, 4) == a * x
    with pytest.raises(LengthMismatchError):
        build_V(3, 2, xs[:4], as_)


def test_build_w_displays():
    xs, as_ = _gens([("x", 5), ("a", 5)])
    one = build_W(1, xs[:1], as_[:1])
    assert one.at(0, 0) == 1 + as_[0]
    m = build_W(5, xs, as_)
    for i in range(5):
        x, a = xs[i], as_[i]
        for j in range(5):
            assert m.at(i, j) == x**j + a * x ** (4 - j)


def test_build_w_zero_coefficients_is_vandermonde():
    (xs,) = _gens([("x", 4)])
    zeros = [Fraction(0)] * 4
    assert build_W(4, xs, zeros).data == build_V(4, 0, xs, zeros).data


def test_build_u_row_convention():
    xs, ys, as_, bs = _gens([("x", 3), ("y", 3), ("a", 3), ("b", 3)])
    m = build_U(2, 1, xs, ys, as_, bs)
    for i in range(3):
        assert m.at(i, 0) == as_[i] * xs[i]
        assert m.at(i, 1) == as_[i] * ys[i]
        assert m.at(i, 2) == bs[i]
    single = build_U(1, 0, xs[:1], ys[:1], as_[:1], bs[:1])
    assert single.at(0, 0) == as_[0]


def test_build_u_specializes_to_v():
    xs, as_ = _gens([("x", 3), ("a", 3)])
    ones = [Fraction(1)] * 3
    assert det(build_U(2, 1, ones, xs, ones, as_)) == det(build_V(2, 1, xs, as_))


def test_build_u_from_f_sum():
    # det U^{p,q}(x, 1+x^2; 1, a) = (-1)^(C(p,2)+C(q,2)) F^{p,q}(x; a)
    for p, q in ((1, 1), (2, 2), (2, 1)):
        n = p + q
        xs, as_ = _gens([("x", n), ("a", n)])
        ys = [1 + x * x for x in xs]
        ones = [Fraction(1)] * n
        sign = -1 if (p * (p - 1) // 2 + q * (q - 1) // 2) % 2 else 1
        assert det(build_U(p, q, xs, ys, ones, as_)) == sign * fgh_sum("F", p, q, xs, as_)


def test_build_v_shifted():
    xs, as_ = _gens([("x", 4), ("a", 4)])
    plain = build_V(2, 2, xs, as_)
    shifted = build_V_shifted(2, 2, Partition(), Partition(), xs, as_)
    assert shifted.data == plain.data
    m = build_V_shifted(2, 2, Partition([1, 1]), Partition(), xs, as_)
    for i in range(4):
        assert m.at(i, 0) == xs[i]
        assert m.at(i, 1) == xs[i] ** 2
    single = build_V_shifted(1, 0, Partition([3]), Partition(), xs[:1], as_[:1])
    assert single.at(0, 0) == xs[0] ** 3
    with pytest.raises(TooLongError):
        build_V_shifted(1, 1, Partition([1, 1]), Partition(), xs[:2], as_[:2])


def test_partition_families():
    assert [lam.parts for lam in partition_family("P", 2)] == [(), (1, 1)]
    for n in range(5):
        assert Partition() in partition_family("R", n)
    # family members live in their natural boxes
    for lam in partition_family("P", 4):
        assert lam.length() <= 4 and lam.part(0) <= 3
    for lam in partition_family("Q", 4):
        assert lam.length() <= 4 and lam.part(0) <= 5


def test_p4_against_box_scan_oracle():
    # independent filter: conjugate hook condition lam'_i = lam_i + 1 on the diagonal
    members = {lam.parts for lam in partition_family("P", 4)}
    scanned = set()
    for lam in partitions_in_box(4, 4):
        if lam.length() > 4 or (lam.parts and lam.parts[0] > 3):
            continue
        conj = conjugate(lam)
        d = lam.diagonal()
        if d == conj.diagonal() and all(
            conj.part(i) == lam.part(i) + 1 for i in range(d)
        ):
            scanned.add(lam.parts)
    assert members == scanned


def test_f_sum_small():
    xs, as_ = _gens([("x", 2), ("a", 2)])
    assert fgh_sum("F", 1, 1, xs, as_) == as_[1] - as_[0]


def test_f22_matches_display():
    xs, as_ = _gens([("x", 4), ("a", 4)])
    shapes = [
        (Partition(), Partition(), 1),
        (Partition([1, 1]), Partition(), -1),
        (Partition(), Partition([1, 1]), -1),
        (Partition([1, 1]), Partition([1, 1]), 1),
    ]
    expected = Fraction(0)
    for lam, mu, sign in shapes:
        expected = expected + sign * det(build_V_shifted(2, 2, lam, mu, xs, as_))
    assert fgh_sum("F", 2, 2, xs, as_) == expected


def test_gh_are_multiples_of_f():
    xs, as_ = _gens([("x", 3), ("a", 3)])
    f = fgh_sum("F", 2, 1, xs, as_)
    prod_sq = Fraction(1)
    prod_lin = Fraction(1)
    for x in xs:
        prod_sq = prod_sq * (1 - x * x)
        prod_lin = prod_lin * (1 - x)
    assert fgh_sum("G", 2, 1, xs, as_) == prod_sq * f
    assert fgh_sum("H", 2, 1, xs, as_) == prod_lin * f


# small ints give zero and negative points and, repeated, zero determinants
_POINTS = st.integers(-5, 5) | st.builds(
    Fraction,
    st.integers(-(2**70), 2**70),
    st.integers(1, 9) | st.integers(2**64 + 1, 2**70),
)


def _check_rational_fgh(tag, p, q, xs, as_):
    got = fgh_sum(tag, p, q, xs, as_)
    assert got == fgh_by_shifted_dets(tag, p, q, xs, as_)
    assert type(got) is Fraction
    return got


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rational_fgh_sum_matches_shifted_determinant_oracle(data):
    tag = data.draw(st.sampled_from("FGH"))
    p = data.draw(st.integers(0, 3))
    q = data.draw(st.integers(0, 4 - p))
    xs = data.draw(st.lists(_POINTS, min_size=p + q, max_size=p + q))
    as_ = data.draw(st.lists(_POINTS, min_size=p + q, max_size=p + q))
    _check_rational_fgh(tag, p, q, xs, as_)


def test_rational_fgh_sum_at_every_small_size():
    big = 2**64 + 13
    points = [Fraction(-7, big), Fraction(5, 3), -2, Fraction(2**66 + 1, big + 2), 0]
    weights = [Fraction(3, big + 4), 1, Fraction(-4, 9), Fraction(-1, big), Fraction(5, 2)]
    for tag in "FGH":
        for p in range(4):
            for q in range(5 - p):
                _check_rational_fgh(tag, p, q, points[: p + q], weights[: p + q])
    assert _check_rational_fgh("F", 0, 0, [], []) == 1
    # a repeated (x, a) pair repeats a row of every shifted matrix
    repeated = [Fraction(1, 3), 2, Fraction(1, 3)]
    assert _check_rational_fgh("G", 2, 1, repeated, [weights[0], 1, weights[0]]) == 0


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_build_v_shifted_rows_are_the_oracle_rows(data):
    p = data.draw(st.integers(0, 3))
    q = data.draw(st.integers(0, 3 - p))
    lam = data.draw(st.sampled_from(partitions_in_box(p, 2)))
    mu = data.draw(st.sampled_from(partitions_in_box(q, 2)))
    xs = data.draw(st.lists(_POINTS, min_size=p + q, max_size=p + q))
    as_ = data.draw(st.lists(_POINTS, min_size=p + q, max_size=p + q))
    exps_x = [lam.part(p - 1 - k) + k for k in range(p)]
    exps_a = [mu.part(q - 1 - k) + k for k in range(q)]
    want = [v for x, a in zip(xs, as_) for v in row_V_shifted(exps_x, exps_a, x, a)]
    assert build_V_shifted(p, q, lam, mu, xs, as_).data == want


# zero, negative and large coordinates, as ints and as Fractions
_COORDS = st.integers(-4, 4) | st.builds(
    Fraction, st.integers(-(2**40), 2**40), st.integers(1, 7) | st.integers(2**33, 2**40)
)


@given(
    p=st.integers(0, 4),
    q=st.integers(0, 4),
    point=st.lists(_COORDS, min_size=4, max_size=4),
    zero=st.sampled_from(["", "a", "b", "x", "y"]),
)
@settings(max_examples=150, deadline=None)
def test_int_rows_over_their_scales_are_the_fraction_rows(p, q, point, zero):
    coords = dict(zip("xyab", point), **({zero: 0} if zero else {}))
    x, y, a, b = (coords[c] for c in "xyab")
    cases = [
        (int_row_V(p, q, x, a), row_V(p, q, x, a)),
        (int_row_W(p + q, x, a), row_W(p + q, x, a)),
        (int_row_U(p, q, x, y, a, b), row_U(p, q, x, y, a, b)),
    ]
    for (ints, scale), want in cases:
        assert all(type(v) is int for v in ints) and type(scale) is int and scale > 0
        assert [Fraction(v, scale) for v in ints] == want


def test_dbc_shapes_and_d2_minor():
    d1 = build_DBC("D", 1)
    assert (d1.rows, d1.cols) == (1, 1) and d1.at(0, 0) == 1
    d2 = build_DBC("D", 2)
    assert (d2.rows, d2.cols) == (2, 3)
    b2 = build_DBC("B", 2)
    assert (b2.rows, b2.cols) == (2, 4)
    c2 = build_DBC("C", 2)
    assert (c2.rows, c2.cols) == (2, 5)
    # det of the I(empty)-minor of D_2 is (-1)^{2*1/2+0} = -1
    assert det(d2.minor((0, 1), index_set(Partition(), 2))) == -1


def test_d3_minors_vanish_off_family():
    members = {lam.parts for lam in partition_family("P", 3)}
    d3 = build_DBC("D", 3)
    rows = (0, 1, 2)
    for lam in partitions_in_box(3, 2):
        value = det(d3.minor(rows, index_set(lam, 3)))
        if lam.parts in members:
            assert value != 0
        else:
            assert value == 0


def test_bc_minor_signs():
    for r in (2, 3):
        rows = tuple(range(r))
        b = build_DBC("B", r)
        r_members = {lam.parts for lam in partition_family("R", r)}
        for lam in partitions_in_box(r, r):
            value = det(b.minor(rows, index_set(lam, r)))
            if lam.parts in r_members:
                exp = (r + 1) * r // 2 + (lam.size() + lam.diagonal()) // 2
                assert value == (-1 if exp % 2 else 1)
            else:
                assert value == 0
        c = build_DBC("C", r)
        q_members = {lam.parts for lam in partition_family("Q", r)}
        for lam in partitions_in_box(r, r + 1):
            value = det(c.minor(rows, index_set(lam, r)))
            if lam.parts in q_members:
                exp = (r + 1) * r // 2 + lam.size() // 2
                assert value == (-1 if exp % 2 else 1)
            else:
                assert value == 0
