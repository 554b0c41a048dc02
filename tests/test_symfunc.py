import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detpf import linalg
from detpf.linalg import RingMatrix, det
from detpf.poly import EXPONENT_CAP, ExponentCapError, VariableTable, random_rational
from detpf.symfunc import (
    NotInBoxError,
    Partition,
    PartitionError,
    SkewShape,
    TooLongError,
    h_complete,
    index_set,
    partitions_in_box,
    schur,
    schur_bialternant,
    schur_jacobi_trudi,
)
from detpf.vandermonde import build_V

from oracles import (
    conjugate,
    evaluate,
    frobenius,
    hook_content,
    is_horizontal_strip,
    is_vertical_strip,
    lr_from_product,
    schur_by_tableaux,
    skew_size,
)


def _gens(prefix, n):
    table = VariableTable()
    table.add_vector(prefix, n)
    return table.gens()


def test_partition_validation_and_text():
    assert Partition([3, 2, 0, 0]).parts == (3, 2)
    assert Partition().parts == ()
    with pytest.raises(PartitionError):
        Partition([1, 2])
    with pytest.raises(PartitionError):
        Partition([-1])
    assert Partition.from_text("[3,2,1]").parts == (3, 2, 1)
    assert Partition.from_text("[]") == Partition()
    assert Partition([3, 2, 1]).text() == "[3,2,1]"


def test_conjugate():
    assert conjugate(Partition([3, 1])) == Partition([2, 1, 1])
    assert conjugate(Partition()) == Partition()
    lam = Partition([4, 4, 2, 1])
    assert conjugate(conjugate(lam)) == lam


def test_frobenius_coordinates():
    arms, legs = frobenius(Partition([2, 2]))
    assert arms == (1, 0) and legs == (1, 0)
    arms, legs = frobenius(Partition([1, 1]))
    assert arms == (0,) and legs == (1,)
    assert Partition.from_frobenius((1, 0), (1, 0)) == Partition([2, 2])
    assert Partition.from_frobenius((), ()) == Partition()
    lam = Partition([5, 3, 3, 1])
    assert Partition.from_frobenius(*frobenius(lam)) == lam


def test_frobenius_set_identity():
    # {lam_i + r - i} and {r - 1 + j - lam'_j} partition {0..2r-2}; needs
    # lam_1 <= r - 1 so that both sets land inside the range
    rng = random.Random(20)
    r = 6
    box = partitions_in_box(6, 5)
    for lam in rng.sample(box, 50):
        conj = conjugate(lam)
        first = {lam.part(i - 1) + r - i for i in range(1, r + 1)}
        second = {r - 1 + j - conj.part(j - 1) for j in range(1, r)}
        assert first | second == set(range(2 * r - 1))
        assert not first & second


def test_index_set():
    assert index_set(Partition(), 3) == (0, 1, 2)
    assert index_set(Partition([2, 1]), 2) == (1, 3)
    with pytest.raises(TooLongError):
        index_set(Partition([1, 1, 1]), 2)
    seen = {}
    for lam in partitions_in_box(4, 4):
        key = index_set(lam, 4)
        assert key not in seen
        seen[key] = lam


def test_complement():
    assert Partition().complement(2, 3) == Partition([3, 3])
    assert Partition([1]).complement(1, 2) == Partition([1])
    for lam in partitions_in_box(3, 3):
        assert lam.complement(3, 3).complement(3, 3) == lam
    with pytest.raises(NotInBoxError):
        Partition([4]).complement(2, 3)


def test_h_complete_examples():
    xs = _gens("x", 2)
    assert h_complete(0, xs) == 1
    assert h_complete(-2, xs) == 0
    x1, x2 = xs
    assert h_complete(2, xs) == x1**2 + x1 * x2 + x2**2


def test_h_splitting_identity():
    # h_r(x, y, z) = sum_{a,b>=0} x^a y^b h_{r-a-b}(z) for r <= 4
    table = VariableTable(["x", "y"])
    zs_ids = table.add_vector("z", 2)
    gens = table.gens()
    x, y = gens[0], gens[1]
    zs = [gens[i] for i in zs_ids]
    for r in range(5):
        lhs = h_complete(r, [x, y] + zs)
        rhs = Fraction(0)
        for a in range(r + 1):
            for b in range(r - a + 1):
                rhs = rhs + x**a * y**b * h_complete(r - a - b, zs)
        assert lhs == rhs


def test_schur_trivial():
    xs = _gens("x", 2)
    assert schur(Partition([1]), xs) == xs[0] + xs[1]
    assert schur(Partition(), xs) == 1
    # too few variables: zero
    assert schur(Partition([1, 1, 1]), xs) == 0


def test_schur_routes_agree():
    for nvars in (3, 4):
        xs = _gens("x", nvars)
        for lam in partitions_in_box(3, 4):
            if lam.length() > nvars:
                continue
            assert schur_jacobi_trudi(lam, xs) == schur_bialternant(lam, xs)


def _unstripped_jacobi_trudi(shape, xs):
    m = shape.outer.length()
    return det(
        RingMatrix(
            m,
            m,
            [
                h_complete(shape.outer.part(i) - shape.inner.part(j) - i + j, xs)
                for i in range(m)
                for j in range(m)
            ],
        )
    )


@pytest.mark.parametrize("nvars", range(5))
def test_jacobi_trudi_strips_full_columns(nvars):
    xs = _gens("x", nvars)
    for lam in partitions_in_box(nvars + 1, 4):
        got = schur_jacobi_trudi(lam, xs)
        if lam.length() <= nvars:
            assert got == schur_bialternant(lam, xs), lam
        else:
            assert got == 0 and _unstripped_jacobi_trudi(SkewShape(lam), xs) == 0, lam
        assert schur_jacobi_trudi(SkewShape(lam, Partition()), xs) == got, lam


@pytest.mark.parametrize("nvars", range(1, 4))
def test_skew_jacobi_trudi_is_not_stripped(nvars):
    xs = _gens("x", nvars)
    for lam in partitions_in_box(nvars + 1, 3):
        for mu in partitions_in_box(lam.length(), lam.part(0)):
            if mu.parts and lam.contains(mu):
                shape = SkewShape(lam, mu)
                assert schur_jacobi_trudi(shape, xs) == _unstripped_jacobi_trudi(shape, xs)


def test_jacobi_trudi_strip_keeps_the_exponent_cap():
    xs = _gens("x", 1)
    for parts in ([EXPONENT_CAP + 1], [EXPONENT_CAP, 1]):
        with pytest.raises(ExponentCapError, match="exponent cap"):
            schur_jacobi_trudi(Partition(parts), xs)
    assert schur_jacobi_trudi(Partition([EXPONENT_CAP]), xs) == xs[0] ** EXPONENT_CAP


@st.composite
def _shapes(draw, max_size=8):
    """A SkewShape lam/mu with |lam| <= max_size; mu is empty about half the time."""
    rows, left = [], max_size
    while left and draw(st.booleans()):
        rows.append(draw(st.integers(1, min(left, rows[-1] if rows else left))))
        left -= rows[-1]
    lam = Partition(rows)
    inner = []
    if draw(st.booleans()):
        for part in lam.parts:
            inner.append(draw(st.integers(0, min(part, inner[-1] if inner else part))))
    return SkewShape(lam, Partition(inner))


@given(_shapes(), st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_branching_matches_the_determinant_and_the_tableaux(shape, nvars):
    xs = _gens("x", nvars)
    got = schur_jacobi_trudi(shape, xs)
    assert got == _unstripped_jacobi_trudi(shape, xs) == schur_by_tableaux(shape, xs)
    if not shape.inner.parts:
        lam = shape.outer
        assert got == schur_jacobi_trudi(lam, xs)
        if lam.length() <= nvars:
            assert got == schur_bialternant(lam, xs)
        assert sum(getattr(got, "terms", {0: got}).values()) == hook_content(lam, nvars)


@given(_shapes(), st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_branching_agrees_with_the_determinant_at_a_rational_point(shape, nvars, rng):
    xs = _gens("x", nvars)
    point = {var: random_rational(rng, 30) for var in range(nvars)}
    got = schur_jacobi_trudi(shape, xs)
    value = evaluate(got, point) if hasattr(got, "terms") else got
    assert value == schur_jacobi_trudi(shape, [point[var] for var in range(nvars)])


def test_branching_memo_leaves_no_reference_cycles():
    xs = _gens("x", 4)
    shape = SkewShape(Partition([4, 3, 2, 1]), Partition([1]))
    want = schur_by_tableaux(shape, xs)
    gc.collect()
    gc.disable()
    try:
        assert schur_jacobi_trudi(shape, xs) == want
        assert gc.collect() == 0  # the memo is an argument, not a closure cell
    finally:
        gc.enable()


def test_tall_skew_schur_of_other_values_takes_the_polynomial_bareiss_route(monkeypatch):
    # 1^16 / 1^15 is one box, but its Jacobi-Trudi matrix has 16 rows: past the
    # expansion route's size limit, where only Bareiss elimination finishes fast.
    # 2*x2 is not a generator, so the determinant route runs.
    x1, x2 = _gens("x", 2)
    calls = []

    def refuse(m):
        raise AssertionError("Pfaffian expansion on a 16-row determinant")

    def spy(m, bareiss=linalg._det_bareiss):
        calls.append(m.rows)
        return bareiss(m)

    monkeypatch.setattr(linalg, "_det_expand", refuse)
    monkeypatch.setattr(linalg, "_det_bareiss", spy)
    shape = SkewShape(Partition([1] * 16), Partition([1] * 15))
    assert schur_jacobi_trudi(shape, [x1, 2 * x2]) == x1 + 2 * x2
    assert calls == [16]


def test_schur_staircase():
    xs = _gens("x", 3)
    lam = Partition.staircase(2)
    assert lam == Partition([2, 1])
    assert schur_jacobi_trudi(lam, xs) == schur_bialternant(lam, xs)


def test_vandermonde_power_substitution():
    # det V^{p,q}(x; x^k) = s_box(q, k-p) * Delta(x) for k >= p, else 0
    for p, q, k in ((1, 2, 3), (1, 1, 2), (2, 2, 2)):
        n = p + q
        xs = _gens("x", n)
        mat = build_V(p, q, xs, [x**k for x in xs])
        delta = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                delta = delta * (xs[j] - xs[i])
        assert det(mat) == schur(Partition.box(q, k - p), xs) * delta
    for p, q, k in ((2, 1, 1), (3, 1, 0)):
        n = p + q
        xs = _gens("x", n)
        mat = build_V(p, q, xs, [x**k for x in xs])
        assert det(mat) == 0


def test_skew_schur_via_branching():
    # s_{lam/mu}(X) = sum_nu c^lam_{mu nu} s_nu(X)
    xs = _gens("x", 3)
    lam, mu = Partition([3, 2, 1]), Partition([1, 1])
    lhs = schur_jacobi_trudi(SkewShape(lam, mu), xs)
    rhs = Fraction(0)
    size = lam.size() - mu.size()
    for nu in partitions_in_box(size, size):
        if nu.size() != size:
            continue
        c = lr_from_product(lam, mu, nu)
        if c:
            rhs = rhs + c * schur_jacobi_trudi(nu, xs)
    assert lhs == rhs


def test_two_alphabet_branching():
    # s_lam(X, Y) = sum c^lam_{mu nu} s_mu(X) s_nu(Y), |lam| <= 5 in 2+2 variables
    from detpf.lr import lr_bruteforce

    table = VariableTable()
    xid = table.add_vector("x", 2)
    yid = table.add_vector("y", 2)
    gens = table.gens()
    xs = [gens[i] for i in xid]
    ys = [gens[i] for i in yid]
    for size in range(6):
        for lam in partitions_in_box(size, size):
            if lam.size() != size:
                continue
            lhs = schur_jacobi_trudi(lam, xs + ys)
            rhs = Fraction(0)
            for amu in range(size + 1):
                for mu in partitions_in_box(amu, amu):
                    if mu.size() != amu:
                        continue
                    for nu in partitions_in_box(size - amu, size - amu):
                        if nu.size() != size - amu:
                            continue
                        c = lr_bruteforce(lam, mu, nu)
                        if c:
                            rhs = rhs + c * schur_jacobi_trudi(mu, xs) * schur_jacobi_trudi(nu, ys)
            assert lhs == rhs, lam


def test_strips():
    s = SkewShape(Partition([2]), Partition([1]))
    assert is_horizontal_strip(s) and is_vertical_strip(s) and skew_size(s) == 1
    s2 = SkewShape(Partition([2, 2]), Partition([1]))
    assert not is_horizontal_strip(s2) and not is_vertical_strip(s2)
    s3 = SkewShape(Partition([1, 1, 1]))
    assert is_vertical_strip(s3) and not is_horizontal_strip(s3)
    with pytest.raises(PartitionError):
        SkewShape(Partition([1]), Partition([2]))


def test_partitions_in_box_counts():
    from math import comb

    assert len(partitions_in_box(2, 2)) == comb(4, 2)
    assert len(partitions_in_box(3, 4)) == comb(7, 3)
    assert partitions_in_box(0, 5) == [Partition()]


def test_partitions_in_box_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        assert len(partitions_in_box(3, 3)) == 20
        assert gc.collect() == 0  # the recursion holds no self-reference
    finally:
        gc.enable()


def test_power_matrix_minor_is_schur_of_tableau_oracle():
    # det of the I(lam)-columns of (x_i^k), divided by the Vandermonde,
    # equals the semistandard-tableau monomial sum
    from oracles import schur_by_tableaux

    xs = _gens("x", 3)
    delta = (xs[1] - xs[0]) * (xs[2] - xs[0]) * (xs[2] - xs[1])
    for lam in partitions_in_box(3, 3):
        cols = index_set(lam, 3)
        top = max(cols)
        x_power = RingMatrix(
            3, top + 1, [x**k for x in xs for k in range(top + 1)]
        )
        minor_det = det(x_power.minor((0, 1, 2), cols))
        assert minor_det.exact_div(delta) == schur_by_tableaux(lam, xs)
