import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from detpf.lr import (
    b_principal,
    condition_holds,
    lr_bruteforce,
    lr_rectangle_theorem,
    lr_via_pfaffian,
    schur_expand,
)
from detpf.poly import Polynomial, VariableTable
from detpf.symfunc import (
    NotInBoxError,
    Partition,
    TooLongError,
    h_complete,
    partitions_in_box,
    schur_jacobi_trudi,
)

from oracles import (
    ConditionViolatedError,
    b_coeff,
    coefficient_of_powers,
    lr_complement,
    lr_from_product,
    lr_rect_rect,
    pieri_mu,
    pieri_near_rectangle,
    schur_expand_by_peeling,
)

P = Partition


def test_bruteforce_base_cases():
    assert lr_bruteforce(P([1]), P([1]), P()) == 1
    assert lr_bruteforce(P([2, 1]), P([1, 1]), P([1])) == 1
    assert lr_bruteforce(P([2, 1]), P([1]), P([1])) == 0  # degree mismatch
    assert lr_bruteforce(P([2]), P([1]), P([1])) == 1
    assert lr_bruteforce(P([4, 2]), P([2, 1]), P([2, 1])) == 1
    assert lr_bruteforce(P([3, 2, 1]), P([2, 1]), P([2, 1])) == 2


def test_bruteforce_vs_product_oracle():
    sizes = [(mu, nu) for a in range(4) for mu in partitions_in_box(a, a)
             for b in range(4) for nu in partitions_in_box(b, b)
             if mu.size() == a and nu.size() == b]
    for mu, nu in sizes:
        total = mu.size() + nu.size()
        for lam in partitions_in_box(total, total):
            if lam.size() != total:
                continue
            assert lr_bruteforce(lam, mu, nu) == lr_from_product(lam, mu, nu), (lam, mu, nu)


def test_bruteforce_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        assert lr_bruteforce(P([3, 2, 1]), P([2, 1]), P([2, 1])) == 2
        assert gc.collect() == 0  # the filling state dies with the call
    finally:
        gc.enable()


def test_rect_rect_indicator():
    assert lr_rect_rect(P([2]), 1, 1, 1) == 1
    assert lr_rect_rect(P([1, 1]), 1, 1, 1) == 1
    assert lr_rect_rect(P([2, 1]), 1, 1, 1) == 0
    for n in (1, 2):
        for e in range(3):
            for f in range(3):
                for lam in partitions_in_box(2 * n, e + f):
                    want = lr_bruteforce(lam, P.box(n, e), P.box(n, f))
                    assert lr_rect_rect(lam, n, e, f) == want, (lam, n, e, f)


def test_complement_indicator():
    assert lr_complement(P(), P([2, 2]), 2, 2) == 1
    assert lr_complement(P([1]), P([1]), 1, 2) == 1
    for n in (1, 2):
        for e in range(4):
            for mu in partitions_in_box(n, e):
                for nu in partitions_in_box(n, e):
                    want = lr_bruteforce(P.box(n, e), mu, nu)
                    assert lr_complement(mu, nu, n, e) == want


def test_b_coeff_examples():
    assert b_coeff(0, 1, 1, 0, 0, [], []) == 1
    assert b_coeff(1, 0, 1, 0, 0, [], []) == -1
    assert b_coeff(2, 2, 1, 1, 1, [], []) == 0
    # vanishing outside 0 <= k,l <= e+f+2n-1
    table = VariableTable()
    zs = [table.gens()[i] for i in []]  # empty alphabet
    for n, e, f in ((1, 1, 1), (2, 1, 0)):
        dim = e + f + 2 * n
        assert b_coeff(0, dim, n, e, f, [], []) == 0
        assert b_coeff(dim, dim + 1, n, e, f, [], []) == 0


def test_b_coeff_closed_form_vs_expansion():
    for n, e, f in ((1, 0, 0), (1, 1, 1), (2, 1, 0), (2, 1, 1)):
        table = VariableTable(["x", "y"])
        z_ids = table.add_vector("z", 2)
        w_ids = table.add_vector("w", 2)
        gens = table.gens()
        x, y = gens[0], gens[1]
        zs = [gens[i] for i in z_ids]
        ws = [gens[i] for i in w_ids]
        product = (y - x) * h_complete(e + n - 1, [x, y] + zs) * h_complete(
            f + n - 1, [x, y] + ws
        )
        dim = e + f + 2 * n
        for k in range(dim + 1):
            for l in range(dim + 1):
                direct = coefficient_of_powers(product, {0: k, 1: l})
                assert direct == b_coeff(k, l, n, e, f, zs, ws), (n, e, f, k, l)


def test_build_b_block_structure():
    table = VariableTable()
    z_ids = table.add_vector("z", 2)
    zs = table.gens()
    n, e, f = 2, 1, 1
    mat = b_principal(range(e + f + 2 * n), n, e, f, zs, [])
    split = f + n
    for k in range(mat.dim):
        for l in range(k + 1, mat.dim):
            if k < split <= l:
                assert mat.entry(k, l) == h_complete(e + n - 1 - k - (l - split), zs)
            else:
                assert mat.entry(k, l) == 0
    small = b_principal(range(2), 1, 0, 0, [], [])
    assert small.dim == 2 and small.entry(0, 1) == 1
    assert small.entry(1, 0) == -1


@pytest.mark.parametrize("alphabets", ["z and w", "w only", "z only"])
def test_b_principal_matches_closed_form_oracle(alphabets):
    table = VariableTable()
    z_ids = table.add_vector("z", 2)
    w_ids = table.add_vector("w", 2)
    gens = table.gens()
    zs = [gens[i] for i in z_ids] if "z" in alphabets else []
    ws = [gens[i] for i in w_ids] if "w" in alphabets else []
    for n in (1, 2):
        for e in range(3):
            for f in range(3):
                # one index past e+f+2n-1, where B vanishes
                dim = e + f + 2 * n + 1
                mat = b_principal(range(dim), n, e, f, zs, ws)
                for k in range(dim):
                    for l in range(dim):
                        want = b_coeff(k, l, n, e, f, zs, ws)
                        assert mat.entry(k, l) == want, (n, e, f, k, l)


def test_via_pfaffian_examples():
    assert lr_via_pfaffian(P([2, 1]), 1, 2, 1, P([2])) == 1
    assert lr_via_pfaffian(P([2, 1]), 1, 2, 1, P([1])) == 0
    with pytest.raises(TooLongError):
        lr_via_pfaffian(P([1, 1, 1]), 1, 2, 1, P([1]))
    with pytest.raises(NotInBoxError):
        lr_via_pfaffian(P([2, 1]), 1, 1, 1, P([2]))


def test_subpfaffian_vanishing_outside_box():
    # Pf of the principal minor is 0 whenever lam is not inside box(2n, e+f)
    n, e, f = 1, 1, 1
    for lam in partitions_in_box(2, 4):
        if P.box(2 * n, e + f).contains(lam):
            continue
        assert lr_via_pfaffian(lam, n, e, f, P()) == 0


def test_rectangle_theorem_examples():
    assert lr_rectangle_theorem(P([2, 1]), 1, 2, 1, P([2])) == 1
    assert lr_rectangle_theorem(P([2, 1]), 1, 2, 1, P([1])) == 0
    assert lr_rectangle_theorem(P([1]), 1, 2, 2, P([])) == 0  # lam_n < f


def test_three_routes_agree():
    # n = 3 is the first size whose symmetric group has a 3-cycle
    sizes = [(n, e, f) for n in (1, 2) for e in range(3) for f in range(3)]
    for n, e, f in sizes + [(3, 1, 1), (3, 2, 1)]:
        box_f = P.box(n, f)
        for lam in partitions_in_box(2 * n, e + f):
            for mu in partitions_in_box(n, e):
                a = lr_bruteforce(lam, mu, box_f)
                b = lr_via_pfaffian(lam, n, e, f, mu)
                c = lr_rectangle_theorem(lam, n, e, f, mu)
                assert a == b == c, (lam, mu, n, e, f, a, b, c)


def test_skew_schur_from_subpfaffian():
    # under the rectangle condition the subpfaffian is the skew Schur s_{beta/alpha}(z)
    from detpf.lr import _alpha_beta
    from detpf.linalg import SkewMatrix, pfaffian
    from detpf.symfunc import SkewShape, index_set

    for n in (1, 2):
        for e in range(3):
            for f in range(3):
                table = VariableTable()
                table.add_vector("z", n)
                zs = table.gens()
                for lam in partitions_in_box(2 * n, e + f):
                    if not condition_holds(lam, n, e, f):
                        continue
                    alpha, beta = _alpha_beta(lam, n, e, f)
                    if not beta.contains(alpha):
                        continue
                    idx = index_set(lam, 2 * n)
                    skew = SkewMatrix.from_upper_function(
                        2 * n, lambda s, t: b_coeff(idx[s], idx[t], n, e, f, zs, [])
                    )
                    got = pfaffian(skew)
                    want = schur_jacobi_trudi(SkewShape(beta, alpha), zs)
                    if isinstance(got, Fraction) and not isinstance(want, Fraction):
                        assert want == got
                    else:
                        assert got == want, (lam, n, e, f)


def test_pieri_examples_and_sweep():
    assert pieri_near_rectangle(P([2, 1]), 1, 2, 1, 1, "h") == 0
    with pytest.raises(ConditionViolatedError):
        pieri_near_rectangle(P([1]), 1, 2, 2, 0, "h")
    for n in (1, 2):
        for e in range(1, 3):
            for f in range(3):
                for k in range(e + 1):
                    mu = pieri_mu(n, e, k, "h")
                    for lam in partitions_in_box(2 * n, e + f):
                        if not condition_holds(lam, n, e, f):
                            continue
                        got = pieri_near_rectangle(lam, n, e, f, k, "h")
                        assert got == lr_bruteforce(lam, mu, P.box(n, f))
                for k in range(n + 1):
                    mu = pieri_mu(n, e, k, "v")
                    for lam in partitions_in_box(2 * n, e + f):
                        if not condition_holds(lam, n, e, f):
                            continue
                        got = pieri_near_rectangle(lam, n, e, f, k, "v")
                        assert got == lr_bruteforce(lam, mu, P.box(n, f))
    # k = 0 degenerates to the two-rectangle indicator
    for lam in partitions_in_box(2, 2):
        if condition_holds(lam, 1, 1, 1):
            assert pieri_near_rectangle(lam, 1, 1, 1, 0, "h") == lr_rect_rect(lam, 1, 1, 1)


def test_schur_expand_roundtrip():
    table = VariableTable()
    table.add_vector("z", 3)
    zs = table.gens()
    p = (
        2 * schur_jacobi_trudi(P([2, 1]), zs)
        + schur_jacobi_trudi(P([3]), zs)
        - 5 * schur_jacobi_trudi(P([1]), zs)
    )
    coeffs = schur_expand(p)
    assert coeffs == {P([2, 1]): 2, P([3]): 1, P([1]): -5}
    with pytest.raises(ValueError):
        schur_expand(zs[0] - zs[1])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_schur_expand_reads_back_a_drawn_combination(data):
    n = data.draw(st.integers(1, 4))
    table = VariableTable()
    table.add_vector("z", n)
    zs = table.gens()
    shapes = [lam for lam in partitions_in_box(n, 6) if lam.size() <= 6]
    drawn = data.draw(st.dictionaries(st.sampled_from(shapes), st.integers(-3, 3), max_size=4))
    p = Polynomial.zero(table)
    for lam, coeff in drawn.items():
        p = p + coeff * schur_jacobi_trudi(lam, zs)
    want = {lam: coeff for lam, coeff in drawn.items() if coeff}
    assert schur_expand(p) == want == schur_expand_by_peeling(p)


def test_schur_expand_checks_both_generators():
    table = VariableTable()
    table.add_vector("z", 3)
    z1, z2, z3 = table.gens()
    cyclic = z1 * z1 * z2 + z2 * z2 * z3 + z3 * z3 * z1  # fixed by the 3-cycle only
    for p in (cyclic, z1 + z2):  # z1 + z2 is fixed by (z1 z2) only
        with pytest.raises(ValueError):
            schur_expand(p)


def test_schur_expand_by_peeling_fails_on_a_wrong_schur_polynomial(monkeypatch):
    # peeling with 2 s_lam leaves -s_lam: the leading term does not drop
    table = VariableTable()
    table.add_vector("x", 2)
    xs = table.gens()
    p = schur_jacobi_trudi(P([2, 1]), xs)
    doubled = lambda lam, gens: 2 * schur_jacobi_trudi(lam, gens)
    monkeypatch.setattr(oracles, "schur_jacobi_trudi", doubled)
    with pytest.raises(AssertionError):
        schur_expand_by_peeling(p)


def test_pf_schur3_two_alphabet_grid():
    # full two-alphabet identity symbolically over the whole small grid
    from detpf.harness import verify

    for e in range(3):
        for f in range(3):
            report = verify("pf_schur3", {"n": 1, "e": e, "f": f}, mode="symbolic")
            assert report.passed, (e, f)
