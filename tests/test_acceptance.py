"""Acceptance gate: every criterion at exact equality (zero tolerance).

Each test prints one ACCEPTANCE line so a log scan shows the verdicts.
"""

import functools
import random
from fractions import Fraction
from itertools import combinations
from math import factorial

from detpf.harness import (
    CampaignBlock,
    CampaignConfig,
    reports_to_json,
    run_campaign,
    symbolic_cases,
    verify,
)
from detpf.identities import REGISTRY, registry
from detpf.linalg import (
    AlternatingTensor,
    SkewMatrix,
    blocked_tensor,
    congruence_pfaffian,
    det,
    hyperpfaffian,
    pfaffian,
    sub_pfaffian,
)
from detpf.lr import (
    lr_bruteforce,
    lr_rectangle_theorem,
    lr_via_pfaffian,
)
from detpf.poly import VariableTable, random_rational
from detpf.symfunc import (
    Partition,
    h_complete,
    partitions_in_box,
    schur_bialternant,
    schur_jacobi_trudi,
)

from oracles import (
    b_coeff,
    coefficient_of_powers,
    ordered_block_partitions,
    random_matrix,
    random_skew,
)

SEED = 20240801


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")

        return wrapper

    return decorate


def _draw(rng):
    return random_rational(rng, 20)


@criterion(1, "symbolic suite, all identities at minimal parameters")
def test_criterion_1_symbolic_suite():
    assert len(registry()) >= 38
    for name in registry():
        spec = REGISTRY[name]
        for case in symbolic_cases(spec):
            report = verify(name, dict(case), mode="symbolic")
            assert report.passed, (name, dict(case), report.failures[:1])


@criterion(2, "numeric suite, >=20 guarded trials at larger parameters")
def test_criterion_2_numeric_suite():
    for name in registry():
        spec = REGISTRY[name]
        report = verify(
            name, dict(spec.numeric_defaults),
            mode="numeric", trials=20, seed=SEED, bound=30,
        )
        assert report.passed, (name, report.failures[:1])
        assert report.trials == 20


@criterion(3, "LR coefficients: three routes agree on the full grid")
def test_criterion_3_lr_cross_validation():
    cells = 0
    for n in (1, 2):
        for e in range(3):
            for f in range(3):
                box_f = Partition.box(n, f)
                for lam in partitions_in_box(2 * n, e + f):
                    for mu in partitions_in_box(n, e):
                        a = lr_bruteforce(lam, mu, box_f)
                        b = lr_via_pfaffian(lam, n, e, f, mu)
                        c = lr_rectangle_theorem(lam, n, e, f, mu)
                        assert a == b == c, (lam, mu, n, e, f, a, b, c)
                        cells += 1
    assert cells >= 500


@criterion(4, "coefficient lemma: closed form equals direct extraction")
def test_criterion_4_b_coeff_lemma():
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


@criterion(5, "Pfaffian: square law, 3-term expansion, minor-summation, Cauchy-Binet")
def test_criterion_5_pfaffian_correctness():
    rng = random.Random(SEED)
    dims = [2, 4, 6, 8]
    for i in range(100):
        a = random_skew(rng, dims[i % 4], _draw)
        pf = pfaffian(a)
        assert pf * pf == det(a.to_matrix())
    table = VariableTable(["a", "b", "c", "d", "e", "f"])
    a12, a13, a14, a23, a24, a34 = table.gens()
    four = SkewMatrix(
        4, {(0, 1): a12, (0, 2): a13, (0, 3): a14, (1, 2): a23, (1, 3): a24, (2, 3): a34}
    )
    assert pfaffian(four) == a12 * a34 - a13 * a24 + a14 * a23
    for _ in range(50):
        x = random_matrix(rng, 4, 6, _draw)
        skew = random_skew(rng, 6, _draw)
        total = Fraction(0)
        for idx in combinations(range(6), 4):
            total += sub_pfaffian(skew, idx) * det(x.minor((0, 1, 2, 3), idx))
        assert total == congruence_pfaffian(x, skew)
    for _ in range(50):
        x = random_matrix(rng, 3, 5, _draw)
        y = random_matrix(rng, 3, 5, _draw)
        m = random_matrix(rng, 5, 5, _draw)
        lhs = det(x.mul(m).mul(y.transpose()))
        rhs = Fraction(0)
        for i_set in combinations(range(5), 3):
            for j_set in combinations(range(5), 3):
                rhs += det(m.minor(i_set, j_set)) * det(
                    x.minor((0, 1, 2), i_set)
                ) * det(y.minor((0, 1, 2), j_set))
        assert lhs == rhs


@criterion(6, "hyperpfaffian: census, order-2 reduction, composition, expressions")
def test_criterion_6_hyperpfaffian():
    ones = AlternatingTensor.from_function(2, 4, lambda idx: Fraction(1))
    perms = {sum(blocks, ()) for blocks, _ in ordered_block_partitions(4, 2, ones)}
    assert len(perms) == 6
    assert perms == {
        (0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2),
        (2, 3, 0, 1), (1, 3, 0, 2), (1, 2, 0, 3),
    }
    rng = random.Random(SEED + 1)
    for dim in (4, 6):
        skew = random_skew(rng, dim, _draw)
        tensor = AlternatingTensor(2, dim, dict(skew.upper))
        assert hyperpfaffian(tensor) == pfaffian(skew)
    for n, r in ((2, 2), (2, 3)):
        m = n // 2
        skew = random_skew(rng, n * r, _draw)
        factor = Fraction(factorial(m * r), factorial(m) ** r * factorial(r))
        assert hyperpfaffian(blocked_tensor(skew, n)) == factor * pfaffian(skew)
    assert verify("hyper_v", {"n": 2}, mode="symbolic").passed
    assert verify("hyper_u", {"n": 2}, mode="symbolic").passed


@criterion(7, "band-matrix minor lemmas exhaustively, signed partition-sum formula")
def test_criterion_7_minor_lemmas_and_littlewood():
    for r in (1, 2, 3):
        assert verify("minor_Dr", {"r": r}, mode="symbolic").passed
        assert verify("minor_BC", {"r": r}, mode="symbolic").passed
    for n in (2, 3, 4):
        assert verify("littlewood", {"n": n}, mode="symbolic").passed


@criterion(8, "Schur sanity: two routes agree, products expand with oracle LR")
def test_criterion_8_schur_sanity():
    for nvars in (3, 4):
        table = VariableTable()
        table.add_vector("x", nvars)
        xs = table.gens()
        for lam in partitions_in_box(3, 4):
            if lam.length() > nvars:
                continue
            assert schur_jacobi_trudi(lam, xs) == schur_bialternant(lam, xs)
    table = VariableTable()
    table.add_vector("x", 4)
    xs = table.gens()
    schur_cache = {}

    def s(lam):
        if lam.parts not in schur_cache:
            schur_cache[lam.parts] = schur_jacobi_trudi(lam, xs)
        return schur_cache[lam.parts]

    def partitions_of(k):
        return [lam for lam in partitions_in_box(k, k) if lam.size() == k]

    for a in range(7):
        for mu in partitions_of(a):
            for b in range(7 - a):
                for nu in partitions_of(b):
                    lhs = s(mu) * s(nu)
                    rhs = Fraction(0)
                    for lam in partitions_of(a + b):
                        c = lr_bruteforce(lam, mu, nu)
                        if c:
                            rhs = rhs + c * s(lam)
                    assert lhs == rhs, (mu, nu)


@criterion(9, "determinism: identical seeds give byte-identical JSON reports")
def test_criterion_9_campaign_determinism():
    config = CampaignConfig(
        [
            CampaignBlock("main2", "numeric", 6, 25, SEED, {"n": 2, "p": 1, "q": 0, "r": 0, "s": 1}),
            CampaignBlock("cauchy", "symbolic", 1, 25, SEED, {"n": 2}),
            CampaignBlock("sundquist", "numeric", 4, 25, SEED, {"n": 2}),
            CampaignBlock("pf_schur3", "numeric", 3, 25, SEED, {"n": 1, "e": 2, "f": 1}),
        ]
    )
    first = reports_to_json(run_campaign(config))
    second = reports_to_json(run_campaign(config))
    assert first.encode("utf-8") == second.encode("utf-8")
    parallel = reports_to_json(run_campaign(config, workers=2))
    assert parallel == first
