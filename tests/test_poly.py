import random
import sys
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detpf.poly import (
    EXPONENT_CAP,
    ExactDivisionError,
    ExponentCapError,
    Polynomial,
    Quotient,
    VariableTable,
    dot,
    random_rational,
)

from oracles import (
    coefficient,
    coefficient_of_powers,
    evaluate,
    leading_term,
    poly_of,
    ref_add,
    ref_exact_div,
    ref_mul,
    ref_neg,
    ref_poly,
    ref_pow,
    ref_terms,
    ref_text,
    term_list,
)


@pytest.fixture
def xy():
    table = VariableTable(["x", "y"])
    return table, *table.gens()


def test_addition_cancels(xy):
    table, x, y = xy
    assert (x + 1) + (-x + 1) == 2


def test_difference_of_squares(xy):
    table, x, y = xy
    assert (x + y) * (x - y) == x * x - y * y


def test_product_that_cancels_many_terms_is_compact():
    # (F y - F z)(y + z) with F = 1 + x + .. + x^299: the 300 terms F y z of the
    # first half cancel against the second half; the 600 left sit in a compact dict
    table = VariableTable(["x", "y", "z"])
    x, y, z = table.gens()
    f = sum((x**k for k in range(300)), Polynomial.zero(table))
    product = (f * y - f * z) * (y + z)
    assert product == f * y * y - f * z * z
    assert sys.getsizeof(product.terms) == sys.getsizeof(dict(product.terms))


def test_zero_annihilates(xy):
    table, x, y = xy
    p = 3 * x * y + y**2 - 7
    assert p * Polynomial.zero(table) == 0
    assert p * 0 == 0


def test_multiplying_by_one_returns_the_operand(xy):
    table, x, y = xy
    p = 3 * x * y + y**2 - 7
    assert p * 1 is p and 1 * p is p
    assert 2 * p == p + p and (2 * p) is not p


def test_quotient_sum_keeps_a_shared_factor_once(xy):
    table, x, y = xy
    b = x - y
    total = (x * x) / b + (y * 3) / b
    assert isinstance(total, Quotient)
    assert total.factors() == [(b, 1)]
    assert total.num == x * x + 3 * y
    assert total == (x * x + 3 * y) / b


def test_quotient_product_adds_multiplicities(xy):
    table, x, y = xy
    square = (1 / (x + y)) * (x / (x + y))
    assert square.factors() == [(x + y, 2)]
    assert square == x / (x * x + 2 * x * y + y * y)


def test_quotient_numerator_over_denominator_is_itself(xy):
    table, x, y = xy
    q = (x / y) * ((x + 1) / y) / 3
    assert q.numerator == x * (x + 1) and q.denominator == 3 * y**2
    assert q.numerator / q.denominator == q
    assert Quotient(x + y).denominator == 1 and Quotient(x + y).numerator == x + y


def test_quotient_compares_over_common_factors(xy):
    table, x, y = xy
    q = (x - y) / ((x - y) * (x + y))
    assert q == 1 / (x + y) == Fraction(1) / (x + y)
    assert q != 1 / (x - y)
    assert q * (x + y) == 1 and 1 == q * (x + y)
    assert (x * y) / x == y and y == (x * y) / x
    assert (x * y) / x != x and x != (x * y) / x
    half = (x / 2) / x
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert half != 1 and 1 != half
    assert (1 - half) + (x - y) / (x - y) == Fraction(3, 2)
    assert (x / y) / (x / y) == 1 and y / (y / x) == x


def test_quotient_division_by_zero(xy):
    table, x, y = xy
    zero = Polynomial.zero(table)
    with pytest.raises(ZeroDivisionError):
        x / zero
    with pytest.raises(ZeroDivisionError):
        (x / y) / zero
    with pytest.raises(ZeroDivisionError):
        x / ((x - y) / (x + y) - (x - y) / (x + y))
    with pytest.raises(ZeroDivisionError):
        (x / y) / Fraction(0)


def test_eval_basic(xy):
    table, x, y = xy
    p = x * x + y
    assert evaluate(p, {0: Fraction(2), 1: Fraction(3)}) == 7
    assert evaluate(Polynomial.zero(table), {}) == 0


def test_eval_missing_variable(xy):
    table, x, y = xy
    with pytest.raises(KeyError):
        evaluate(x + y, {0: Fraction(1)})


def test_coefficient_queries(xy):
    table, x, y = xy
    p = x * x * y + 3 * x * y
    assert coefficient(p, {0: 2, 1: 1}) == 1
    assert coefficient(p, (2, 1)) == 1
    assert coefficient(p, {0: 3}) == 0
    q = (y - x) * Polynomial.const(table, 1)
    assert coefficient(q, {1: 1}) == 1


def test_coefficient_roundtrip(xy):
    table, x, y = xy
    p = (x + 2 * y - 3) ** 3
    terms = term_list(p)
    assert len(terms) == 10
    assert all(len(exps) == 2 and type(coeff) is int for exps, coeff in terms)
    assert poly_of(table, dict(terms)) == p
    # and term-by-term reconstruction through the coefficient accessor
    total = Polynomial.zero(table)
    for exps, _ in terms:
        total = total + poly_of(table, {exps: coefficient(p, dict(enumerate(exps)))})
    assert total == p


def test_coefficient_of_powers(xy):
    table, x, y = xy
    p = (x + y) ** 3 + x * x
    part = coefficient_of_powers(p, {0: 2})
    assert part == 3 * y + 1


def test_text_form(xy):
    table, x, y = xy
    p = 2 * x * x - 3 * y + 1
    assert p.text() == "2*x^2 + -3*y + 1"
    assert Polynomial.zero(table).text() == "0"


def test_table_mismatch_rejected():
    t1 = VariableTable(["x"])
    t2 = VariableTable(["x"])
    with pytest.raises(ValueError):
        t1.gens()[0] + t2.gens()[0]


def test_pow_and_division(xy):
    table, x, y = xy
    p = (x + y) ** 4
    assert p.exact_div((x + y) ** 2) == (x + y) ** 2
    with pytest.raises(ExactDivisionError):
        (x * x + y).exact_div(x + 1)
    assert (x / 2) * 2 == x


def test_exact_division_above_float_precision(xy):
    table, x, y = xy
    big = 3**40  # above 2**53, so a float quotient would round
    q = (big * x + 1) * (x + 1)
    quotient = q.exact_div(x + 1)
    assert quotient == big * x + 1
    assert coefficient(quotient, {0: 1}) == big
    assert all(type(c) is int for c in quotient.terms.values())
    with pytest.raises(ExactDivisionError):
        (x + 1).exact_div(2 * x + 2)  # the quotient 1/2 is not in Z[x]
    assert ((x * y + 1) * (2 * y - 3)).exact_div(2 * y - 3) == x * y + 1


def test_coefficients_are_ints_exactly_when_integral(xy):
    table, x, y = xy
    p = x * Fraction(4, 2) + Fraction(-3) + y * True
    assert p.terms == (2 * x - 3 + y).terms
    assert all(type(c) is int for c in p.terms.values())
    assert Polynomial.const(table, Fraction(6, 3)).terms == {0: 2}
    assert p == 2 * x + y - Fraction(3) and p != Fraction(1, 2)
    assert Polynomial.const(table, 0) == Fraction(0) != Polynomial.const(table, 1) / 2
    with pytest.raises(TypeError):
        Polynomial.const(table, Fraction(1, 2))
    for op in (add, sub, mul):
        with pytest.raises(TypeError):
            op(x, Fraction(1, 2))
        with pytest.raises(TypeError):
            op(Fraction(-5, 3), x + y)
    with pytest.raises(TypeError):
        x.exact_div(Fraction(1, 2))


def test_division_by_a_rational_is_a_quotient(xy):
    table, x, y = xy
    point = {0: Fraction(3, 7), 1: Fraction(-2)}
    for divisor in (2, Fraction(1, 2), Fraction(-4, 3), Fraction(6, 3)):
        got = (x + y) / divisor
        assert isinstance(got, Quotient)
        dens = [evaluate(f, point) ** m for f, m in got.factors()]
        assert evaluate(got.num, point) / reduce(mul, dens, 1) == (point[0] + point[1]) / divisor
        assert got * divisor == x + y
    assert x / Fraction(1, 2) == 2 * x
    assert x / Fraction(-1, 3) == -3 * x
    # a divisor with numerator 1 or -1 folds its sign into the numerator, no factor
    assert (x / Fraction(1, 2)).factors() == (x / Fraction(-1, 3)).factors() == []
    assert (x / Fraction(1, 2)).num == 2 * x and (x / Fraction(-1, 3)).num == -3 * x
    assert Fraction(1, 2) / x == 1 / (2 * x)
    assert x / 2 + Fraction(1, 3) == (3 * x + 2) / 6


def test_exponent_cap(xy):
    table, x, y = xy
    top = x**EXPONENT_CAP
    assert leading_term(top) == ((EXPONENT_CAP, 0), 1)
    assert (top * y).text() == f"1*x^{EXPONENT_CAP}*y"  # no carry into y
    with pytest.raises(ExponentCapError):
        top * x
    with pytest.raises(ExponentCapError):
        (top + 1) * (x + 1)
    with pytest.raises(ExponentCapError):
        x ** (EXPONENT_CAP + 1)
    with pytest.raises(ExponentCapError):
        (y ** (EXPONENT_CAP // 2 + 1)) ** 2


def test_table_growth_keeps_existing_polynomials():
    table = VariableTable(["x", "y"])
    x, y = table.gens()
    p = (x + y) ** 2
    z = Polynomial.variable(table, table.add("z"))
    assert (p * z).text() == "1*x^2*z + 2*x*y*z + 1*y^2*z"
    assert (p * z).exact_div(z) == p
    assert coefficient(p, {0: 1, 1: 1}) == 2


@st.composite
def polys(draw, table):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        key = tuple(draw(st.integers(0, 3)) for _ in range(len(table)))
        terms[key] = draw(st.integers(-9, 9))
    return poly_of(table, terms)


_TABLE = VariableTable(["x", "y", "z"])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_eval_is_ring_homomorphism(data):
    p = data.draw(polys(_TABLE))
    q = data.draw(polys(_TABLE))
    point = {
        i: Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 6)))
        for i in range(3)
    }
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
    assert evaluate(p + q, point) == evaluate(p, point) + evaluate(q, point)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exact_division_roundtrip(data):
    p = data.draw(polys(_TABLE))
    q = data.draw(polys(_TABLE))
    if not q.terms:
        return
    assert (p * q).exact_div(q) == p


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_dot_is_the_sum_of_products(data):
    # operands: Polynomials, ints and integral Fractions, at least one Polynomial
    operand = polys(_TABLE) | st.integers(-9, 9) | st.integers(-9, 9).map(Fraction)
    pairs = data.draw(st.lists(st.tuples(operand, operand), max_size=4))
    one = (data.draw(polys(_TABLE)), data.draw(operand))
    pairs.insert(data.draw(st.integers(0, len(pairs))), one)
    got = dot(pairs)
    _assert_canonical(got)
    assert got == reduce(add, [a * b for a, b in pairs], Polynomial.zero(_TABLE))


def test_dot_edge_cases(xy):
    table, x, y = xy
    p = (x + y) ** 3
    cancelled = dot([(p, x - 1), (-p, x), (p, Fraction(1))])
    assert isinstance(cancelled, Polynomial) and cancelled.terms == {}
    with pytest.raises(ValueError):
        dot([(x, y), (VariableTable(["x"]).gens()[0], 1)])
    with pytest.raises(TypeError):
        dot([(x, Fraction(1, 2))])
    with pytest.raises(TypeError):
        dot([(2, 3)])
    # each pair is checked on its own: the over-cap terms cancel in the sum
    top = x**EXPONENT_CAP
    with pytest.raises(ExponentCapError):
        dot([(top, x), (-top, x)])



@given(st.data())
@settings(max_examples=100, deadline=None)
def test_quotient_evaluates_like_its_fractions(data):
    a, b, c, d = (data.draw(polys(_TABLE)) for _ in range(4))
    point = {
        i: Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 6)))
        for i in range(3)
    }
    av, bv, cv, dv = (evaluate(f, point) for f in (a, b, c, d))
    assume(bv and cv and dv)
    p, q = a / b, c / d
    pv, qv = av / bv, cv / dv
    for got, want in ((p + q, pv + qv), (p - q, pv - qv), (p * q, pv * qv), (p / q, pv / qv)):
        dens = [evaluate(f, point) ** m for f, m in got.factors()]
        assert evaluate(got.num, point) / reduce(mul, dens, 1) == want
    assert p + q == (a * d + c * b) / (b * d)
    assert p == (a * d) / (b * d) and (p == q) == (a * d == c * b)


_SMALL_INTS = st.integers(-9, 9)
_BIG_INTS = st.integers(-(2**80), 2**80)
_SMALL_EXPS = st.integers(0, 3)
_BIG_EXPS = st.integers(0, 2**29)  # a product of three stays below the cap


def dense_terms(coeffs, exps):
    """Reference input: {dense exponent tuple: coefficient}, up to 5 terms."""
    return st.dictionaries(st.tuples(exps, exps, exps), coeffs, max_size=5)


def _kernel(dense):
    return poly_of(_TABLE, dense)


def _assert_canonical(p):
    for coeff in p.terms.values():
        assert coeff and type(coeff) is int


def _check_against_reference(p_dense, q_dense, k):
    p, q = _kernel(p_dense), _kernel(q_dense)
    rp, rq = ref_poly(p_dense), ref_poly(q_dense)
    assert ref_terms(p) == rp and p.text() == ref_text(rp, _TABLE.names)
    cases = [
        (p + q, ref_add(rp, rq)),
        (p - q, ref_add(rp, ref_neg(rq))),
        (p * q, ref_mul(rp, rq)),
        (p**k, ref_pow(rp, k)),
    ]
    if rq:
        cases.append(((p * q).exact_div(q), ref_exact_div(ref_mul(rp, rq), rq)))
    for got, want in cases:
        _assert_canonical(got)
        assert got.text() == ref_text(want, _TABLE.names)
        assert ref_terms(got) == want


@pytest.mark.parametrize(
    "coeffs",
    [_SMALL_INTS | _BIG_INTS, _SMALL_INTS],
    ids=["integer", "small"],
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference(coeffs, data):
    exps = _SMALL_EXPS | _BIG_EXPS
    p = data.draw(dense_terms(coeffs, exps))
    q = data.draw(dense_terms(coeffs, exps))
    _check_against_reference(p, q, data.draw(st.integers(0, 3)))


def _quotient_text(divide):
    try:
        return divide()
    except ExactDivisionError:
        return "inexact"


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_inexact_division_matches_reference(data):
    p = data.draw(dense_terms(_SMALL_INTS | _BIG_INTS, _SMALL_EXPS))
    q = data.draw(dense_terms(_SMALL_INTS, _SMALL_EXPS))
    if not ref_poly(q):
        return
    if data.draw(st.booleans()):
        # q p over (2 or 3) q: exact over Q, and over Z only when the scale divides p
        p = {k: int(c) for k, c in ref_mul(ref_poly(q), ref_poly(p)).items()}
        scale = data.draw(st.integers(2, 3))
        q = {k: scale * c for k, c in q.items()}
    got = _quotient_text(lambda: _kernel(p).exact_div(_kernel(q)).text())
    want = _quotient_text(lambda: ref_text(ref_exact_div(ref_poly(p), ref_poly(q)), _TABLE.names))
    assert got == want


def test_random_rational_contract():
    from math import gcd

    rng = random.Random(7)
    for _ in range(10_000):
        v = random_rational(rng, 50)
        assert abs(v.numerator) <= 50 and 1 <= v.denominator <= 50
        assert gcd(abs(v.numerator), v.denominator) == 1
    assert {random_rational(random.Random(s), 1) for s in range(64)} <= {
        Fraction(-1),
        Fraction(0),
        Fraction(1),
    }


def test_random_rational_deterministic():
    rng_a, rng_b = random.Random(123), random.Random(123)
    a = [random_rational(rng_a, 40) for _ in range(20)]
    b = [random_rational(rng_b, 40) for _ in range(20)]
    assert a == b
    with pytest.raises(ValueError):
        random_rational(random.Random(0), 0)
