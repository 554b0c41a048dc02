import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detpf.poly import (
    ExactDivisionError,
    MissingVariableError,
    Monomial,
    Polynomial,
    VariableTable,
    random_rational,
)

from oracles import coefficient_of_powers


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


def test_zero_annihilates(xy):
    table, x, y = xy
    p = 3 * x * y + y**2 - 7
    assert p * Polynomial.zero(table) == 0
    assert p * 0 == 0


def test_eval_basic(xy):
    table, x, y = xy
    p = x * x + y
    assert p.evaluate({0: Fraction(2), 1: Fraction(3)}) == 7
    assert Polynomial.zero(table).evaluate({}) == 0


def test_eval_missing_variable(xy):
    table, x, y = xy
    with pytest.raises(MissingVariableError):
        (x + y).evaluate({0: Fraction(1)})


def test_coefficient_queries(xy):
    table, x, y = xy
    p = x * x * y + 3 * x * y
    assert p.coefficient(Monomial({0: 2, 1: 1})) == 1
    assert p.coefficient(Monomial({0: 3})) == 0
    q = (y - x) * Polynomial.const(table, 1)
    assert q.coefficient(Monomial({1: 1})) == 1


def test_coefficient_roundtrip(xy):
    table, x, y = xy
    p = (x + 2 * y - 3) ** 3
    rebuilt = Polynomial(
        table, {key: p.terms[key] for key in p.terms}
    )
    assert rebuilt == p
    # and term-by-term reconstruction through the public accessor
    total = Polynomial.zero(table)
    for key in p.terms:
        mono = Monomial(dict(enumerate(key)))
        total = total + Polynomial(table, {mono: p.coefficient(mono)})
    assert total == p


def test_coefficient_of_powers(xy):
    table, x, y = xy
    p = (x + y) ** 3 + x * x
    part = coefficient_of_powers(p, {0: 2})
    assert part == 3 * y + 1


def test_text_form(xy):
    table, x, y = xy
    p = 2 * x * x - Fraction(1, 2) * y + 1
    assert p.text() == "2*x^2 + -1/2*y + 1"
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


@st.composite
def polys(draw, table):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        key = tuple(draw(st.integers(0, 3)) for _ in range(len(table)))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        terms[Monomial(dict(enumerate(key)))] = coeff
    return Polynomial(table, terms)


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
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exact_division_roundtrip(data):
    p = data.draw(polys(_TABLE))
    q = data.draw(polys(_TABLE))
    if not q.terms:
        return
    assert (p * q).exact_div(q) == p


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
