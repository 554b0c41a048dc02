"""Both verification modes run one statement per identity.

`spec.sides(params, sc, numeric)` reads only its scalars: the flag is passed
for the benchmark tracer and changes nothing.  At rational points linalg
sends the values down the integer routes (`minors_int`, `det_of_ratios`,
`pfaffian_of_ratios`, the cleared hyperpfaffian walk); at `ModP` points,
which are neither int nor Fraction, the same statements take the ring
routes that polynomials take.  Comparing the two value by value catches a
route error that scales both sides of an identity alike, which the
identity's own check cannot see.
"""

import sys

import pytest

from detpf import identities, linalg
from detpf.harness import _build_symbolic_scalars, _trial_rng
from detpf.identities import REGISTRY, ZeroDenominatorError
from detpf.poly import random_rational

from oracles import ModP

NAMES = sorted(REGISTRY)


def _rational_point(spec, params, trial, seed=0, bound=25):
    """(scalars, sides) at the harness's draw for `trial`, redrawn as the harness redraws."""
    rng = _trial_rng(seed, spec.name, params, trial)
    while True:
        sc = {
            prefix: [random_rational(rng, bound) for _ in range(size)]
            for prefix, size in spec.vectors(params)
        }
        if all(g != 0 for g in spec.guard_values(params, sc)):
            try:
                return sc, spec.sides(params, sc, True)
            except ZeroDenominatorError:
                pass


def _prime_field_disagreements(trials=3):
    """The identities whose rational sides and ModP sides differ mod p at one of `trials` points."""
    out = []
    for name in NAMES:
        spec = REGISTRY[name]
        params = dict(spec.numeric_defaults)
        for trial in range(trials):
            sc, rational = _rational_point(spec, params, trial)
            reduced = {prefix: [ModP(v) for v in values] for prefix, values in sc.items()}
            ring = spec.sides(params, reduced, False)
            same = len(ring) == len(rational) and all(
                ModP(a) == c and ModP(b) == d for (a, b), (c, d) in zip(rational, ring)
            )
            if not same:
                out.append(name)
                break
    return out


@pytest.mark.parametrize("name", NAMES)
def test_both_modes_run_one_statement_at_polynomial_points(name):
    spec = REGISTRY[name]
    params = dict(spec.defaults)
    _, sc = _build_symbolic_scalars(spec.vectors(params))
    assert spec.sides(params, sc, True) == spec.sides(params, sc, False)


@pytest.mark.parametrize("name", NAMES)
def test_both_modes_run_one_statement_at_rational_points(name):
    spec = REGISTRY[name]
    params = dict(spec.numeric_defaults)
    sc, numeric = _rational_point(spec, params, 0)
    assert numeric == spec.sides(params, sc, False)


def test_prime_field_sides_match_rational_sides():
    assert _prime_field_disagreements() == []


def _doubled(route):
    return lambda *args: 2 * route(*args)


def _doubled_minors(route):
    return lambda *args: [2 * value for value in route(*args)]


@pytest.mark.parametrize(
    "route, double",
    [("pfaffian_of_ratios", _doubled), ("minors_int", _doubled_minors)],
    ids=["pfaffian_of_ratios", "minors_int"],
)
def test_prime_field_gate_fails_a_doubled_integer_route(monkeypatch, route, double):
    original = getattr(linalg, route)
    lookups = [
        module for name, module in sys.modules.items()
        if name.startswith("detpf") and vars(module).get(route) is original
    ]
    assert linalg in lookups and (route != "minors_int" or identities in lookups)
    for module in lookups:
        monkeypatch.setattr(module, route, double(original))
    assert _prime_field_disagreements()
