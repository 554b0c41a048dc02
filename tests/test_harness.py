import dataclasses
import inspect
import json
from fractions import Fraction
from functools import reduce
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detpf.harness import (
    SYMBOLIC_DIM_CAP,
    TEXT_TERM_CAP,
    CampaignBlock,
    CampaignConfig,
    ConfigError,
    GuardExhaustionError,
    UnknownIdentityError,
    _build_symbolic_scalars,
    _run_numeric_trial,
    _scalar_text,
    default_campaign_config,
    parse_campaign_config,
    reports_to_json,
    resolve_params,
    run_campaign,
    symbolic_cases,
    verify,
)
from detpf import identities
from detpf.identities import (
    REGISTRY,
    InvalidParamsError,
    ZeroDenominatorError,
    _delta,
    _du,
    _dv,
    _dw,
    _family,
    _pf_factor,
    _prod,
    _skew_from,
    _theorem_det,
    _v_square,
    _V,
    _W,
    registry,
)
from detpf.linalg import RingMatrix, SkewMatrix, det
from detpf.poly import Polynomial, VariableTable
from detpf.symfunc import partitions_in_box
from detpf.vandermonde import build_U, build_V, build_W

from oracles import (
    cauchy_binet_by_minors,
    det_leibniz,
    hyper_u_by_ordered_partitions,
    hyper_v_by_ordered_partitions,
    matmul,
    minor_sum_by_matchings,
    pf_matchings,
    vandermonde_hyperpfaffian_by_entries,
    vandermonde_hyperpfaffian_by_ordered_partitions,
)


def test_registry_contract():
    keys = registry()
    assert len(keys) >= 38
    assert "main2" in keys
    assert keys == registry()  # deterministic
    assert len(set(keys)) == len(keys)
    for name in keys:
        spec = REGISTRY[name]
        assert spec.summary
        assert isinstance(spec.defaults, dict)
        assert isinstance(spec.numeric_defaults, dict)


def test_every_identity_instantiates_at_minimal_params():
    # smoke sweep: vector specs and guard builders run without error everywhere
    for name in registry():
        spec = REGISTRY[name]
        for case in symbolic_cases(spec):
            params = resolve_params(spec, dict(case))
            vectors = spec.vectors(params)
            assert all(count >= 0 for _, count in vectors)


def test_verify_trivial_cauchy():
    report = verify("cauchy", {"n": 1}, mode="symbolic")
    assert report.passed and report.mode == "symbolic"


def test_verify_main2_degenerate_and_numeric():
    assert verify("main2", {"n": 1, "p": 0, "q": 0, "r": 0, "s": 0}, "symbolic").passed
    report = verify(
        "main2", {"n": 2, "p": 1, "q": 1, "r": 1, "s": 1},
        mode="numeric", trials=25, seed=3, bound=40,
    )
    assert report.passed and report.trials == 25


def test_verify_rejects_unknowns():
    with pytest.raises(UnknownIdentityError):
        verify("nope")
    with pytest.raises(InvalidParamsError):
        verify("cauchy", {"zz": 1})
    with pytest.raises(InvalidParamsError):
        verify("cauchy", {"n": 2}, mode="fuzzy")
    with pytest.raises(InvalidParamsError):
        verify("cauchy", {"n": 2}, mode="numeric", trials=0)
    with pytest.raises(InvalidParamsError):
        verify("cauchy", {"n": 2}, mode="numeric", bound=0)
    with pytest.raises(InvalidParamsError):
        verify("rel_v1", {"p": 1, "q": 2})  # requires p >= q
    with pytest.raises(InvalidParamsError):
        verify("hyper_v", {"n": 3})  # requires even n


def test_failure_detection_and_report_shape():
    spec = REGISTRY["cauchy"]

    def broken(params, sc, numeric):
        return [(lhs, rhs + 1) for lhs, rhs in spec.sides(params, sc, numeric)]

    REGISTRY["_broken"] = dataclasses.replace(spec, name="_broken", sides=broken)
    try:
        sym = verify("_broken", {"n": 2}, "symbolic")
        num = verify("_broken", {"n": 2}, "numeric", trials=2, seed=0)
        assert not sym.passed and not num.passed
        record = num.failures[0]
        assert set(record) == {"trial", "pair", "assignment", "lhs", "rhs"}
        assert record["assignment"]["x1"]
    finally:
        del REGISTRY["_broken"]


def test_failure_record_caps_large_polynomial_text():
    spec = REGISTRY["cauchy"]
    lhs_seen = []

    def broken(params, sc, numeric):
        pairs = spec.sides(params, sc, numeric)
        lhs_seen.extend(lhs for lhs, _ in pairs)
        big = (1 + sum(sc["x"]) + sum(sc["y"])) ** 12
        return [(lhs, rhs + big) for lhs, rhs in pairs]

    REGISTRY["_broken"] = dataclasses.replace(spec, name="_broken", sides=broken)
    try:
        report = verify("_broken", {"n": 2}, "symbolic")
    finally:
        del REGISTRY["_broken"]
    (record,) = report.failures
    # (1 + x1 + x2 + y1 + y2)^12 has C(16, 4) = 1820 terms; the cleared lhs has 4
    assert TEXT_TERM_CAP < 1820
    assert record["rhs"] == "<polynomial, 1820 terms>"
    assert record["lhs"] == lhs_seen[0].text()



def test_failure_text_caps_a_quotient_by_its_numerator():
    table = VariableTable(["x1", "x2", "x3", "x4"])
    x1, x2, x3, x4 = table.gens()
    big = (1 + x1 + x2 + x3 + x4) ** 12 / (x1 - x2) / (x3 + 1)
    # (1 + x1 + .. + x4)^12 has C(16, 4) = 1820 terms; factors count with multiplicity
    assert _scalar_text(big) == "<quotient, 1820 terms over 2 factors>"
    assert _scalar_text(big / (x3 + 1)) == "<quotient, 1820 terms over 3 factors>"
    small = x1 / (x1 - x2) / (x3 + 1) / (x3 + 1)
    assert _scalar_text(small) == "(1*x1) / (1*x1 + -1*x2)^1 / (1*x3 + 1)^2"


def _statement_mutant(sides, old, new):
    """`sides` recompiled from its source with the one `old` in it replaced by `new`."""
    source = inspect.getsource(sides)
    assert source.count(old) == 1
    scope = dict(vars(identities))
    exec(source.replace(old, new), scope)
    return scope[sides.__name__]


# a one-token mutant of the single statement of each relation that divides
STATEMENT_MUTANTS = (
    ("rel_uv1", "y[i] / x[i]", "y[i] * x[i]"),
    ("rel_v2", "Fraction(1) / ai", "ai"),
    ("rel_v1", "(as_[i] - am) / (xs[i] - xm)", "(as_[i] + am) / (xs[i] - xm)"),
)


@pytest.mark.parametrize("name, old, new", STATEMENT_MUTANTS)
def test_statement_mutant_fails_in_both_modes(name, old, new):
    spec = REGISTRY[name]
    REGISTRY[name] = dataclasses.replace(spec, sides=_statement_mutant(spec.sides, old, new))
    try:
        assert not verify(name, None, "symbolic").passed
        params = dict(spec.numeric_defaults)
        assert not verify(name, params, "numeric", trials=3, seed=2024, bound=30).passed
    finally:
        REGISTRY[name] = spec


@pytest.mark.parametrize(
    "name, p, q",
    [
        ("rel_uv1", 2, 1), ("rel_uv1", 3, 1), ("rel_uv1", 0, 2),
        ("rel_v1", 1, 0), ("rel_v1", 3, 3),
        ("rel_v2", 0, 2), ("rel_v2", 3, 2),
    ],
)
def test_dividing_relations_pass_symbolically_off_the_grid(name, p, q):
    # p > q and p = 0 for rel_uv1, one point and p = q for rel_v1, an empty block for rel_v2
    assert verify(name, {"p": p, "q": q}, "symbolic").passed


# the identities declared through identities._register_quotient
QUOTIENT_IDENTITIES = (
    "cauchy", "schur", "special1", "special2", "main1", "main2", "main3", "main4",
    "cauchy1", "schur1", "prop_n2", "homog1", "homog2", "variation1", "variation2",
    "sundquist", "another1", "another2", "special_pf", "det_schur", "pf_schur",
    "pf_schur2",
)


# identities whose numeric sides take an integer route of their own; a PASS
# records no values, so only a mutant shows that a side still means something
INTEGER_ROUTE_IDENTITIES = (
    "hyper_v", "hyper_u", "cauchy_binet", "minor_sum", "rel_fv", "rel_gh"
)

# band-matrix minors: most pairs are 0 = 0, but every case has a +-1 pair
BAND_MINOR_IDENTITIES = ("minor_Dr", "minor_BC")

# identities with sides of their own, each with a pair whose right side is not 0
OWN_SIDES_IDENTITIES = (
    "rel_v1", "rel_v2", "det_dodgson", "pf_dodgson", "pf_det", "rel_uv1", "rel_uv2",
    "rel_uw1", "rel_uw2", "littlewood", "compo", "pf_schur3", "plucker", "plucker_vw",
)


@pytest.mark.parametrize(
    "name",
    QUOTIENT_IDENTITIES + INTEGER_ROUTE_IDENTITIES + BAND_MINOR_IDENTITIES + OWN_SIDES_IDENTITIES,
)
def test_doubled_right_side_fails_in_both_modes(name):
    # a derived pair (lhs, rhs) that is not 0 = 0 must fail once rhs is doubled;
    # special_pf's right side is 0 for more than one block, so it still passes
    spec = REGISTRY[name]

    def doubled(params, sc, numeric):
        return [(lhs, 2 * rhs) for lhs, rhs in spec.sides(params, sc, numeric)]

    def vanishing(params):
        return name == "special_pf" and params["r"] >= 2

    REGISTRY[name] = dataclasses.replace(spec, sides=doubled)
    try:
        for case in symbolic_cases(spec):
            assert verify(name, dict(case), "symbolic").passed == vanishing(case)
        params = dict(spec.numeric_defaults)
        report = verify(name, params, "numeric", trials=3, seed=2024, bound=30)
        assert report.passed == vanishing(params)
    finally:
        REGISTRY[name] = spec


@pytest.mark.parametrize(
    "name, params",
    [
        ("another1", {"n": 3, "p": 1, "q": 1}), ("another1", {"n": 3, "p": 0, "q": 0}),
        ("another2", {"n": 3, "p": 1}), ("another2", {"n": 3, "p": 0}),
        ("homog1", {"n": 2, "p": 1, "q": 1, "r": 1, "s": 1}),
        ("pf_schur3", {"n": 1, "e": 2, "f": 1}), ("pf_schur3", {"n": 2, "e": 1, "f": 0}),
    ],
)
def test_numeric_check_past_the_default_parameters(name, params):
    # another1/2 at n = 3, where n(n-1)/2 and n(n+1)/2 differ in parity; homog1
    # with r + s > 0, which builds its second family; pf_schur3 with e != f
    assert verify(name, params, "numeric", trials=3, seed=2024, bound=30).passed
    if name == "pf_schur3":
        # one pair per lambda in the 2n x (e + f) box; a smaller box drops pairs
        spec = REGISTRY[name]
        sc = {prefix: [Fraction(k + 2) for k in range(size)] for prefix, size in spec.vectors(params)}
        box = partitions_in_box(2 * params["n"], params["e"] + params["f"])
        assert len(spec.sides(params, sc, True)) == len(list(box))


@pytest.mark.parametrize(
    "name, cleared",
    [("cauchy", "det_with_denominators"), ("schur", "pfaffian_with_denominators")],
)
def test_symbolic_quotient_sides_build_the_core_after_the_left_side(name, cleared):
    # the cleared det/Pf returns before `_delta`, which builds the core, first runs
    order = []

    def returns(fn):
        def wrapper(*args):
            value = fn(*args)
            order.append("lhs")
            return value

        return wrapper

    def starts(fn):
        def wrapper(*args):
            order.append("core")
            return fn(*args)

        return wrapper

    with (
        mock.patch.object(identities, cleared, returns(getattr(identities, cleared))),
        mock.patch.object(identities, "_delta", starts(identities._delta)),
    ):
        assert verify(name, {"n": 2}, "symbolic").passed
    assert order[0] == "lhs" and order[1:] == ["core"] * (len(order) - 1) and len(order) > 1


def test_guard_exhaustion():
    spec = REGISTRY["cauchy"]
    REGISTRY["_guarded"] = dataclasses.replace(
        spec, name="_guarded", guards=lambda p, sc: [0]
    )
    try:
        with pytest.raises(GuardExhaustionError):
            verify("_guarded", {"n": 2}, "numeric", trials=1, seed=0)
    finally:
        del REGISTRY["_guarded"]


def test_zero_denominator_draw_is_redrawn_as_a_guard_would_be():
    # cauchy's numeric sides reject a draw with some x_i + y_j = 0 themselves;
    # the same denominators as guards accept the same draws, so with a right
    # side off by one the failure records, assignments included, agree
    spec = REGISTRY["cauchy"]
    rejected = []

    def off_by_one(params, sc, numeric):
        try:
            pairs = spec.sides(params, sc, numeric)
        except ZeroDenominatorError:
            rejected.append(sc)
            raise
        return [(lhs, rhs + 1) for lhs, rhs in pairs]

    def dens(params, sc):
        return [x + y for x in sc["x"] for y in sc["y"]]

    reports = []
    for guards in (None, dens):
        REGISTRY["cauchy"] = dataclasses.replace(spec, sides=off_by_one, guards=guards)
        try:
            report = verify("cauchy", {"n": 3}, "numeric", trials=4, seed=5, bound=1)
        finally:
            REGISTRY["cauchy"] = spec
        reports.append(reports_to_json([report]))
        assert len(report.failures) == 4
    assert rejected and all(0 in dens(None, sc) for sc in rejected)
    assert reports[0] == reports[1]


def test_trial_seeding_is_stable_and_splittable():
    spec = REGISTRY["special2"]
    params = resolve_params(spec, {"n": 2})
    a = _run_numeric_trial(spec, "special2", params, 9, 30, 5, 100)
    b = _run_numeric_trial(spec, "special2", params, 9, 30, 5, 100)
    assert a == b


def test_campaign_config_parsing():
    text = """
    # defaults
    seed = 7
    trials = 4

    [identity]
    name = cauchy
    mode = symbolic
    n = 2

    [identity]
    name = special2
    n = 2
    bound = 9
    """
    config = parse_campaign_config(text)
    assert len(config.blocks) == 2
    first, second = config.blocks
    assert first.name == "cauchy" and first.mode == "symbolic" and first.seed == 7
    assert second.mode == "numeric" and second.trials == 4 and second.bound == 9
    assert second.params == {"n": 2}
    with pytest.raises(ConfigError):
        parse_campaign_config("nonsense line")
    with pytest.raises(ConfigError):
        parse_campaign_config("[identity]\nmode = numeric\n")
    with pytest.raises(ConfigError):
        parse_campaign_config("wat = 3\n")
    with pytest.raises(ConfigError):
        parse_campaign_config("[identity]\nname = cauchy\nn = x\n")
    # a repeated key is an error, not a silent override
    with pytest.raises(ConfigError, match="line 3: repeated key 'name'"):
        parse_campaign_config("[identity]\nname = cauchy\nname = schur\nn = 2\n")
    with pytest.raises(ConfigError, match="line 4: repeated key 'n'"):
        parse_campaign_config("[identity]\nname = cauchy\nn = 2\nn = 3\n")
    with pytest.raises(ConfigError, match="line 2: repeated key 'seed'"):
        parse_campaign_config("seed = 1\nseed = 2\n[identity]\nname = cauchy\n")
    # the same key in the globals and in each block is no repeat
    config = parse_campaign_config(
        "seed = 1\n[identity]\nname = a\nseed = 2\n[identity]\nname = b\nseed = 3\n"
    )
    assert [b.seed for b in config.blocks] == [2, 3]


def test_empty_campaign():
    assert run_campaign(CampaignConfig([])) == []
    assert reports_to_json([]) == "[]\n"


def test_campaign_replay_is_byte_identical():
    config = CampaignConfig(
        [
            CampaignBlock("cauchy", "numeric", 5, 20, 123, {"n": 2}),
            CampaignBlock("schur", "symbolic", 1, 20, 123, {"n": 2}),
            CampaignBlock("minor_sum", "numeric", 3, 15, 123, {"n": 1, "N": 4}),
        ]
    )
    first = reports_to_json(run_campaign(config))
    second = reports_to_json(run_campaign(config))
    assert first.encode() == second.encode()
    payload = json.loads(first)
    assert [p["identity"] for p in payload] == ["cauchy", "schur", "minor_sum"]
    assert all(p["passed"] for p in payload)
    assert "elapsed" not in payload[0]


def test_campaign_parallel_matches_serial():
    config = CampaignConfig(
        [
            CampaignBlock("special2", "numeric", 4, 20, 5, {"n": 2}),
            CampaignBlock("cauchy", "symbolic", 1, 20, 5, {"n": 2}),
        ]
    )
    serial = reports_to_json(run_campaign(config, workers=1))
    parallel = reports_to_json(run_campaign(config, workers=2))
    assert serial == parallel


def test_default_campaign_config_covers_registry():
    config = default_campaign_config()
    names = {b.name for b in config.blocks}
    assert names == set(registry())
    modes = {b.mode for b in config.blocks}
    assert modes == {"symbolic", "numeric"}


def test_sign_exponents_cannot_hide():
    # signs of the form (-1)^{n(n-1)/2} checked at values of both parities:
    # symbolic cases cover n in {2,3} (odd exponent); these cover even exponent
    assert verify("main1", {"n": 4, "p": 0, "q": 0}, "numeric", trials=5, seed=1).passed
    assert verify("homog2", {"n": 4, "p": 0, "q": 0}, "numeric", trials=5, seed=1).passed
    assert verify("special1", {"n": 4}, "numeric", trials=5, seed=1).passed
    # rel_uw symbolic cases n=1 (even exponent) and n=2 (odd) are in the registry
    assert {case["n"] for case in REGISTRY["rel_uw1"].symbolic_cases} == {1, 2}
    assert {case["r"] for case in REGISTRY["minor_Dr"].symbolic_cases} == {1, 2, 3}


def test_rel_v1_parameter_sweep():
    for p, q in ((1, 0), (2, 1), (3, 2)):
        report = verify("rel_v1", {"p": p, "q": q}, "numeric", trials=10, seed=2, bound=30)
        assert report.passed, (p, q)


def test_rel_uv_nonzero_point_sweep():
    for p, q in ((1, 1), (2, 1), (1, 2)):
        assert verify("rel_uv1", {"p": p, "q": q}, "numeric", trials=10, seed=3).passed
        assert verify("rel_v2", {"p": p, "q": q}, "numeric", trials=10, seed=3).passed


def test_symbolic_size_cap():
    # every symbolic case of the default grid fits under the cap
    for name in registry():
        spec = REGISTRY[name]
        for case in symbolic_cases(spec):
            assert spec.main_dim(resolve_params(spec, dict(case))) <= SYMBOLIC_DIM_CAP, name
    with pytest.raises(InvalidParamsError):
        verify("schur", {"n": 5}, mode="symbolic")
    # numeric mode has no cap
    assert verify("schur", {"n": 5}, "numeric", trials=2, seed=0).passed


EXPECTED_KEYS = [
    "cauchy", "schur", "special1", "special2", "main1", "main2", "main3",
    "main4", "cauchy1", "schur1", "prop_n2", "rel_v1", "rel_v2",
    "det_dodgson", "pf_dodgson", "homog1", "homog2", "pf_det", "rel_uv1",
    "rel_uv2", "rel_uw1", "rel_uw2", "variation1", "variation2", "sundquist",
    "rel_fv", "rel_gh", "littlewood", "cauchy_binet", "minor_Dr", "minor_BC",
    "another1", "another2", "plucker", "plucker_vw", "special_pf",
    "special_hyppf", "hyper_v", "hyper_u", "compo", "det_schur", "pf_schur",
    "pf_schur2", "pf_schur3", "minor_sum",
]


def test_registry_census():
    assert registry() == EXPECTED_KEYS
    assert len(EXPECTED_KEYS) == 45


def test_staircase_dressings_degenerate_to_seeds():
    # empty staircases reduce the dressed identities to the classical seeds
    assert verify("cauchy1", {"n": 2, "k": 0, "zlen": 0}, "symbolic").passed
    assert verify("schur1", {"n": 2, "k": 0, "l": 0, "zlen": 0, "wlen": 0}, "symbolic").passed


def test_pf_schur2_is_pf_schur_without_row_offsets():
    params = dict(REGISTRY["pf_schur2"].numeric_defaults)
    vectors = REGISTRY["pf_schur2"].vectors(params)
    sc = {prefix: [Fraction(3 * k + 1, k + 2) for k in range(size)] for prefix, size in vectors}
    sides = REGISTRY["pf_schur2"].sides(params, sc, True)
    assert sides == REGISTRY["pf_schur"].sides({**params, "q": 0, "s": 0}, sc, True)
    assert sides[0][1] != 0


def test_palindromic_identities_even_parameters():
    # p even exercises the other parity of the palindromic-row reduction
    assert verify("main3", {"n": 2, "p": 2}, "numeric", trials=5, seed=9).passed
    assert verify("main4", {"n": 2, "p": 2, "q": 0}, "numeric", trials=5, seed=9).passed
    assert verify("another2", {"n": 2, "p": 2}, "numeric", trials=5, seed=9).passed


def test_prod_matches_left_fold():
    table = VariableTable(["x", "y"])
    x, y = table.gens()
    big = Fraction(3, 2**70 + 1)
    cases = [
        [],
        [2, 3],
        [Fraction(2, 3), 5, Fraction(-9, 4)],
        [big, -big, Fraction(7, 5)],
        [big, 0, Fraction(7, 5)],
        [x, Fraction(4, 2), y],
        [Fraction(1, 3), 6, x - y, Fraction(-3), x + 1],  # a Polynomial after rational factors
        [Fraction(1, 3), 4, (x - y) / 5, Fraction(3, 7), x + 1],  # and a Quotient
        [3, x * y, 0],
    ]
    for items in cases:
        want = reduce(mul, items, Fraction(1))
        got = _prod(iter(items))
        assert got == want and type(got) is type(want)


_POINTS = st.integers(-5, 5) | st.builds(
    Fraction,
    st.integers(-(2**70), 2**70),
    st.integers(1, 9) | st.integers(2**64 + 1, 2**70),
)


@given(xs=st.lists(_POINTS, max_size=7), data=st.data())
@settings(max_examples=100, deadline=None)
def test_rational_delta_matches_left_fold(xs, data):
    if xs and data.draw(st.booleans()):  # a repeated point makes the product 0
        xs.insert(data.draw(st.integers(0, len(xs))), data.draw(st.sampled_from(xs)))
    diffs = [xs[j] - xs[i] for i in range(len(xs)) for j in range(i + 1, len(xs))]
    want = reduce(mul, diffs, Fraction(1))
    got = _delta(xs)
    assert got == want and type(got) is Fraction


# quotient identities whose entries are plain formulas: (kind, num(sc, i, j), den(sc, i, j))
_QUOTIENT_ENTRIES = {
    "cauchy": ("det", lambda sc, i, j: 1, lambda sc, i, j: sc["x"][i] + sc["y"][j]),
    "special1": (
        "det",
        lambda sc, i, j: sc["b"][j] - sc["a"][i],
        lambda sc, i, j: sc["y"][j] - sc["x"][i],
    ),
    "schur": (
        "pf",
        lambda sc, i, j: sc["x"][j] - sc["x"][i],
        lambda sc, i, j: sc["x"][j] + sc["x"][i],
    ),
    "special2": (
        "pf",
        lambda sc, i, j: (sc["a"][j] - sc["a"][i]) * (sc["b"][j] - sc["b"][i]),
        lambda sc, i, j: sc["x"][j] - sc["x"][i],
    ),
    "sundquist": (
        "pf",
        lambda sc, i, j: sc["a"][j] - sc["a"][i],
        lambda sc, i, j: 1 - sc["x"][i] * sc["x"][j],
    ),
}


def _quotient_oracle(name, n, sc):
    """det or Pf of the Fraction matrix num/den times the product of the den, or None
    when a denominator is 0: the cleared left side that both modes compare."""
    kind, num, den = _QUOTIENT_ENTRIES[name]
    dim = n if kind == "det" else 2 * n
    pairs = [(i, j) for i in range(dim) for j in range(dim) if kind == "det" or i < j]
    dens = [Fraction(den(sc, i, j)) for i, j in pairs]
    if 0 in dens:
        return None
    entries = [num(sc, i, j) / d for (i, j), d in zip(pairs, dens)]
    if kind == "det":
        value = det_leibniz(RingMatrix(dim, dim, entries))
    else:
        value = pf_matchings(SkewMatrix(dim, dict(zip(pairs, entries))))
    return value * reduce(mul, dens, 1)


def _oracle_side(name, p, sc):
    """{index of each side an integer route computes: its Fraction oracle}.

    None for a quotient identity at a point where one of its denominators is 0.
    """
    if name in _QUOTIENT_ENTRIES:
        want = _quotient_oracle(name, p["n"], sc)
        return None if want is None else {0: want}
    if name == "hyper_v":
        return {0: hyper_v_by_ordered_partitions(p["n"], sc["x"], sc["a"])}
    if name == "hyper_u":
        return {0: hyper_u_by_ordered_partitions(p["n"], sc["x"], sc["y"], sc["a"], sc["b"])}
    if name == "special_hyppf":
        return {0: vandermonde_hyperpfaffian_by_ordered_partitions(p["n"], sc["x"])}
    n, nn = p["n"], p["N"]
    if name == "cauchy_binet":
        x, y = RingMatrix(n, nn, sc["x"]), RingMatrix(n, nn, sc["y"])
        a = RingMatrix(nn, nn, sc["a"])
        product = matmul(matmul(x, a), y.transpose())
        return {0: det_leibniz(product), 1: cauchy_binet_by_minors(x, a, y)}
    x, a = RingMatrix(2 * n, nn, sc["x"]), _skew_from(sc["a"], nn)
    product = matmul(matmul(x, a.to_matrix()), x.transpose())
    congruence = SkewMatrix.from_upper_function(2 * n, product.at)
    return {0: minor_sum_by_matchings(x, a), 1: pf_matchings(congruence)}


_SIDE_PARAMS = {
    "hyper_v": st.fixed_dictionaries({"n": st.sampled_from([2, 4, 6])}),
    "hyper_u": st.fixed_dictionaries({"n": st.sampled_from([2, 4])}),
    "special_hyppf": st.fixed_dictionaries({"n": st.just(2), "r": st.sampled_from([1, 2, 3])}),
    "cauchy_binet": st.integers(1, 2).flatmap(
        lambda n: st.fixed_dictionaries({"n": st.just(n), "N": st.integers(n, 4)})
    ),
    "minor_sum": st.integers(1, 2).flatmap(
        lambda n: st.fixed_dictionaries({"n": st.just(n), "N": st.integers(2 * n, 5)})
    ),
    **{name: st.fixed_dictionaries({"n": st.integers(1, 3)}) for name in _QUOTIENT_ENTRIES},
}


@pytest.mark.parametrize("name", sorted(_SIDE_PARAMS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_integer_route_side_matches_fraction_oracle(name, data):
    spec = REGISTRY[name]
    params = data.draw(_SIDE_PARAMS[name])
    sc = {
        prefix: data.draw(st.lists(_POINTS, min_size=count, max_size=count))
        for prefix, count in spec.vectors(params)
    }
    oracle = _oracle_side(name, params, sc)
    if oracle is None:
        with pytest.raises(ZeroDenominatorError):
            spec.sides(params, sc, True)
        return
    ((lhs, rhs),) = spec.sides(params, sc, True)
    for side, want in oracle.items():
        got = (lhs, rhs)[side]
        assert got == want and type(got) is Fraction
    assert lhs == rhs


@pytest.mark.parametrize(
    "name, params",
    [
        ("hyper_u", {"n": 2}),
        ("hyper_u", {"n": 4}),
        ("special_hyppf", {"n": 2, "r": 1}),
        ("special_hyppf", {"n": 2, "r": 2}),
    ],
)
def test_symbolic_hyperpfaffian_walk_matches_entrywise_oracle(name, params):
    # the prefix walk on polynomial entries against every entry built on its own
    spec = REGISTRY[name]
    _, sc = _build_symbolic_scalars(spec.vectors(params))
    ((lhs, _),) = spec.sides(params, sc, False)
    x = sc["x"]
    if name == "hyper_u":
        want = vandermonde_hyperpfaffian_by_entries(params["n"], x, sc["y"], sc["a"], sc["b"])
    else:
        ones = [1] * len(x)
        want = vandermonde_hyperpfaffian_by_entries(params["n"], ones, x, ones, [0] * len(x))
    assert isinstance(lhs, Polynomial) and lhs == want
    # only special_hyppf with more than one block vanishes
    assert bool(want) == (params.get("r", 1) == 1)


def test_quotient_side_with_zero_numerator_and_negative_denominators():
    third = Fraction(1, 3)
    cases = [
        # a_0 = a_1 makes Pf entry (0, 1) 0; x_2 - x_0 < 0
        ("special2", {"x": [1, third, Fraction(-5, 2), 2], "a": [4, 4, -1, third],
                      "b": [Fraction(2, 7), -3, 1, 5]}),
        # b_0 = a_0 makes det entry (0, 0) 0; y_0 - x_0 < 0
        ("special1", {"x": [1, 2], "y": [third, 5], "a": [Fraction(2, 7), -1],
                      "b": [Fraction(2, 7), 3]}),
        ("cauchy", {"x": [-1, Fraction(-7, 2)], "y": [Fraction(1, 2), 3]}),
        ("schur", {"x": [third, Fraction(-1, 2), Fraction(-5, 2), 2]}),
        ("sundquist", {"x": [2, 3, Fraction(1, 5), -1], "a": [1, 1, 0, 5]}),
    ]
    for name, sc in cases:
        n = len(sc["x"]) // (1 if _QUOTIENT_ENTRIES[name][0] == "det" else 2)
        want = _quotient_oracle(name, n, sc)
        assert want, name
        assert REGISTRY[name].sides({"n": n}, sc, True) == [(want, want)], name


def test_delta_on_repeated_and_polynomial_points():
    assert _delta([Fraction(1, 3), 2, Fraction(1, 3)]) == 0
    x, y = VariableTable(["x", "y"]).gens()
    assert _delta([x, Fraction(4, 2), y]) == (2 - x) * (y - x) * (y - 2)
    assert _delta([x / 2, Fraction(1, 2), y / 2]) == (1 - x) * (y - x) * (y - 1) / 8


# (family, its matrix builder, params, coordinates per point, tail length):
# V, W and U, each with and without a tail of fixed points
_POINT_FAMILIES = {
    "V tail": (_V, build_V, {"n": 3, "p": 1, "q": 2}, 2, 3),
    "V square": (_v_square, build_V, {"n": 3}, 2, 0),
    "W tail": (_W, build_W, {"n": 3, "p": 2}, 2, 2),
    "W": (_W, build_W, {"n": 3, "p": 0}, 2, 0),
    "U tail": (_family(_du, "p", "q"), build_U, {"n": 2, "p": 1, "q": 1}, 4, 2),
    "U": (_family(_du, "p", "q"), build_U, {"n": 2, "p": 0, "q": 0}, 4, 0),
}


def _entry_by_builder(f, build, params, u, v, tail):
    """det(build(sizes at k = 1, the rows of the points u, v and the tail points))."""
    vecs = [[u[c], v[c]] + [t[c] for t in tail] for c in range(len(u))]
    return det(build(*f.sizes(params, 1), *vecs))


def _coordinates(prefix, pts):
    """{prefix + c: the c-th coordinate of every point}."""
    return {f"{prefix}{c}": [pt[c] for pt in pts] for c in range(len(pts[0]))} if pts else {}


@pytest.mark.parametrize("case", sorted(_POINT_FAMILIES))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_point_table_entries_match_builder_determinants(case, data):
    f, build, params, coords, tail_len = _POINT_FAMILIES[case]
    n = params["n"]

    def points(count):
        point = st.lists(_POINTS, min_size=coords, max_size=coords)
        return [data.draw(point) for _ in range(count)]

    tail = points(tail_len)
    if tail_len >= 2 and data.draw(st.booleans()):
        tail[1] = tail[0]  # two equal tail points: every entry is 0
    us, vs, ws = points(n), points(n), points(2 * n)
    u_names, v_names = [f"u{c}" for c in range(coords)], [f"v{c}" for c in range(coords)]
    t_names = list(_coordinates("t", tail))
    sc = {**_coordinates("u", us), **_coordinates("v", vs), **_coordinates("t", tail)}
    # the n^2 entries are minors of one point table; the cores f_0 and f_n take
    # one minor each when the core is built
    with mock.patch.object(identities, "minors_int", wraps=identities.minors_int) as table:
        num, core = _theorem_det(f, u_names, v_names, t_names)(params, sc)
        core()
    assert sorted(len(c.args[1]) for c in table.call_args_list) == [1, 1, n * n]
    for i in range(n):
        for j in range(n):
            assert num(i, j) == _entry_by_builder(f, build, params, us[i], vs[j], tail)
            assert type(num(i, j)) is Fraction
    sc.update(_coordinates("u", ws))
    with mock.patch.object(identities, "minors_int", wraps=identities.minors_int) as table:
        entry, core = _pf_factor(f, u_names, t_names)(params, sc)
        core()
    assert sorted(len(c.args[1]) for c in table.call_args_list) == [1, 1, n * (2 * n - 1)]
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            assert entry(i, j) == _entry_by_builder(f, build, params, ws[i], ws[j], tail)
    if tail_len >= 2 and tail[0] == tail[1]:
        assert num(0, 0) == entry(0, 1) == 0


@given(p=st.integers(0, 3), q=st.integers(0, 3), data=st.data())
@settings(max_examples=30, deadline=None)
def test_point_determinants_at_rational_points_match_leibniz(p, q, data):
    m = p + q
    xs, ys, as_, bs = (data.draw(st.lists(_POINTS, min_size=m, max_size=m)) for _ in range(4))
    cases = [
        (_dv(p, q, xs, as_), build_V(p, q, xs, as_)),
        (_dw(m, xs, as_), build_W(m, xs, as_)),
        (_du(p, q, xs, ys, as_, bs), build_U(p, q, xs, ys, as_, bs)),
    ]
    for got, matrix in cases:
        assert got == det_leibniz(matrix) and type(got) is Fraction


def test_theorem_block_with_equal_tail_points_runs():
    # f_0(t) = 0 and every entry is 0, so both sides of main1 and main2 are 0
    pts = [Fraction(k, 7) for k in range(1, 9)]
    sc = {"x": pts[:2], "y": pts[2:4], "a": pts[4:6], "b": pts[6:8],
          "z": [Fraction(1, 3)] * 2, "c": [Fraction(-2, 5)] * 2}
    params = {"n": 2, "p": 1, "q": 1}
    assert REGISTRY["main1"].sides(params, sc, True) == [(0, 0)]
    sc.update({"x": pts[:4], "a": pts[4:], "b": pts[::-1][:4], "w": [Fraction(1, 3)] * 2,
               "d": [Fraction(-2, 5)] * 2})
    assert REGISTRY["main2"].sides({**params, "r": 1, "s": 1}, sc, True) == [(0, 0)]
