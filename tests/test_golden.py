"""Golden campaign digests.

SHA-256 of `reports_to_json` over three fixed block sets.  The reports carry
every failure record with its assignment, so a digest changes when the
random samples, the guard accept/reject decisions or any verdict change.
A refactor of the registry, the harness or the polynomial kernel must keep
every digest.

A large-parameter numeric digest covers the routes the default grid does not
reach: rational Pfaffians by elimination (dims 8-16), hyperpfaffians of order
6, and Cauchy-Binet and minor summation at N = 6 and 8.

A fifth digest pins the registry itself: every spec's declared fields, its
variable vectors and `main_dim` at each declared parameter set, and the
`detpf list` text.  The campaign digests cannot see a reordered vector list
or a changed `main_dim` as long as every block still passes.
"""

import hashlib
import io

from detpf.cli import main
from detpf.harness import (
    CampaignBlock,
    CampaignConfig,
    get_spec,
    reports_to_json,
    run_campaign,
    symbolic_cases,
)
from detpf.identities import registry

SEED = 2024
BOUND = 30

# every identity numerically at its numeric_defaults, 3 trials each
NUMERIC_DIGEST = "89cee3fc5e7c2370a094b803174bf68209f6f363547a7ec917802ed096ccafc6"
# every symbolic case of the default grid except main4, which has its own digest
SYMBOLIC_DIGEST = "b9ba6c4fdb4c78a87350905ad39f40490bea05d1cd84a4a1d38c8bf3ff286c1c"
# main4's default-grid symbolic case (n=2), recorded with the Fraction/tuple kernel
MAIN4_DIGEST = "718d10be258a75fda89be84e39523b473517d2332ba1a78a19936e129b37d6d3"
# numeric blocks at large parameters, 3 trials each
LARGE_NUMERIC_DIGEST = "ddebec160ddf67b7b7e94ddde41306a481189257e209cfaedbb7b5d1a0ba478b"
LARGE_NUMERIC = [("schur", {"n": n}) for n in range(4, 9)] + [
    ("special2", {"n": 5}),
    ("pf_det", {"n": 7}),
    ("sundquist", {"n": 4}),
    ("hyper_v", {"n": 6}),
    ("cauchy_binet", {"n": 3, "N": 6}),
    ("minor_sum", {"n": 3, "N": 8}),
]
# the registry's declarations and the `detpf list` text
SPEC_DIGEST = "df5748cab29e6f461257443032b0ad57a4ed85852469007162d4f57709abca8e"


def _digest(blocks):
    reports = run_campaign(CampaignConfig(blocks))
    assert all(r.passed for r in reports)
    return hashlib.sha256(reports_to_json(reports).encode("utf-8")).hexdigest()


def test_numeric_grid_digest():
    blocks = [
        CampaignBlock(name, "numeric", 3, BOUND, SEED, dict(get_spec(name).numeric_defaults))
        for name in registry()
    ]
    assert len(blocks) == 45
    assert _digest(blocks) == NUMERIC_DIGEST


def test_large_numeric_digest():
    blocks = [CampaignBlock(name, "numeric", 3, BOUND, SEED, dict(p)) for name, p in LARGE_NUMERIC]
    assert _digest(blocks) == LARGE_NUMERIC_DIGEST


def test_symbolic_grid_digest():
    blocks = [
        CampaignBlock(name, "symbolic", 1, BOUND, SEED, dict(case))
        for name in registry()
        if name != "main4"
        for case in symbolic_cases(get_spec(name))
    ]
    assert len(blocks) == 64
    assert _digest(blocks) == SYMBOLIC_DIGEST


def test_main4_symbolic_digest():
    blocks = [
        CampaignBlock("main4", "symbolic", 1, BOUND, SEED, dict(case))
        for case in symbolic_cases(get_spec("main4"))
    ]
    assert [b.params for b in blocks] == [{"n": 2, "p": 0, "q": 0}]
    assert _digest(blocks) == MAIN4_DIGEST


def test_spec_digest():
    lines = []
    for name in registry():
        spec = get_spec(name)
        lines.append(
            repr((spec.name, spec.summary, spec.defaults, spec.numeric_defaults, spec.symbolic_cases))
        )
        for params in (spec.defaults, spec.numeric_defaults, *spec.symbolic_cases):
            lines.append(repr((params, spec.vectors(dict(params)), spec.main_dim(dict(params)))))
    out = io.StringIO()
    assert main(["list"], out=out) == 0
    lines.append(out.getvalue())
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SPEC_DIGEST
