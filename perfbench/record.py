"""Record the outputs the benchmark checks against, into expected.json.

    python3 perfbench/record.py

Run it only on a commit whose outputs are known good.  It refuses to write
anything unless every output was confirmed by an independent route:

* campaign: every block PASSes, and the report JSON of the serial run and
  the 2-worker run are byte-identical; their SHA-256 is recorded.
* numeric-large: every block PASSes; the report digest is recorded.
* schur-lr: each `detpf schur` polynomial equals the bialternant route
  (skew shapes: the sum over nu of c^lambda_{mu,nu} s_nu by the
  bialternant), then the digest of the printed text is recorded; each LR
  value agrees across the oracle, the Pfaffian and the theorem routes.

All of this is done for every seed of the seed table and for both the full
and the quick inputs.  It takes several minutes.
"""

import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from detpf import cli, harness, lr  # noqa: E402
from detpf.poly import Polynomial, VariableTable  # noqa: E402
from detpf.symfunc import (  # noqa: E402
    Partition,
    SkewShape,
    partitions_in_box,
    schur_bialternant,
    schur_jacobi_trudi,
)

import workloads as W  # noqa: E402


def campaign_digest(workload, seed, quick):
    config = W.campaign_config(workload, seed, quick)
    reports = harness.run_campaign(config, workers=1)
    if not all(r.passed for r in reports):
        raise SystemExit(f"{workload} seed {seed}: a block failed")
    text = harness.reports_to_json(reports)
    if workload == "campaign":
        parallel = harness.reports_to_json(harness.run_campaign(config, workers=2))
        if parallel != text:
            raise SystemExit(f"campaign seed {seed}: serial and 2-worker reports differ")
    return W.sha256(text)


def _bialternant_or_zero(lam, gens, table):
    if lam.length() > len(gens):
        return Polynomial.zero(table)
    return schur_bialternant(lam, gens)


def independent_schur(shape, inner, nvars):
    table = VariableTable()
    table.add_vector("x", nvars)
    gens = table.gens()
    outer = Partition.from_text(shape)
    if inner is None:
        return table, gens, _bialternant_or_zero(outer, gens, table)
    mu = Partition.from_text(inner)
    total = Polynomial.zero(table)
    size = outer.size() - mu.size()
    for nu in partitions_in_box(size, size):
        if nu.size() == size:
            c = lr.lr_bruteforce(outer, mu, nu)
            if c:
                total = total + c * _bialternant_or_zero(nu, gens, table)
    return table, gens, total


def record_schur_lr(quick):
    shapes, rects = (W.SCHUR_QUICK, W.LR_QUICK) if quick else (W.SCHUR_SHAPES, W.LR_RECTANGLES)
    schur = {}
    for shape, inner, nvars in shapes:
        table, gens, want = independent_schur(shape, inner, nvars)
        outer = Partition.from_text(shape)
        jt = schur_jacobi_trudi(
            outer if inner is None else SkewShape(outer, Partition.from_text(inner)), gens
        )
        if not isinstance(jt, Polynomial):
            jt = Polynomial.const(table, jt)
        if jt != want:
            raise SystemExit(f"schur {shape}/{inner} in {nvars} vars: routes disagree")
        argv = W.schur_argv(shape, inner, nvars)
        out = io.StringIO()
        if cli.main(argv, out) != 0 or out.getvalue() != f"{jt.text()}\n":
            raise SystemExit(f"{' '.join(argv)}: CLI output differs from the checked polynomial")
        schur[" ".join(argv)] = W.sha256(out.getvalue())
    values = {}
    for n, e, f, lam_text, mu_text in W.lr_calls(rects):
        lam, mu = Partition.from_text(lam_text), Partition.from_text(mu_text)
        routes = {
            lr.lr_bruteforce(lam, mu, Partition.box(n, f)),
            lr.lr_via_pfaffian(lam, n, e, f, mu),
            lr.lr_rectangle_theorem(lam, n, e, f, mu),
        }
        if len(routes) != 1:
            raise SystemExit(f"lr {n},{e},{f} {lam_text} {mu_text}: routes disagree {routes}")
        values[W.lr_key(n, e, f, lam_text, mu_text)] = routes.pop()
    return {"schur": schur, "lr": values}


def main():
    expected = {"campaign": {}, "numeric-large": {}, "schur-lr": {}}
    for quick in (True, False):
        size = W.size_key(quick)
        for group in ("campaign", "numeric-large"):
            expected[group][size] = {}
            for seed in range(W.SEED_TABLE):
                expected[group][size][str(seed)] = campaign_digest(group, seed, quick)
                print(f"{group} {size} seed {seed} ok", flush=True)
        expected["schur-lr"][size] = record_schur_lr(quick)
        print(f"schur-lr {size} ok", flush=True)
    with open(W.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
