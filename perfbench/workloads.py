"""The benchmark's workloads: their inputs, one repetition each, and the checks.

Every workload is a fixed list of operations.  `build(name, seed, quick,
expected)` makes the inputs; `run_once()` runs them all once and returns one
`Op` per operation, with its latency and whether its output was correct.

* campaign, campaign-w2: the built-in default grid (110 blocks), through
  `run_campaign` serially or with a 2-process pool.  An operation is one
  block; its latency is the block's `VerificationReport.elapsed`, which on
  the pool is the sum of the times its tasks took in the workers.
* numeric-large: 13 numeric blocks at larger parameters, serially.  Pure
  `Fraction` linear algebra and guard sampling, no `Polynomial`.
* schur-lr: in-process `detpf schur` and `detpf lr --rect --method all`
  calls.  An operation is one `cli.main` call, timed from outside.

The seed picks one of `SEED_TABLE` campaign seeds, `2024 + seed % SEED_TABLE`,
so that every input the benchmark can make has a recorded report digest in
expected.json.  schur-lr does not depend on the seed.  `--quick` swaps in the
smallest inputs; they are checked the same way.
"""

import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

from detpf import cli, harness
from detpf.harness import CampaignBlock, CampaignConfig
from detpf.symfunc import partitions_in_box

SEED_TABLE = 16
HOLDOUT_SEED = 15
TRIALS = 20
BOUND = 30
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Pfaffian dims 10-16 straddle the expansion/elimination switch at 14;
# cauchy_binet runs thousands of small rational Bareiss determinants.
NUMERIC_LARGE = (
    ("schur", {"n": 5}),
    ("schur", {"n": 6}),
    ("schur", {"n": 7}),
    ("schur", {"n": 8}),
    ("cauchy", {"n": 12}),
    ("special2", {"n": 5}),
    ("pf_det", {"n": 7}),
    ("main2", {"n": 3, "p": 2, "q": 1, "r": 1, "s": 2}),
    ("det_dodgson", {"n": 8}),
    ("cauchy_binet", {"n": 3, "N": 6}),
    ("hyper_v", {"n": 6}),
    ("sundquist", {"n": 4}),
    ("minor_sum", {"n": 3, "N": 8}),
)
NUMERIC_QUICK = (
    ("schur", {"n": 3}),
    ("cauchy", {"n": 3}),
    ("cauchy_binet", {"n": 2, "N": 3}),
    ("hyper_v", {"n": 2}),
)
QUICK_TRIALS = 3
CAMPAIGN_QUICK = ("cauchy", "pf_det", "rel_gh", "littlewood")

# Jacobi-Trudi is faster on [4,3,2,1] in 5 variables, the bialternant on
# [5,4,3,2,1] in 5 variables, so a change of default route shows either way.
SCHUR_SHAPES = (
    ("[3,2,1]", None, 4),
    ("[3,2,1]", None, 5),
    ("[4,3,2,1]", None, 4),
    ("[4,3,2,1]", None, 5),
    ("[5,4,3,2,1]", None, 4),
    ("[5,4,3,2,1]", None, 5),
    ("[4,3,2,1]", "[2,1]", 5),
    ("[5,4,3,2,1]", "[2,1]", 4),
)
LR_RECTANGLES = ((3, 2, 2), (4, 2, 1))
SCHUR_QUICK = (("[2,1]", None, 3), ("[2,1]", "[1]", 3))
LR_QUICK = ((1, 1, 1),)


@dataclass
class Op:
    ms: float  # None when the operation raised
    ok: bool


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def campaign_seed(seed):
    return 2024 + seed % SEED_TABLE


def size_key(quick):
    return "quick" if quick else "full"


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def campaign_config(workload, seed, quick):
    cseed = campaign_seed(seed)
    if workload == "numeric-large":
        blocks, trials = (NUMERIC_QUICK, QUICK_TRIALS) if quick else (NUMERIC_LARGE, TRIALS)
        return CampaignConfig(
            [CampaignBlock(name, "numeric", trials, BOUND, cseed, dict(p)) for name, p in blocks]
        )
    if quick:
        config = harness.default_campaign_config(seed=cseed, bound=BOUND, trials=QUICK_TRIALS)
        return CampaignConfig([b for b in config.blocks if b.name in CAMPAIGN_QUICK])
    return harness.default_campaign_config(seed=cseed, bound=BOUND, trials=TRIALS)


def schur_argv(shape, inner, nvars):
    argv = ["schur", "--shape", shape, "--vars", str(nvars)]
    return argv if inner is None else argv + ["--inner", inner]


def lr_calls(rectangles):
    """Every size-consistent (lambda, mu) for each (n, e, f): |lambda| = |mu| + n*f."""
    calls = []
    for n, e, f in rectangles:
        for lam in partitions_in_box(2 * n, e + f):
            for mu in partitions_in_box(n, e):
                if lam.size() == mu.size() + n * f:
                    calls.append((n, e, f, lam.text(), mu.text()))
    return calls


def lr_argv(n, e, f, lam, mu):
    return ["lr", "--rect", "--n", str(n), "--e", str(e), "--f", str(f),
            "--lambda", lam, "--mu", mu, "--method", "all"]


def lr_key(n, e, f, lam, mu):
    return f"{n},{e},{f}|{lam}|{mu}"


class CampaignWorkload:
    """campaign, campaign-w2 and numeric-large: one run_campaign call per repetition."""

    def __init__(self, name, seed, quick, expected):
        self.name = name
        self.workers = 2 if name == "campaign-w2" else 1
        self.config = campaign_config(name, seed, quick)
        group = "numeric-large" if name == "numeric-large" else "campaign"
        self.digest = expected[group][size_key(quick)][str(seed % SEED_TABLE)]
        self.reports = []

    def run_once(self):
        blocks = self.config.blocks
        try:
            reports = harness.run_campaign(self.config, workers=self.workers)
        except Exception:  # a library error fails the repetition, never the run
            self.reports = []
            return [Op(None, False) for _ in blocks]
        self.reports = reports
        # a report that is not byte-identical to the recorded one fails every block
        identical = len(reports) == len(blocks) and sha256(harness.reports_to_json(reports)) == self.digest
        return [Op(r.elapsed * 1e3, identical and r.passed) for r in reports]

    def pool_metrics(self, wall_s):
        busy = sum(r.elapsed for r in self.reports)
        # a symbolic block is one pool task; a numeric block is `trials` tasks
        # whose times run_campaign sums, so its mean task time is taken
        longest = max((r.elapsed / r.trials for r in self.reports), default=0.0)
        return {
            "harness.pool.busy_s": busy,
            "harness.pool.utilization": busy / (self.workers * wall_s) if wall_s else 0.0,
            "harness.pool.longest_task_s": longest,
        }


class SchurLrWorkload:
    """schur-lr: in-process CLI calls whose printed output is checked."""

    workers = 1

    def __init__(self, seed, quick, expected):
        recorded = expected["schur-lr"][size_key(quick)]
        shapes, rects = (SCHUR_QUICK, LR_QUICK) if quick else (SCHUR_SHAPES, LR_RECTANGLES)
        self.calls = []
        for shape, inner, nvars in shapes:
            argv = schur_argv(shape, inner, nvars)
            want = recorded["schur"][" ".join(argv)]
            self.calls.append((argv, lambda text, want=want: sha256(text) == want))
        for call in lr_calls(rects):
            want = f"{recorded['lr'][lr_key(*call)]}\n"
            self.calls.append((lr_argv(*call), lambda text, want=want: text == want))

    def run_once(self):
        ops = []
        for argv, check in self.calls:
            out = io.StringIO()
            start = time.perf_counter()
            try:
                code = cli.main(argv, out)
            except Exception:  # a library error fails the call, never the run
                ops.append(Op(None, False))
                continue
            ms = (time.perf_counter() - start) * 1e3
            ops.append(Op(ms, code == 0 and check(out.getvalue())))
        return ops

    def pool_metrics(self, wall_s):
        return {
            "harness.pool.busy_s": 0.0,
            "harness.pool.utilization": 0.0,
            "harness.pool.longest_task_s": 0.0,
        }


def build(name, seed, quick, expected):
    if name == "schur-lr":
        return SchurLrWorkload(seed, quick, expected)
    return CampaignWorkload(name, seed, quick, expected)
