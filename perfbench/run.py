"""detpf benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 30     # every workload, tables only
    python3 perfbench/selftest.py                            # quick self-test

Run from the repository root.  The library is imported from ./src; the
benchmark exits with code 2 when it is not there.

`--trace 0` measures the end-to-end metrics with nothing wrapped: set-up
time (median of SETUP_PROBES fresh interpreters that import detpf and build
the inputs), the median wall time of one repetition of the workload, the
median over repetitions of the p50 and p90 operation latency (Harrell-Davis
estimates), and the peak resident set size of this process and its
children.  Repetitions continue while the next one is expected to end
within `--seconds`; there is at least one.

`--trace 1` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (totals per repetition) together
with the tracing overhead; see tracer.py.

Every operation's output is checked against expected.json.  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  A results file with the environment record, and in trace
mode the spans, goes to .bench_results/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"
SETUP_PROBES = 5
WORKLOADS = ("campaign", "campaign-w2", "numeric-large", "schur-lr")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="detpf benchmark")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smallest inputs (self-test)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(args):
    """Child process: time importing detpf and building the inputs."""
    start = time.perf_counter()
    import workloads

    imported = time.perf_counter()
    expected = workloads.load_expected()
    built_from = time.perf_counter()
    workloads.build(args.workload, args.seed, args.quick, expected)
    done = time.perf_counter()
    print(json.dumps({"setup_s": (imported - start) + (done - built_from)}))
    return 0


def measure_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def percentile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    Operation latencies are spread unevenly (many small blocks, a few large
    ones), so the plain sample quantile jumps between neighbouring values
    when noise reorders them; the weighted mean moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule inside each order statistic's interval
    weights = []
    for i in range(n):
        total = 0.0
        for k in range(steps):
            u = (i + (k + 0.5) / steps) / n
            total += math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
        weights.append(total)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_metrics(reps):
    """Median over repetitions of each repetition's p50 and p90 latency, and the sample count."""
    p50s, p90s, samples = [], [], 0
    for ops in reps:
        ms = [op.ms for op in ops if op.ms is not None]
        samples += len(ms)
        if ms:
            p50s.append(percentile(ms, 0.5))
            p90s.append(percentile(ms, 0.9))
    if not p50s:
        return float("nan"), float("nan"), 0
    return statistics.median(p50s), statistics.median(p90s), samples


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed(workload):
    start = time.perf_counter()
    ops = workload.run_once()
    return time.perf_counter() - start, ops


def run_untraced(workload, seconds):
    walls, reps = [], []
    start = time.perf_counter()
    while True:
        wall, ops = timed(workload)
        walls.append(wall)
        reps.append(ops)
        if time.perf_counter() - start + wall > seconds:
            return walls, reps


def run_traced(workload, seconds):
    """Alternate untraced and traced repetitions; per-layer totals are per traced repetition."""
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, reps, pool = [], [], [], []
    start = time.perf_counter()
    while True:
        wall, ops = timed(workload)
        untraced.append(wall)
        reps.append(ops)
        with tracer:
            wall, ops = timed(workload)
        traced.append(wall)
        reps.append(ops)
        pool.append(workload.pool_metrics(wall))
        if time.perf_counter() - start + untraced[-1] + traced[-1] > seconds:
            return tracer, untraced, traced, reps, pool


def layer_metrics(tracer, untraced, traced, pool):
    from tracer import SPAN_NAMES

    n = len(traced)
    totals = tracer.layer_totals()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (totals[name]["calls"] / n, "count")
        metrics[f"{name}.self_s"] = (totals[name]["self_s"] / n, "s")
    metrics["poly.mul.term_pairs"] = (totals["poly.mul"]["term_pairs"] / n, "count")
    metrics["poly.mul.max_terms_out"] = (totals["poly.mul"]["max_terms_out"], "count")
    metrics["lr.schur_expand.peels"] = (totals["lr.schur_expand"]["peels"] / n, "count")
    counters = tracer.counters
    metrics["identities.sides.pairs"] = (counters["identities.sides.pairs"] / n, "count")
    metrics["identities.sides.vacuous_pairs"] = (counters["identities.sides.vacuous_pairs"] / n, "count")
    draws = counters["harness.draws"]
    metrics["harness.draws"] = (draws / n, "count")
    accepted = counters["harness.guard.accepted_draws"]
    metrics["harness.guard.accept_ratio"] = (accepted / draws if draws else 1.0, "ratio")
    for key in ("harness.pool.busy_s", "harness.pool.utilization", "harness.pool.longest_task_s"):
        metrics[key] = (statistics.fmean(p[key] for p in pool), "ratio" if key.endswith("utilization") else "s")
    traced_wall = statistics.fmean(traced)
    untraced_wall = statistics.fmean(untraced)
    self_sum = sum(totals[name]["self_s"] for name in SPAN_NAMES) / n
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["trace.coverage"] = (self_sum / traced_wall, "ratio")
    metrics["trace.spans"] = (len(tracer.spans) / n, "count")
    return metrics


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args):
    import workloads

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": args.seed,
        "campaign_seed": workloads.campaign_seed(args.seed),
        "holdout_seed": workloads.HOLDOUT_SEED,
        "seconds": args.seconds,
        "quick": args.quick,
    }


def run_workload(args):
    setup_s = None if args.trace else measure_setup(args)
    import workloads

    workload = workloads.build(args.workload, args.seed, args.quick, workloads.load_expected())
    record = {"workload": args.workload, "trace": args.trace, "environment": environment(args)}
    if args.trace:
        tracer, untraced, traced, reps, pool = run_traced(workload, args.seconds)
        metrics = layer_metrics(tracer, untraced, traced, pool)
        # totals over all traced repetitions, per identity
        record["traced_repetitions"] = len(traced)
        record["per_identity"] = {k: dict(v) for k, v in sorted(tracer.per_identity.items())}
        RESULTS_DIR.mkdir(exist_ok=True)
        spans_path = RESULTS_DIR / f"{result_stem(args)}.spans.jsonl"
        tracer.write_spans(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        walls, reps = run_untraced(workload, args.seconds)
        p50, p90, samples = latency_metrics(reps)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_ms.p50": (p50, "ms"),
            "op_ms.p90": (p90, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        record["walls_s"] = walls
        record["op_samples"] = samples
        record["op_ms"] = [[op.ms for op in ops] for ops in reps]
    attempted = sum(len(ops) for ops in reps)
    failed = sum(1 for ops in reps for op in ops if not op.ok)
    record.update(
        repetitions=len(reps),
        ops_per_repetition=len(reps[0]),
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    return record


def result_stem(args):
    return f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"


def print_table(record):
    print(f"# {record['workload']}: {record['repetitions']} repetitions x "
          f"{record['ops_per_repetition']} operations")
    for name, metric in record["metrics"].items():
        print(f"#   {name:<40} {metric['value']:.6g} {metric['unit']}")
    if "op_samples" in record:
        print(f"#   {'op_ms samples':<40} {record['op_samples']} count")
    print(f"#   {'fail_ratio':<40} {record['fail_ratio']:g} ratio "
          f"({record['failed']} of {record['attempted']} operations)")


def run_all(args):
    """Each workload in its own interpreter, so that peak RSS is per workload."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "detpf" / "__init__.py").is_file():
        print(f"error: no detpf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args)
    import detpf

    if Path(detpf.__file__).resolve().parent != SRC / "detpf":
        print(f"error: detpf imported from {detpf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    record = run_workload(args)
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"{result_stem(args)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_table(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
