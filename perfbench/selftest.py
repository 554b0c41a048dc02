"""Self-test of the benchmark on its smallest inputs.

    python3 perfbench/selftest.py

Runs every workload with `--quick`, untraced and traced, and checks that:

* BENCHMARK.json is well formed and every declared metric is emitted, with
  its declared unit and a finite value, and no undeclared one;
* every metric name uses only letters, digits, `_`, `.` and `-`;
* every operation's output was correct;
* on each workload the per-layer self times sum to no more than the traced
  wall time;
* without the library sources next to it the benchmark exits non-zero and
  prints no result.

Exits 0 when every check holds, 1 otherwise.  Takes about half a minute.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec, problems):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    if len(names) != len(set(names)):
        problems.append("a metric or workload name is used twice")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(metric["name"]) or not UNIT.match(metric["unit"]):
            problems.append(f"bad name or unit: {metric}")
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"bad 'better': {metric}")
    for metric in spec["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            problems.append(f"bound out of range: {metric}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"]):
        problems.append("setup_s is not declared")


def run_quick(workload, trace, problems):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    if proc.returncode != 0:
        problems.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr.strip()}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace {trace}: {result['failed']} of {result['attempted']} failed")
    return result["metrics"]


def check_metrics(label, metrics, declared, problems):
    if set(metrics) != set(declared):
        problems.append(f"{label}: missing {sorted(set(declared) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, metric in metrics.items():
        if not NAME.match(name):
            problems.append(f"{label}: bad metric name {name!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} has no finite value")
        if name in declared and metric.get("unit") != declared[name]:
            problems.append(f"{label}: {name} unit {metric.get('unit')!r}, declared {declared[name]!r}")


def check_bare_directory(spec, problems):
    """Only BENCHMARK.json and the benchmark's own files: it must fail without a result."""
    bare = ROOT / ".bench_results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"][1:] + ["--workload", "schur-lr", "--seed", "0", "--seconds", "1",
                                     "--trace", "0"]
        proc = subprocess.run([sys.executable] + cmd, cwd=bare, capture_output=True, text=True,
                              timeout=180, check=False)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    check_spec(spec, problems)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        metrics = run_quick(workload, 0, problems)
        if metrics is not None:
            check_metrics(f"{workload} trace 0", metrics, end_to_end, problems)
        metrics = run_quick(workload, 1, problems)
        if metrics is not None:
            check_metrics(f"{workload} trace 1", metrics, per_layer, problems)
            self_sum = sum(m["value"] for k, m in metrics.items() if k.endswith(".self_s"))
            wall = metrics["trace.wall_s"]["value"]
            if self_sum > wall:
                problems.append(f"{workload}: self times sum to {self_sum} s > traced wall {wall} s")
        print(f"{workload}: checked", flush=True)
    check_bare_directory(spec, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
