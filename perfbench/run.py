#!/usr/bin/env python3
"""Workload benchmark for leosim.

Builds the library and the benchmark driver from source into .bench_build
at the repository root, runs one workload in its own process, checks its
outputs and prints one JSON object as the last line of stdout:

    python3 perfbench/run.py --workload churn_10s --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (see perfbench/README.md). Output checks: the driver's own
(paper shape claims, trace replay validation, repeatability, thread-count
and replay invariance) plus golden digests for the default and held-out
seeds. The run exits 1 when any check fails, 2 on a usage or source-tree
error.

goldens.json holds the digests for the default and held-out seeds. When a
change moves the outputs on purpose, edit it by hand from the "got X, want
Y" lines a failing run prints.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 1

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
DRIVER = BUILD_DIR / "perfbench_driver"
GOLDENS = BENCH_DIR / "goldens.json"
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"leosim sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def run_driver(args):
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.perturb:
        cmd.append("--perturb")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}",
             2 if proc.returncode == 2 else 1)
    return json.loads(lines[-1])


def load_goldens():
    try:
        return json.loads(GOLDENS.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {GOLDENS}: {e}", 1)


def golden_checks(result, goldens):
    workload = result["workload"]
    expected = goldens.get(workload, {}).get(str(result["seed"]))
    if expected is None:
        return []
    checks = []
    for name, digest in sorted(expected.items()):
        ok = result["digests"].get(name) == digest
        if not ok:
            print(f"perfbench: golden {workload}/{result['seed']}/{name}: "
                  f"got {result['digests'].get(name)}, want {digest}",
                  file=sys.stderr)
        checks.append({"name": f"golden_{name}", "ok": ok})
    return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="move one output value by one ulp (self-check)")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build()
    result = run_driver(args)
    checks = result["checks"] + golden_checks(result, load_goldens())
    attempted = len(checks)
    failed = sum(1 for c in checks if not c["ok"])
    reported = dict(result["metrics"])
    reported["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in reported:
            fail(f"driver did not report {m['name']}", 1)
        metrics[m["name"]] = {"value": reported[m["name"]]["value"],
                              "unit": m["unit"]}
    print(f"# checks: {attempted - failed}/{attempted} passed"
          + "".join(f"; FAILED {c['name']}" for c in checks if not c["ok"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
