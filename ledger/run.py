#!/usr/bin/env python3
"""Performance ledger: builds the library and ledger_bench from source,
runs one workload in its own process and prints its metrics.

    python3 ledger/run.py --workload square|graph|serve|all --seed N \
        --seconds S --trace 0|1
    python3 ledger/run.py --self-test

Run from the repository root.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  `--workload
all` runs the three workloads one after another, each in its own process.

Every SPGEMM_* environment variable is removed before building and running
(they select shard budgets, engine pools, probe tiers, telemetry export,
fault injection and bench sizes, and would change what is measured).
OMP_* variables are passed through unchanged and recorded in the output.
Build output, spill files and traces stay under .bench_build/ at the
repository root.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("square", "graph", "serve")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("ledger: " + msg, file=sys.stderr)
    sys.exit(1)


def clean_env():
    env = dict(os.environ)
    removed = sorted(k for k in env if k.startswith("SPGEMM_"))
    for k in removed:
        del env[k]
    return env, removed


def build(env, targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("library sources not found in " + ROOT)
    build_dir = os.path.join(ROOT, ".bench_build", "ledger")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                 + targets)
    for cmd in steps:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return build_dir


def run_workload(build_dir, env, workload, seed, seconds, trace):
    """Runs one workload process; returns its parsed result line."""
    work_dir = os.path.join(build_dir, "work-%d-%s" % (os.getpid(), workload))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "ledger_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir]
    if trace:
        cmd += ["--trace-file", os.path.join(
            build_dir, "trace-%s-%d.json" % (workload, seed))]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail("%s exited with code %d" % (workload, r.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s printed a malformed result line" % workload)
    for line in lines[:-1]:
        print("[%s] %s" % (workload, line))
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the tests of the ledger's own code")
    args = p.parse_args()

    env, removed = clean_env()
    if args.self_test:
        build_dir = build(env, ["ledger_selftest"])
        r = subprocess.run([os.path.join(build_dir, "ledger_selftest")],
                           env=env)
        sys.exit(r.returncode)
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    build_dir = build(env, ["ledger_bench"])
    for k in removed:
        print("env removed %s" % k)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(build_dir, env, w, args.seed, args.seconds,
                               args.trace)
               for w in workloads}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, name): m
                        for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
