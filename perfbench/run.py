#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
remo library and the benchmark (perfbench/CMakeLists.txt) into
.bench_build/perfbench; later runs rebuild only what changed. Every run then
executes the benchmark's self-tests and the requested workload. Build output
goes to stderr; stdout carries the runner's report, whose last line is the
JSON result. A traced run (--trace 1) also writes its spans to
.bench_out/spans-<workload>-<seed>.json.

Exits non-zero when the build, the self-tests or the run fail, when the
run finds a wrong output (its result line then says "correct": false), or
when the result line is missing or malformed.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("grow-bfs-cc", "serve-mixed", "churn-pagerank")
TARGETS = ("perfbench", "perfbench_selftest")


def run(cmd, **kw):
    return subprocess.run(cmd, check=False, **kw).returncode


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run(["cmake", "-S", src, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", build_dir, "-j", jobs, "--target", *TARGETS],
               stdout=sys.stderr, stderr=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if build(root, build_dir) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if run([os.path.join(build_dir, "perfbench_selftest")]) != 0:
        print("perfbench: self-tests failed", file=sys.stderr)
        return 3

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            out_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        ok = set(json.loads(lines[-1])) == {"correct", "attempted", "failed",
                                             "metrics"}
    except (ValueError, TypeError):
        ok = False
    if proc.returncode != 0 or not ok:
        print("perfbench: run failed (exit %d%s)" % (
            proc.returncode, "" if ok else ", no result line"), file=sys.stderr)
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
