#!/usr/bin/env python3
"""Build and run the trajkit serving benchmark.

One run:
    python3 servebench/run.py --workload district-motion --seed 1 --seconds 10 --trace 0

prints the harness log on stderr and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}.  --trace 1 runs the
traced variant and reports the per-layer metrics instead.

Steadiness mode repeats a workload over consecutive seeds and prints each
end-to-end metric's median, quartiles and whether its spread fits the bound
in BENCHMARK.json:
    python3 servebench/run.py --steady 10 --workload metro-miss [--seed 1] [--seconds 10]

Self-tests of the statistics and span code (C++ and this script's):
    python3 servebench/run.py --selftest

Run from the repository root.  The build lives in $CARGO_TARGET_DIR (default
.bench_build) under servebench/; working files and spans stay inside it.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configure once, then build `target` incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "common", "parallel.hpp")):
        log("servebench: no trajkit source tree at %s/src; nothing to benchmark" % ROOT)
        sys.exit(2)
    out = os.path.join(build_root(), "servebench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(out, target)


def source_id():
    """The commit when run from a git checkout, else a digest of src/."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()


def run_once(binary, workload, seed, seconds, trace, commit):
    """One benchmark run; returns (exit code, stdout text)."""
    rel_build = os.path.relpath(build_root(), ROOT)
    workdir = os.path.join(rel_build, "servebench-run", "%s-%d" % (workload, os.getpid()))
    traces = os.path.join(rel_build, "servebench-traces")
    os.makedirs(os.path.join(ROOT, traces), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir, "--commit", commit,
           "--trace-out", os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
    env = dict(os.environ)
    env.pop("TRAJKIT_THREADS", None)  # the harness sets every pool size itself
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        log("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 124, ""
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)


def quartiles(values):
    """(q1, median, q3) as the benchmark's steadiness check takes them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Quartile distance as a share of the median: (q3 - q1) / median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def steady(args, binary, commit):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {name: [] for name in metrics}
    seeds = list(range(args.seed, args.seed + args.steady))
    for seed in seeds:
        code, out = run_once(binary, args.workload, seed, args.seconds, 0, commit)
        if code != 0:
            log("servebench: seed %d failed with exit code %d" % (seed, code))
            return 1
        result = json.loads(out.strip().splitlines()[-1])
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        log("seed %d: %s" % (seed, ", ".join("%s=%.6g" % (n, values[n][-1]) for n in metrics)))
    print("workload %s, seeds %d..%d, %s s per run" % (args.workload, seeds[0], seeds[-1],
                                                      args.seconds))
    print("%-20s %12s %12s %12s %8s %6s %s" % ("metric", "q1", "median", "q3", "spread",
                                               "bound", "fits"))
    steady_ok = True
    for name, m in metrics.items():
        q1, med, q3 = quartiles(values[name])
        s = spread(values[name])
        fits = s <= m["bound"]
        steady_ok = steady_ok and fits
        print("%-20s %12.6g %12.6g %12.6g %8.4f %6.3f %s" % (
            name, q1, med, q3, s, m["bound"], "yes" if fits else "NO"))
    return 0 if steady_ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="repeat the workload over N consecutive seeds")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        native = subprocess.run([build("servebench_tests")], cwd=ROOT).returncode
        script = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                                 os.path.join(BENCH_DIR, "tests"), "-p", "test_*.py"],
                                cwd=ROOT).returncode
        return native or script
    if not args.workload:
        p.error("--workload is required")
    binary = build("servebench")
    commit = source_id()
    if args.steady:
        return steady(args, binary, commit)
    code, out = run_once(binary, args.workload, args.seed, args.seconds, args.trace, commit)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        log("servebench: %s failed with exit code %d" % (e.cmd[0], e.returncode))
        sys.exit(2)
