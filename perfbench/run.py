#!/usr/bin/env python3
"""Build and run the pf15 end-to-end benchmark.

    python3 perfbench/run.py --workload climate|hep_hybrid|hep_serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a pf15 checkout. The first call configures and builds
the library and the benchmark (Release) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls only re-check the build. The
benchmark's run record, and in traced runs its chrome trace, land in
<build>/out. The last line of standard output is the result object.
--self-test builds and runs the benchmark's own tests of its output checks.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", target,
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(bdir, target)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def validate(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    want = declared_metrics(trace)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        missing = set(want) - set(result["metrics"])
        extra = set(result["metrics"]) - set(want)
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(missing), sorted(extra))
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    # Every run starts from an empty conv plan cache and writes none.
    env = dict(os.environ, PF15_CONV_PLAN_CACHE="off")
    env.pop("PF15_TRACE", None)
    if args.self_test:
        test = build("perfbench_test_checks")
        sys.exit(subprocess.run([test], env=env).returncode)
    if not args.workload:
        ap.error("--workload is required")

    exe = build("pf15_perfbench")
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("perfbench: last line is not a result object")
    problem = validate(result, args.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("perfbench: " + problem)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
