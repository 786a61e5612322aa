#!/usr/bin/env python3
"""The repository benchmark (see mbebench/README.md).

Builds the pmbe library, the pmbe_serve daemon and the benchmark binary
from the sources next to this directory in Release mode, then runs one
workload:

    python3 mbebench/run.py --workload tuned_parallel --seed 1 --seconds 30 --trace 0

The last line of stdout is the run's JSON result. The workloads and the
default --seconds come from BENCHMARK.json at the repository root. With
--report it instead runs one workload --runs times at --seed (or at seeds
--seed+1.. with --vary-seeds), tracing off, and prints each end-to-end
metric's median, quartiles and spread next to its bound, then makes one
traced run and prints the tracing overhead.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("mbebench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark and the daemon."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the pmbe sources are not next to " + HERE)
    out = build_dir()
    try:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", out, "--target", "mbebench",
                        "pmbe_serve_bin", "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)
    return out


def run_once(out, workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns its stdout lines and result."""
    cmd = [os.path.join(out, "mbebench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--serve-bin", os.path.join(out, "pmbe", "tools", "pmbe_serve"),
           "--run-dir", os.path.relpath(out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with status %d" % (workload, proc.returncode))
    try:
        return lines, json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)


def report(out, spec, args):
    """Steadiness report: spreads over repeated runs, tracing overhead."""
    values = {}
    failed = attempted = 0
    for run in range(1, args.runs + 1):
        seed = args.seed + run if args.vary_seeds else args.seed
        _, result = run_once(out, args.workload, seed, args.seconds, 0)
        failed += result["failed"]
        attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            file=sys.stderr)
    print("%s: %d runs, error_rate %.6f (%d / %d)" % (
        args.workload, args.runs, failed / max(attempted, 1), failed,
        attempted))
    print("%-16s %-5s %12s %12s %12s %8s %6s" % (
        "metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        spread = (q3 - q1) / median if median else float("inf")
        verdict = "ok" if spread <= metric["bound"] / 3 else (
            "within" if spread <= metric["bound"] else "WIDE")
        print("%-16s %-5s %12.6g %12.6g %12.6g %8.4f %6.3f %s" % (
            metric["name"], metric["unit"], median, q1, q3, spread,
            metric["bound"], verdict))
    _, traced = run_once(out, args.workload, args.seed, args.seconds, 1)
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    overhead = m["trace.replay_s"] - m["trace.untraced_s"]
    print("tracing overhead: traced replay %.4f s - untraced %.4f s = "
          "%+.4f s (%+.2f%%); traced layers cover %.2f%% of traced session "
          "wall" % (m["trace.replay_s"], m["trace.untraced_s"], overhead,
                    100 * overhead / m["trace.untraced_s"],
                    100 * m["trace.coverage"]))


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 = the registry seeds)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="minimum measured window per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1 = traced run with per-layer metrics")
    parser.add_argument("--report", action="store_true",
                        help="steadiness report over --runs runs")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--vary-seeds", action="store_true",
                        help="report mode: a new seed per run instead of "
                        "repeating --seed")
    args = parser.parse_args()
    out = build()
    if args.report:
        report(out, spec, args)
        return
    lines, _ = run_once(out, args.workload, args.seed, args.seconds,
                        args.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
