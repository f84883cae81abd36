#!/usr/bin/env python3
"""End-to-end benchmark of the CrowdLearn library (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload loop|serve|service --seed N \
        --seconds S --trace 0|1 [--smoke]

The first call configures and builds perfbench/ (which builds the library
from src/) in Release into .bench_build/perfbench; later calls only rebuild
what changed. The benchmark binary's context lines ("# ...", including the host
and build fingerprint) and its one-line JSON result are printed to stdout;
the result is checked against the metric names and units BENCHMARK.json
declares before it is printed. Build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "crowdlearn_perfbench")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next call.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def conforms(result, trace):
    """The result has exactly the declared keys, metric names and units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return "metrics differ: missing %s, extra %s, wrong unit %s" % (missing, extra, wrong)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted is %r" % result["attempted"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["loop", "serve", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced-scale inputs")
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write("\n".join(l for l in lines if l.startswith("#")) + "\n")
        print("perfbench: %s exited with %d" % (args.workload, proc.returncode), file=sys.stderr)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        problem = conforms(result, bool(args.trace))
    except (ValueError, KeyError, TypeError) as e:
        problem = "unreadable result (%s)" % e
    if problem:
        sys.stderr.write(proc.stdout)
        print("perfbench: %s: %s" % (args.workload, problem), file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
