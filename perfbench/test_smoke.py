#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at reduced scale.

Runs every workload of BENCHMARK.json untraced and traced with --smoke, and
asserts that each run passes its own correctness checks, fails no operation,
prints a host/build fingerprint, and reports exactly the declared metrics
with their declared units. Run from the repository root:

    python3 perfbench/test_smoke.py

Takes about a minute on 4 cores after the first build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc.returncode, proc.stdout, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s trace=%d" % (workload, trace)
            code, out, err = run(workload, trace)
            if code != 0:
                failures.append("%s: exit %d\n%s" % (label, code, err[-2000:]))
                continue
            lines = out.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if not any(l.startswith("# fingerprint ") for l in lines):
                problems.append("no fingerprint line")
            if got != want:
                problems.append("metrics/units differ from BENCHMARK.json %s" % section)
            if result["correct"] is not True:
                problems.append("correctness checks failed: %s" %
                                [l for l in lines if "CHECK FAILED" in l])
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append("attempted %d, failed %d" % (result["attempted"], result["failed"]))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-18s %s (%d ops)" % (label, status, result["attempted"]), flush=True)
            if problems:
                failures.append(label + ": " + "; ".join(problems))
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
