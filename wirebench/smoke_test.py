#!/usr/bin/env python3
"""Smoke test of the benchmark: all three workloads, untraced and traced,
at a tiny size, in well under a minute once built.

    python3 wirebench/smoke_test.py

Checks that each run exits 0, reports correct answers, and prints exactly
the metric names and units BENCHMARK.json declares (end_to_end for
--trace 0, per_layer for --trace 1). Exits non-zero on any mismatch.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    # churn is not in BENCHMARK.json (see NOTES.md) but still runs here.
    for workload in ("adhoc", "hot", "churn"):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--rows", "30000"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
            if result.get("correct") is not True or result["attempted"] < 1:
                problems.append(f"{label}: not correct: {lines[-1]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace]
                               and got[n] != expected[trace][n])
                problems.append(f"{label}: missing {missing}, extra {extra}, "
                                f"wrong units {wrong}")
            print(f"{label}: ok ({len(got)} metrics)")
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
