#!/usr/bin/env python3
"""End-to-end benchmark of the Themis query server.

Run from the repository root:

    python3 wirebench/run.py --workload adhoc|hot|churn --seed N \
        --seconds S --trace 0|1

Builds the server (examples/themis_cli.cpp) and the wirebench program from
the repository's sources, then runs it. It generates the data (the same
for every seed) and the seed's request streams, serves them with a
separate server process, checks every answer and prints one JSON object
as the last line of standard output. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics. See wirebench/NOTES.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "wirebench")


def build():
    """Configures once, then builds the two targets; output goes to stderr."""
    for needed in ("CMakeLists.txt", "src", "examples"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write(f"wirebench: {needed} is missing from {ROOT}; "
                             "the benchmark builds the server from source\n")
            return None
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "wirebench", "themis_cli"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("wirebench: build failed: " + " ".join(step) + "\n")
            return None
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller runs for the smoke test; the benchmark itself uses defaults.
    parser.add_argument("--rows", type=int)
    args = parser.parse_args()

    out = build()
    if out is None:
        return 1
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "wirebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(out, "themis", "themis_cli"),
           "--work", work]
    if args.rows:
        cmd += ["--rows", str(args.rows)]
    # Its own process group, so a timeout stops wirebench and its server.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("wirebench: run timed out\n")
        code = 1
    spans = os.path.join(work, "spans.jsonl")
    if os.path.exists(spans):
        os.replace(spans, os.path.join(ROOT, ".bench_work",
                                       f"spans-{args.workload}.jsonl"))
    shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
