#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds the
vapb libraries and the benchmark in .bench_build/perfbench (Release); later
calls only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Traced runs write their spans
to .bench_build/traces/. The exit code is the benchmark's, or non-zero when
the build fails or the run exceeds its time limit.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("sweep_reps", "service_mix", "fleet_100k", "tenancy_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group and returns (exit code, stdout
    bytes). On timeout it kills the whole group, compilers included, waits
    for it and raises subprocess.TimeoutExpired."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        code, _ = run(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1

    os.makedirs(TRACES, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACES]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if code != 0:
        # The report of a failed run goes to stderr: stdout must not end in
        # a result line.
        sys.stderr.buffer.write(out)
        print("perfbench: exit code %d" % code, file=sys.stderr)
        return 1
    sys.stdout.buffer.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
