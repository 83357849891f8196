#!/usr/bin/env python3
"""Build and run the incll benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds `perfbench/` (a CMake package that
pulls in the incll library from `src/`) into `.bench_build/` at the
repository root; later calls only re-check the build. The benchmark's
own output is passed through: its last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Build output goes
to stderr. Result and span files land in `perfbench-results/`.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

START = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(ROOT, "perfbench-results")
# The whole run, build included, stays inside this many seconds.
DEADLINE_S = 170.0
BUILD_DEADLINE_S = 880.0


def build():
    """Configure (once) and build the benchmark; returns the bin dir."""
    jobs = str(max(1, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        left = BUILD_DEADLINE_S - (time.monotonic() - START)
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=max(1.0, left), env=env)
    return BUILD


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the checker's own failure-detection test")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        bindir = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    if args.selftest:
        cmd = [os.path.join(bindir, "perfbench_selftest")]
    else:
        os.makedirs(RESULTS, exist_ok=True)
        cmd = [os.path.join(bindir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", RESULTS]
    # A build may have used most of the first run's time; the run itself
    # always gets the full deadline.
    proc = subprocess.Popen(cmd)

    def stop(signum, _frame):
        # Stopping this script stops the benchmark with it.
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded its deadline", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
