#!/usr/bin/env python3
"""Run one workload of the rrsim benchmark and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig11-deep --seed 12345 \
        --seconds 30 --trace 0

Builds the simulator library and the driver (perfbench.cpp) from source
into .bench_build/perfbench (incremental after the first run), then runs
the driver.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (a traced run also
writes its spans to .bench_build/spans/).  Build output goes to stderr.

End-to-end times are CPU time of the process scaled to a nominal host
speed by a calibration loop run between timed intervals (see
CalibratedClock in perfbench.cpp): on a shared host, wall time and even
plain CPU time of the same code differed by 20% to 3x between runs.

Workloads (BENCHMARK.json says why each was chosen):
  fig11-deep     exact fig11 grid on int_hash, which keeps the ROB full
  fig11-shallow  exact fig11 grid on int_sieve, int_crc and media_sobel,
                 whose window drains fast
  fig11-sampled  SMARTS-sampled fig11 grid on all 21 kernels

The seed is the sweep's core-seed base (wrong-path synthesis).  At the
default seed 12345 the exact results of every run are also compared with
perfbench/expected.tsv; a change meant to alter the timing model
re-records that file with

    .bench_build/perfbench/rrs_perfbench --record perfbench/expected.tsv
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_SECONDS = 900
RUN_SECONDS = 175


def run_checked(cmd, timeout, **kwargs):
    """Run cmd to completion and return its code.

    The child is killed and waited for if it outlives `timeout` or if
    this script is interrupted or terminated.
    """
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        if run_checked(cmd, BUILD_SECONDS, stdout=sys.stderr) != 0:
            return False
    return True


def main():
    # SIGTERM unwinds like Ctrl-C, so run_checked stops its child.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "rrs_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--expected", os.path.join(HERE, "expected.tsv")]
    if args.trace == "1":
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.json")]
    # The simulator reads RRS_* variables (threads, auditing, trace
    # spill, profiling); none may change what the benchmark measures.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RRS_")}
    sys.stdout.flush()
    return run_checked(cmd, RUN_SECONDS, env=env)


if __name__ == "__main__":
    sys.exit(main())
