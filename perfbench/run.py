#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload batch_text_7d --seed 1 \
        --seconds 10 --trace 0

Workloads: batch_text_7d, batch_columnar_7d, serve_hourly_7d. The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. Any further --name value pairs (--scale, --days,
--inject) go to the benchmark binary unchanged; the benchmark's own
tests use them for small corpora and fault injection.

The binary is built from ../src with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the repository root. Exits non-zero without
printing a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_text_7d", "batch_columnar_7d", "serve_hourly_7d")

# A run that takes longer than this is killed and counts as failed.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir, jobs):
    """Configures and builds the binary; returns its path or None. The
    configure step runs every time (about a second once configured), so a
    configure that failed before is not taken as done."""
    configure = ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return None
    compile_cmd = ["cmake", "--build", out_dir, "--target",
                   "logmine_perfbench", "-j", str(jobs)]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out_dir, "logmine_perfbench")


def thread_budget():
    """Executor workers such that workers + the calling thread + the
    serve workload's query client fit in the CPUs this process may use."""
    cpus = len(os.sched_getaffinity(0))
    return cpus, max(1, cpus - 2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    passthrough = []
    for i in range(0, len(extra), 2):
        if not extra[i].startswith("--") or i + 1 >= len(extra):
            parser.error(f"expected --name value pairs, got {extra[i:]}")
        passthrough.append(f"{extra[i]}={extra[i + 1]}")

    cpus, workers = thread_budget()
    out_dir = build_dir()
    binary = build(out_dir, cpus)
    if binary is None:
        log("build failed")
        return 1

    workdir = os.path.join(os.path.dirname(out_dir),
                           f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, LOGMINE_EXECUTOR_THREADS=str(workers))
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--workdir={workdir}"] + passthrough
    log(f"{cpus} CPUs usable, LOGMINE_EXECUTOR_THREADS={workers}")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout)
        log(f"binary exited {proc.returncode} without a result")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result.get("correct"):
        log("correctness gate failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
