#!/usr/bin/env python3
"""Builds and runs the Eugene service benchmark.

    python3 service_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark (service_bench/CMakeLists.txt, which compiles the checkout's src/)
into .bench_build/ at the checkout root; later runs reuse that tree. A tree
configured for another source path is removed and rebuilt, so a copied or
moved checkout never builds against someone else's cache. Every run then
runs the oracle's own tests and the benchmark binary, whose last stdout line
is the JSON result. Build and benchmark logs go to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("closed_batch", "open_mixed", "live_pool")
RUN_TIMEOUT_S = 170
# Benchmark stderr kept: the head holds the host fingerprint and set-up
# figures, the tail the window summary and any failed checks.
STDERR_HEAD, STDERR_TAIL = 40, 60


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def configured_source(cache_path):
    """The source directory a CMake cache was configured for, or None."""
    try:
        with open(cache_path, encoding="utf-8", errors="replace") as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        return None
    return None


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isdir(BUILD):
        source = configured_source(cache)
        if source is None or os.path.realpath(source) != os.path.realpath(HERE):
            log("removing a build tree configured for %s" % source)
            shutil.rmtree(BUILD)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "service_bench", "oracle_test"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if result.returncode != 0:
            log("build step failed (%d): %s" % (result.returncode, " ".join(step)))
            return False
    return True


def forward_stderr(text):
    lines = text.splitlines()
    if len(lines) > STDERR_HEAD + STDERR_TAIL:
        omitted = len(lines) - STDERR_HEAD - STDERR_TAIL
        lines = (lines[:STDERR_HEAD] + ["... %d lines omitted ..." % omitted]
                 + lines[-STDERR_TAIL:])
    for line in lines:
        print(line, file=sys.stderr)
    sys.stderr.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no Eugene sources at %s; run from the root of a checkout" % ROOT)
        return 2
    if not build():
        return 1

    oracle = subprocess.run([os.path.join(BUILD, "oracle_test")], stdout=sys.stderr,
                            stderr=sys.stderr, check=False)
    if oracle.returncode != 0:
        log("the oracle's own tests failed")
        return 1

    command = [os.path.join(BUILD, "service_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        bench = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as expired:
        # subprocess.run kills the child and waits for it before raising.
        forward_stderr(expired.stderr.decode(errors="replace")
                       if isinstance(expired.stderr, bytes) else (expired.stderr or ""))
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    forward_stderr(bench.stderr)
    if bench.returncode != 0:
        log("benchmark exited with %d" % bench.returncode)
        return 1
    lines = bench.stdout.strip().splitlines()
    if not lines:
        log("benchmark printed no result")
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
