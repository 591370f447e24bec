#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload augment|reason|serve|all \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. It configures and builds the perfbench
package (perfbench/CMakeLists.txt, which compiles the repository's src/)
into .bench_build/perfbench, then runs the benchmark binary. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
The traced run (--trace 1) writes its span list to .bench_build/trace/.
Everything it writes stays under .bench_build/.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd), 3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (expected src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # One build at a time per checkout.
    with open(os.path.join(OUT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_quiet(cmd, env)
        run_quiet(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                   "--target", "perfbench", "perfbench_selftest"], env)


def run(cmd):
    """Runs the benchmark binary with stdout passed through."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S, 4)
    return 4


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec):
        fail("BENCHMARK.json not found at the checkout root")
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    build()
    if args.self_test:
        sys.exit(run([os.path.join(BUILD, "perfbench_selftest"), spec]))
    trace_dir = os.path.join(OUT, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    sys.exit(run([os.path.join(BUILD, "perfbench"),
                  "--workload", args.workload,
                  "--seed", str(args.seed),
                  "--seconds", repr(args.seconds),
                  "--trace", str(args.trace),
                  "--benchmark-json", spec,
                  "--trace-dir", trace_dir]))


if __name__ == "__main__":
    main()
