#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 10 --trace 0

Every argument is passed on to the perfbench binary (see README.md).
The binary is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench, relative to the repository root); the
first run compiles the simulator library, later runs only check that
the build is up to date. Build output goes to stderr, so the last line
on stdout is the benchmark's JSON result. With --trace 1 and no
--trace-out, the span file is written under the build directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build the perfbench binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def arg_value(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    exe = build()
    if arg_value(args, "--trace", "0") == "1" and "--trace-out" not in args:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (arg_value(args, "--workload", "none"),
                                   arg_value(args, "--seed", "1"))
        args += ["--trace-out", os.path.join(traces, name)]
    try:
        return subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
