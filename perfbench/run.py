#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the repository. Configures an optimized (Release)
build of perfbench/ -- which compiles the repository's src/ libraries --
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs the benchmark program (perfbench/main.cc). Its last line of
standard output is the JSON result. Build output goes to standard
error. Run outputs (the sweep stores and the traced run's span file) go
to .perfbench_out/. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"


def build(target):
    """Configure (once) and build @p target; returns the build dir."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir


def main(argv):
    try:
        if argv == ["--self-test"]:
            build_dir = build("perfbench_selftest")
            return subprocess.run(
                [os.path.join(build_dir, "perfbench_selftest")]).returncode
        build_dir = build("perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    return subprocess.run([os.path.join(build_dir, "perfbench"), *argv,
                           "--out-dir", OUT_DIR]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
