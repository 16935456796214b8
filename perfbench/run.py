#!/usr/bin/env python3
"""Builds the Ocelot benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <archive_batch|daemon_mixed|fleet_sim> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds a Release tree under
$CARGO_TARGET_DIR (default .bench_build) in the repository root; later
calls only rebuild what changed. Build output goes to
<build>/perfbench-build.log, so the last line of stdout is always the
benchmark's JSON result. Spans of a traced run land in <build>/traces.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    log_path = os.path.join(build_root, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "ocelot_perfbench", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as done:
                    sys.stderr.write("".join(done.readlines()[-40:]))
                fail("build failed (see " + log_path + ")", 3)
    return os.path.join(build_dir, "ocelot_perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the library sources are not next to perfbench/; run from a "
             "full checkout", 2)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:] + ["--trace-dir", trace_dir])


if __name__ == "__main__":
    main()
