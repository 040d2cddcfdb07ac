#!/usr/bin/env python3
"""Builds tdbench from this checkout's sources and runs one workload.

    python3 tdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to .bench_build/ (or
$CARGO_TARGET_DIR when set) and is incremental, so only the first run of a
checkout compiles. The last line of stdout is the run's JSON result; the
exit code is the benchmark's own (0 only when every check held).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures and builds tdbench and tdmatch_serve; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        sys.exit("tdbench: no tdmatch sources next to %s; run from a full checkout" % HERE)
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", cmake_dir, "-j", jobs,
                     "--target", "tdbench", "tdmatch_serve"]):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.exit("tdbench: build failed (%s), see %s" % (" ".join(cmd[:2]), log_path))
    return (os.path.join(cmake_dir, "tdbench"),
            os.path.join(cmake_dir, "tdmatch", "tools", "tdmatch_serve"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build_imdb", "serve_ivf", "serve_exact_batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tdbench, serve_bin = build(build_dir)
    work_dir = os.path.join(build_dir, "work", "%s-%d-%s" % (args.workload, args.seed, args.trace))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [tdbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--serve-bin", serve_bin, "--work-dir", work_dir]
    sys.stdout.flush()
    rc = subprocess.call(cmd)
    # The snapshots of a run are large and are never read again.
    for name in os.listdir(work_dir):
        if name.endswith(".tds"):
            os.remove(os.path.join(work_dir, name))
    sys.exit(rc)


if __name__ == "__main__":
    main()
