#!/usr/bin/env python3
"""Build and run the QUICsand sensor benchmark.

Usage, from the repository root:

    python3 sensorbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binaries from ../src with CMake into a directory under
$CARGO_TARGET_DIR (default .bench_build) named after this checkout's path,
so that two checkouts sharing one target directory never build or measure
each other's sources. Then runs one workload. --trace 0 runs `sensorbench`
and prints the end-to-end metrics; --trace 1 runs `sensorbench_traced`,
which links an allocation-counting operator new, and prints the per-layer
metrics. The last line of standard output is the run's JSON result; build
output goes to standard error. The exit code is the binary's: 1 when a
correctness or accounting check failed, 2 on bad arguments.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline_floods", "live_loopback")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", os.path.basename(HERE)):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("sensorbench: no QUICsand sources at " +
                 os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count()),
                    "--target", "sensorbench", "sensorbench_traced"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    checkout = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    build_dir = os.path.join(target_dir, "sensorbench-" + checkout)
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit("sensorbench: build failed: %s" % error)

    binary = "sensorbench_traced" if args.trace == "1" else "sensorbench"
    command = [os.path.join(build_dir, binary),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--work-dir", os.path.join(build_dir, "work"),
               "--commit", source_id()]
    sys.stdout.flush()
    # The binary replaces this process: its exit code is the result's, and
    # nothing is left running when it ends.
    os.execv(command[0], command)


if __name__ == "__main__":
    main()
