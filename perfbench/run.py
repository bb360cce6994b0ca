#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a nashlb checkout. The first run configures and
builds perfbench/ (which adds the repository's libraries as a subproject)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs rebuild incrementally. The oracle's own tests run before
the workload. The last line of standard output is the benchmark's JSON
result; build logs go to standard error. Traced runs (--trace 1) write their
spans and per-layer table under <build dir>/traces.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sh(cmd):
    """Runs a build step with its output on stderr; stops on failure."""
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"{cmd[0]} exited with {proc.returncode}")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} is not a nashlb checkout (no CMakeLists.txt/src)")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        sh(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
            *gen])
    jobs = str(min(4, os.cpu_count() or 1))
    sh(["cmake", "--build", build_dir, "-j", jobs])
    return build_dir


def main():
    build_dir = build()
    sh([os.path.join(build_dir, "oracle_test")])
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    proc = subprocess.run([os.path.join(build_dir, "perf_bench"),
                           *sys.argv[1:], "--out", trace_dir])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
