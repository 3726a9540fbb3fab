#!/usr/bin/env python3
"""Build kvbench from this checkout's sources and run one workload.

    python3 kvbench/run.py --workload sim-kv|cache-churn|serve-kv \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/kvbench under the checkout root (a Release
build of the kvbench target and the libraries it links; incremental after
the first run). Build output goes to stderr; the benchmark's stdout is passed
through, so its last line is the result object. Exits non-zero without a
result when the library sources are missing or the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "kvbench")
BINARY = os.path.join(BUILD, "kvbench")


def fail(message, code=2):
    print("kvbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    make = ["cmake", "--build", BUILD, "--target", "kvbench", "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed", 3)


def git_sha():
    """HEAD of the checkout, or "none" when it is not itself a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def source_digest():
    """SHA-256 over the library and benchmark sources, stable across checkouts."""
    h = hashlib.sha256()
    for top in ("src", "kvbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found next to kvbench/ (expected %s/src)" % ROOT)
    build()
    out_dir = os.path.join(BUILD, "spans")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY] + sys.argv[1:] + ["--git-sha", git_sha(), "--source-digest",
                                     source_digest(), "--out-dir", out_dir]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
