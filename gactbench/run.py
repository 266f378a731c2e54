#!/usr/bin/env python3
"""Build and run the gact benchmark from the root of a checkout.

    python3 gactbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds gactbench/ (the gact library plus the program) into
$CARGO_TARGET_DIR, default .bench_build, then runs one workload. Build
output goes to stderr; the program's output, whose last line is the JSON
result, goes to stdout. Exits nonzero, printing no result, when the
build fails (for instance outside a checkout).
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The commit, or a digest of the library sources outside a git clone."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "gactbench",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        print("gactbench: build failed", file=sys.stderr)
        return 3
    cmd = [os.path.join(build_dir, "gactbench"), *sys.argv[1:],
           "--expected", os.path.join(HERE, "expected.txt"),
           "--commit", source_id(),
           "--results", os.path.join(ROOT, ".bench_results")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
