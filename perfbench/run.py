#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The benchmark (perfbench/src) is built
with dune into .bench_build/ (release profile, dune cache off, so nothing
is written outside the checkout); build output goes to stderr.  The
benchmark's own output, whose last line is the JSON result, goes to
stdout.  Without the repository's sources next to it the build cannot
succeed and this script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "src", "main.exe")
RUN_TIMEOUT_S = 170


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no dune-project and lib/ at %s; cannot build the program" % ROOT, file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR, "--profile", "release",
           "-j", "2", "./perfbench/src/main.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("perfbench: cannot run dune: %s" % e, file=sys.stderr)
        return 2
    return proc.returncode


def main(argv):
    rc = build()
    if rc != 0:
        print("perfbench: build failed (exit %d)" % rc, file=sys.stderr)
        return rc or 1
    sys.stdout.flush()
    try:
        proc = subprocess.run([EXE] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
