#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <imagenet|cars> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that builds
against the workspace crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default .bench_build), then run with the given arguments.
Its last line of standard output is the JSON result; the exit code is the
benchmark's own (nonzero when the build fails or an output check fails).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "rescnn-perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
