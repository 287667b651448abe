#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the `dcs-perfbench` package (perfbench/Cargo.toml) in
release mode from the checkout's sources, then runs it with the given
arguments. Build output goes to standard error; the benchmark's own
output, whose last line is the JSON result, goes to standard output. The
build directory is `$CARGO_TARGET_DIR`, or `.bench_build` in the checkout
when that is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# Crates the benchmark builds against; without them there is nothing to
# measure.
REQUIRED = ["Cargo.toml", "crates/sim", "crates/cluster", "crates/store"]
# The simulator under test must not take longer than this per run.
RUN_TIMEOUT_S = 170


def main():
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: no simulator sources here (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target_dir = os.path.abspath(os.path.join(ROOT, env["CARGO_TARGET_DIR"]))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target_dir, "release", "dcs-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
