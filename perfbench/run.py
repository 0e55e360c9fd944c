#!/usr/bin/env python3
"""Builds the whole-stack benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <paper|million|bergrid> \\
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) that
depends on the workspace crates by path; it is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build), then run single-threaded
(RAYON_NUM_THREADS=1: thread count changes no result, only the
schedule). The last line of standard output is the benchmark's JSON
result. A failed build or run exits non-zero without printing one.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# a run bounds itself; this only catches a hung process
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return build.returncode or 1
    env["RAYON_NUM_THREADS"] = "1"
    binary = os.path.join(target, "release", "comimo-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
