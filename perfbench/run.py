#!/usr/bin/env python3
"""Build the TPP simulator benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload dc_probe --seed 1 --seconds 10 --trace 0

The benchmark is the Rust package next to this file. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build under the current
directory); then the binary runs with the same arguments. Build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "tpp-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
