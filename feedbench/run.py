#!/usr/bin/env python3
"""Build the feedbench package and run one workload.

    python3 feedbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The package builds against the repository's
crates by path, in release mode and offline, into $CARGO_TARGET_DIR (default
.bench_build). The build's output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Exits non-zero when the build
fails or a check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.getcwd(), ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("feedbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "feedbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
