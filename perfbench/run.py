#!/usr/bin/env python3
"""Build and run the containment server benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the release `imin-serve` and the
benchmark package with cargo (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the benchmark, which starts the server as a child
process. Results land in `.bench_out/`; the last line of standard output is
the JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys


def main() -> int:
    # The benchmark builds the server from this checkout's sources.
    for needed in ("Cargo.toml", os.path.join("crates", "engine", "Cargo.toml")):
        if not os.path.isfile(needed):
            print(f"run.py: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet", "-p", "imin-engine", "--bin", "imin-serve"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ]
    for build in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(build), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "imin-perfbench"), *sys.argv[1:],
             "--server", os.path.join(release, "imin-serve")]
    return subprocess.run(bench, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
