#!/usr/bin/env python3
"""Build and run the DUST benchmark.

    python3 perfbench/run.py --workload hot_fleet --seed 42 --seconds 60 --trace 0

Run from the repository root. Builds the `dust-perfbench` package in this
directory against the workspace crates (release profile, offline) into
$CARGO_TARGET_DIR, default `.bench_build`, then runs it with the given
arguments. The last line of standard output is the result object; see
perfbench/README.md. Exits non-zero, printing no result, when the build
or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# glibc heap policy for the measured process: never return freed memory to
# the kernel and never serve large blocks with mmap. By default glibc moves
# its mmap threshold as blocks are freed and trims the heap, so how many
# fresh pages a repetition faults in depends on the repetitions before it,
# and on a shared virtual machine page faults are the noisiest part of a run.
MALLOC_POLICY = "glibc.malloc.trim_threshold=4294967295:glibc.malloc.mmap_threshold=4294967295"


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "dust-perfbench")
    env["GLIBC_TUNABLES"] = MALLOC_POLICY
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
