#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig10-mit --seed 1 --seconds 50 --trace 0

Workloads: fig10-mit and serve-200, the two BENCHMARK.json lists, and
city-10k, run by hand only (each in its own process, so peak RSS is the
workload's own). `--trace 0` prints the end-to-end metrics, `--trace 1`
the traced per-layer table. The last line of standard output is one
JSON object; the exit code is non-zero on a build failure or a
correctness mismatch. Build output goes to standard
error and to $CARGO_TARGET_DIR (default `.bench_build`).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def output(cmd):
    """Standard output of `cmd` run in the repository root, or None."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def commit():
    """The checked-out commit, marked `+dirty` when tracked files differ
    from it; "unknown" outside a git checkout of its own (git is not let
    to search the directories above the repository root)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    head = output(["git", "rev-parse", "--short=12", "HEAD"])
    if head is None:
        return "unknown"
    dirty = output(["git", "status", "--porcelain", "--untracked-files=no"])
    return head + ("+dirty" if dirty else "")


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    rustc = output([os.environ.get("RUSTC") or "rustc", "--version"]) or "rustc unknown"
    # Read at every run, so a reused build never reports a stale commit.
    env = dict(
        os.environ,
        CARGO_TARGET_DIR=target,
        PERFBENCH_RUSTC=rustc,
        PERFBENCH_COMMIT=commit(),
    )
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
        check=False,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "dtn-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
