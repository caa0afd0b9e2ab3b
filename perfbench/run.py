#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <seq_stream|rand_4k|case_study> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own that depends on the
simulator's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the same arguments. The
binary prints every metric with its unit and, as its last line, a JSON
object with `correct`, `attempted`, `failed` and `metrics`. Traced runs
write their host-time spans under `<target dir>/perfbench-out/`.

Exits with the build's status if the build fails (for example when the
simulator's crates are not there), else with the benchmark's status.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "snacc-perfbench")
    out = os.path.join(target, "perfbench-out")
    run = subprocess.run([exe, *sys.argv[1:], "--out", out], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
