#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <mix-sim|scenario-replay|serve-mem|serve-wal> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the checkout root) and
then replaces this process, so its exit code and standard output are the
run's. Build output goes to standard error. Scratch files (trace files,
durable state, traced-run spans) go under .bench_work at the checkout
root.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The first build in a fresh checkout compiles every crate of the
# repository; later runs only check that the build is current.
BUILD_TIMEOUT_S = 850


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        sys.stderr.write(
            "perfbench: the repository's crates/ directory is missing next to "
            "perfbench/; run from a full checkout\n"
        )
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo reads the repository's .cargo/config.toml from the working
    # directory, so the benchmark builds with the repository's settings.
    build = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, preexec_fn=os.setpgrp)
    try:
        code = build.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(build.pid, signal.SIGKILL)
        build.wait()
        sys.stderr.write("perfbench: build timed out\n")
        return 1
    if code != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    binary = os.path.join(target, "release", "untangle-perfbench")
    args = [binary] + sys.argv[1:] + ["--work-dir", os.path.join(ROOT, ".bench_work")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
