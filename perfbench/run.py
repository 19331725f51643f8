#!/usr/bin/env python3
"""Builds omq-perfbench from source and runs one workload of the benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 30 --trace 0

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run (spans go to perfbench/out/). Other modes pass through
to the binary:

    python3 perfbench/run.py --mode sweep --seed 1
    python3 perfbench/run.py --mode oracle --workload cold --seed 1
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary (release, offline) and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        fail("the repository's crates are missing; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed with exit code {proc.returncode}")
    return os.path.join(target, "release", "omq-perfbench")


def child(binary, args):
    """Runs the binary; echoes its comment lines; returns its last line."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"{' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(args)} printed nothing")
    for line in lines[:-1]:
        print(line)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--mode", default="run", choices=["run", "sweep", "oracle"])
    ap.add_argument("--workload", default="cold", choices=["cold", "hot", "mutate"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    a = ap.parse_args()

    binary = build()
    args = [a.mode, "--workload", a.workload, "--seed", str(a.seed)]
    if a.mode == "run":
        args += ["--seconds", str(a.seconds), "--trace", str(a.trace)]
    print(child(binary, args))


if __name__ == "__main__":
    main()
