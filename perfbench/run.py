#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The script builds perfbench/grbench.exe
and the host-speed reference perfbench/host_ref.exe from source with
dune into .bench_build (or $CARGO_TARGET_DIR), runs one
workload for the given number of seconds and passes its output through:
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every correctness check passed. perfbench/RATIONALE.md explains the
workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "check", "fleet-serve")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def revision():
    """The git revision when the checkout is a repository, else a digest of the sources."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return "git-" + head[:12]
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return "git-" + f.read().strip()[:12]
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return "git-" + parts[0][:12]
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    """Builds the benchmark executable; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no sources to build: run from a checkout that holds dune-project and lib/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    # Keep dune's cache and configuration inside the build directory.
    private = os.path.join(build_dir, "dune-home")
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(private, "cache"),
        XDG_CONFIG_HOME=os.path.join(private, "config"),
    )
    cmd = [
        "dune", "build", "--root", ROOT, "--build-dir", build_dir,
        "--profile", "release", "./perfbench/grbench.exe", "./perfbench/host_ref.exe",
    ]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr.fileno())
    except OSError as e:
        die(f"cannot run dune: {e}")
    if res.returncode != 0:
        die("build failed", 1)
    return os.path.join(build_dir, "default", "perfbench", "grbench.exe")


def main():
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    exe = build()
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--revision", revision(),
    ]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"workload did not finish within {RUN_TIMEOUT_S}s", 1)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    lines = res.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"no result line (exit code {res.returncode})", 1)
    if set(result) != RESULT_KEYS:
        die("malformed result line", 1)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
