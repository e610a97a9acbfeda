#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload run-ring --seed 1 --seconds 20 --trace 0

Builds perfbench/gcsbench.exe with dune (inside the checkout's _build),
runs it, and passes its standard output through; the last line is the
JSON result. Exits non-zero, without a result, when the tree holds no
buildable repository, and exits 1 when any operation's output check
failed. Scratch files (stores, spans, result files) go to .bench_build/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "gcsbench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def dune_env():
    env = dict(os.environ)
    # Keep dune's shared build cache out of the home directory.
    env["DUNE_CACHE"] = "disabled"
    env["DUNE_CACHE_ROOT"] = os.path.join(ROOT, ".bench_build", "dune-cache")
    return env


def build(target="./perfbench/gcsbench.exe"):
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} not found under {ROOT}: nothing to build")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune not found on PATH")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", target],
        cwd=ROOT, env=dune_env(), stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"run.py: dune build failed ({proc.returncode})")


def revision():
    """The git revision when there is one, plus a digest of the sources."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return f"{rev or 'nogit'}+src:{h.hexdigest()[:12]}"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT, "--rev", revision(),
           "--pins", os.path.join(ROOT, "perfbench", "pins.txt")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: gcsbench exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
