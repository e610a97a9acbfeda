#!/usr/bin/env python3
"""The benchmark's own tests.

Usage, from the root of a checkout:

    python3 perfbench/test_mirror.py            # every test, about a minute
    python3 perfbench/test_mirror.py explore    # tests whose name contains "explore"

- Mirror drift: for each workload, run the gcs-cli commands one operation
  mirrors (as gcsbench --mirror lists them) and assert that what they print
  (events counts, CSV rows, verdict) equals the in-process operation's
  outputs, so the benchmark cannot silently stop measuring what a user's
  command does.
- Pinned digests: the run workloads' outcome digests at the default seed
  equal perfbench/pins.txt.
- A wrong pinned digest is reported as a failed operation (exit 1, a
  result with "correct": false), not a crash.
- In a tree holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build", "perfbench-test")
BENCH = os.path.join(ROOT, "_build", "default", "perfbench", "gcsbench.exe")
CLI = os.path.join(ROOT, "_build", "default", "bin", "gcs_cli.exe")
PINS = os.path.join(ROOT, "perfbench", "pins.txt")
# gcs-cli's own default seeds for each subcommand.
DEFAULT_SEED = {"run-ring": 42, "run-grid": 42, "sweep-store": 1000, "explore-prove": 1}


def sh(cmd, **kw):
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, **kw)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = sh(["dune", "build", "--root", ".", "./perfbench/gcsbench.exe",
               "./bin/gcs_cli.exe"], cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr


def mirror(workload):
    proc = sh([BENCH, "--mirror", "--workload", workload, "--seed",
               str(DEFAULT_SEED[workload]), "--out", OUT, "--pins", PINS], cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli(argv):
    proc = sh([CLI] + argv, cwd=ROOT)
    assert proc.returncode == 0, f"gcs-cli {' '.join(argv)}: {proc.stderr}"
    return proc


def pinned(workload, seed):
    with open(PINS) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 3 and parts[0] == workload and parts[1] == str(seed):
                return parts[2]
    return None


def check_run(workload):
    m = mirror(workload)
    out = cli(m["cli"][0]).stdout
    messages, events = map(int, re.search(r"messages / events : (\d+) / (\d+)", out).groups())
    assert (events, messages) == (m["events"], m["messages"]), (events, messages)
    assert out == m["summary"], "printed summary differs:\n" + out + "\nvs\n" + m["summary"]
    pin = pinned(workload, DEFAULT_SEED[workload])
    assert pin == m["digest"], f"pinned {pin}, mirror {m['digest']}"


def test_run_ring_mirror():
    check_run("run-ring")


def test_run_grid_mirror():
    check_run("run-grid")


def test_sweep_store_mirror():
    m = mirror("sweep-store")
    store = os.path.join(OUT, "cli-store")
    shutil.rmtree(store, ignore_errors=True)
    for phase in ("cold", "warm"):
        for i, argv in enumerate(m["cli"]):
            proc = cli(argv + ["--store", store, "-o", "-"])
            assert proc.stdout == m["csv"][i], f"{phase} pass {i}: CSV rows differ"
            s = m[phase][i]
            line = (f"store: {s['hits']} hits, {s['misses']} misses "
                    f"({s['fresh_dispatches']} fresh dispatches)")
            assert line in proc.stderr, f"{phase} pass {i}: {proc.stderr!r} lacks {line!r}"
    assert m["warm"][0]["misses"] == 0 and m["warm_identical"]
    shutil.rmtree(store)


def test_explore_prove_mirror():
    m = mirror("explore-prove")
    out = cli(m["cli"][0]).stdout
    visited, complete, frontier, events = map(int, re.search(
        r"states visited (\d+) \((\d+) complete\), pruned \d+, distinct \d+, "
        r"frontier high-water (\d+), (\d+) events monitored", out).groups())
    assert (visited, complete, frontier, events) == (
        m["states_visited"], m["executions"], m["frontier_high_water"],
        m["events_checked"]), out
    verdict = re.search(r"verdict: ([A-Z ]+?)(?: \(|$)", out, re.M).group(1)
    assert verdict == m["verdict"] == "PROVED", verdict


def test_wrong_pin_is_a_failure():
    pins = os.path.join(OUT, "wrong-pins.txt")
    with open(pins, "w") as f:
        f.write("run-ring 42 " + "0" * 32 + "\n")
    proc = sh([BENCH, "--workload", "run-ring", "--seed", "42", "--seconds", "1",
               "--trace", "0", "--out", OUT, "--pins", pins], cwd=ROOT)
    assert proc.returncode == 1, proc.returncode
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1, result
    assert result["attempted"] >= 3, result
    assert "differs from the pinned" in proc.stderr, proc.stderr
    assert "Fatal error" not in proc.stderr, proc.stderr


def test_bare_tree_fails_without_result():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    proc = sh([sys.executable, "perfbench/run.py", "--workload", "run-ring",
               "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)


def main():
    os.makedirs(OUT, exist_ok=True)
    build()
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and all(a in name for a in sys.argv[1:])]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}", flush=True)
        except AssertionError as e:
            failed += 1
            print(f"FAIL {name}: {e}", flush=True)
    print(f"{len(tests) - failed}/{len(tests)} passed")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
