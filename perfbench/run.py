#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload verify-b1 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 24      # every workload, untraced
    python3 perfbench/run.py --selftest --workload toolchain --seed 1 --seconds 24

It builds the benchmark program (perfbench/zbench.ml) and the `zaatar` CLI
with dune, runs the program and relays its output; the last line of a
single-workload run is one JSON object. --selftest makes two traced runs
with the same seed and fails unless every count metric is identical.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["verify-b1", "prove-b16", "farm-mixed", "toolchain"]
ZBENCH = "_build/default/perfbench/zbench.exe"
ZAATAR = "_build/default/bin/zaatar_cli.exe"
OUT = os.path.join("perfbench", "out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Units whose values a seed fixes exactly (the self-test compares them).
EXACT_UNITS = {"count", "bytes", "words"}
# Counts that depend on how long a run lasted, not on the seed.
RUN_LENGTH_COUNTS = {"trace.ops", "farm.errors", "farm.shed"}

child = None


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def stop_child(*_):
    """Stop zbench's whole process group (it may have a farm server)."""
    if child is not None and child.poll() is None:
        for sig, wait in ((signal.SIGTERM, 5), (signal.SIGKILL, 5)):
            try:
                os.killpg(child.pid, sig)
            except ProcessLookupError:
                break
            try:
                child.wait(timeout=wait)
                break
            except subprocess.TimeoutExpired:
                continue


def on_signal(signum, _frame):
    stop_child()
    sys.exit(128 + signum)


def check_tree():
    needed = ["dune-project", "lib", "bin/zaatar_cli.ml", "examples/matmul.zl", "perfbench/dune"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing), 2)
    if shutil.which("dune") is None:
        fail("dune is not on PATH", 2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/zbench.exe", "./bin/zaatar_cli.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)


def run_zbench(workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (stdout lines, parsed result)."""
    global child
    os.makedirs(OUT, exist_ok=True)
    cmd = [ZBENCH, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", OUT, "--zaatar", ZAATAR]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_child()
        fail("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        stop_child()
    lines = out.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if child.returncode != 0:
        fail("%s: zbench exited with %d" % (workload, child.returncode))
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("%s: last line is not a JSON result" % workload)
    return lines, result


def selftest(workload, seed, seconds):
    runs = [run_zbench(workload, seed, seconds, True, echo=False)[1] for _ in range(2)]
    exact = lambda r: {k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] in EXACT_UNITS and k not in RUN_LENGTH_COUNTS}
    a, b = exact(runs[0]), exact(runs[1])
    bad = [k for k in a if a[k] != b.get(k)]
    for k in sorted(a):
        print("  %-28s %16s %16s%s" % (k, a[k], b.get(k), "  MISMATCH" if k in bad else ""))
    ok = not bad and all(r["correct"] for r in runs)
    print("self-test %s: %d exact metrics, %d mismatch(es)" % (
        "OK" if ok else "FAILED", len(a), len(bad)))
    return 0 if ok else 1


def run_all(seed, seconds):
    rows = []
    for w in WORKLOADS:
        _, r = run_zbench(w, seed, seconds, False)
        rows.append((w, r))
    print("\n%-12s %-10s %-8s %s" % ("workload", "correct", "failed", "metrics"))
    for w, r in rows:
        ms = "  ".join("%s=%.4g %s" % (k, v["value"], v["unit"]) for k, v in r["metrics"].items())
        print("%-12s %-10s %-8s %s" % (w, r["correct"], "%d/%d" % (r["failed"], r["attempted"]), ms))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main():
    p = argparse.ArgumentParser(description="Zaatar repository benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload, untraced")
    p.add_argument("--selftest", action="store_true",
                   help="two traced same-seed runs must give identical counts")
    a = p.parse_args()
    if not a.all and a.workload is None:
        p.error("--workload or --all is required")
    if a.seconds < 1:
        p.error("--seconds must be at least 1")
    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, on_signal)
    check_tree()
    build()
    if a.all:
        return run_all(a.seed, a.seconds)
    if a.selftest:
        return selftest(a.workload, a.seed, a.seconds)
    lines, _ = run_zbench(a.workload, a.seed, a.seconds, a.trace == 1)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
