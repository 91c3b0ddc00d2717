"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up is timed SETUP_RUNS times in fresh
interpreters (import selfdist, generate and write the inputs) and reported
as the median.  The measured run is another fresh interpreter (worker.py).
The last line of output is the JSON result; the line before it, starting
with "detail", carries the machine block, sample counts and per-job times.
Exits non-zero without a result when the checkout has no src/selfdist.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan", "homology", "classify", "construct")
SETUP_RUNS = 4          # probes; the measured run adds a fifth set-up sample
DEADLINE_S = 170


def spawn(args, workdir, extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir] + extra
    env = dict(os.environ, PYTHONHASHSEED="0", SELFDIST_JOBS="1")
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    return proc, start


def run_worker(args, workdir, deadline, extra=(), cal=None):
    """(seconds until the worker reported ready, the same in raw seconds,
    its stdout lines, exit code).

    With a Calibration, the ready time is in reference seconds, scaled by the
    calibration timed just before the start and just after ready.
    """
    before = cal.time() if cal else None
    proc, start = spawn(args, workdir, list(extra))
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = raw = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = raw = time.perf_counter() - start
                if cal:
                    ready *= cal.REFERENCE_S * 2 / (before + cal.time())
                continue
            lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, raw, lines, code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="one pass without the heaviest jobs (for the tests)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "selfdist", "__init__.py")):
        print(f"no src/selfdist under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    extra = ["--short"] if args.short else []

    setups, raw_setups = [], []
    cal = None
    if not args.trace:
        sys.path.insert(0, HERE)
        from worker import Calibration
        cal = Calibration()
        for _ in range(1 if args.short else SETUP_RUNS):
            ready, raw, _, code = run_worker(args, workdir, deadline,
                                             extra + ["--setup-only"], cal)
            if code != 0 or ready is None:
                print(f"set-up failed with exit code {code}", file=sys.stderr)
                return 1
            setups.append(ready)
            raw_setups.append(raw)
    ready, raw, lines, code = run_worker(args, workdir, deadline, extra, cal)
    if code != 0 or ready is None or not lines:
        print(f"worker failed with exit code {code}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        setups.append(ready)
        raw_setups.append(raw)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print("setup " + json.dumps({"setup_s": setups, "raw_setup_s": raw_setups}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
