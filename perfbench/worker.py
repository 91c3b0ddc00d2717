"""One workload in one fresh interpreter: set up, then measure closed-loop passes.

Run by run.py, not directly.  Prints "ready" once selfdist is imported and
the inputs are written, and a JSON result as its last line.  One client runs
one job at a time (`--jobs 1` on every CLI call); a pass answers the whole
job list in a seeded order.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_SAMPLES = 101      # at least ten job times then lie beyond p90
MIN_PASSES = 3


class Calibration:
    """A fixed interpreter loop, timed just before and just after each job.

    The host's speed drifts by tens of percent, within seconds and over
    minutes, and job times drift with it.  Each job's time is reported in
    reference seconds: its raw seconds times REFERENCE_S over the mean of the
    two calibration times around it, so drift cancels to first order.  A
    numpy-gather calibration was tried and tracked the jobs worse.  Raw
    times go to the detail line.
    """
    REFERENCE_S = 0.0014
    REPS = 3

    @staticmethod
    def _once():
        start = time.perf_counter()
        acc = 0
        for i in range(15000):
            acc += i * i % 7
        return time.perf_counter() - start

    def time(self):
        return min(self._once() for _ in range(self.REPS))


def import_selfdist():
    """The package from this checkout's src/, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import selfdist
    import selfdist.cli  # noqa: F401  (not imported by the package itself)
    where = os.path.dirname(os.path.abspath(selfdist.__file__))
    if os.path.dirname(where) != src:
        raise SystemExit(f"selfdist imported from {where}, not from {src}")
    return selfdist


def percentile(values, q):
    """Linear interpolation between closest ranks (q in 0..100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    """Times jobs and checks every answer."""

    def __init__(self, jobs, tracer=None):
        self.jobs = jobs
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.samples = []          # (job name, reference seconds)
        self.passes = []           # per recorded pass: reference seconds per job
        self.raw_passes = []       # the same in raw seconds
        self.cal = Calibration()

    def run_pass(self, traced=False, record=True, light=False):
        """Answer every job once; returns the pass time in reference seconds
        and in raw seconds.

        Only recorded, untraced passes add job samples."""
        tr = self.tracer if traced else None
        raw = []
        scaled = []
        for job in self.jobs:
            if light and job.heavy:
                continue
            if tr is not None:
                tr.start_job(job.name)
            before = self.cal.time()
            start = time.perf_counter()
            try:
                result, error = job.run(), None
            except Exception:       # a crash is a wrong answer, not a benchmark failure
                result, error = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - start
            after = self.cal.time()
            raw.append((job.name, dt))
            scaled.append((job.name, dt * Calibration.REFERENCE_S * 2 / (before + after)))
            self.attempted += 1
            if tr is not None and hasattr(result, "bytes_out"):
                tr.counts["cli.bytes_out"] += result.bytes_out
            if error is None:
                error = self.check(job, result)
            if error is not None:
                self.failures.append((job.name, error))
            # a fresh CLI process starts without the last job's garbage; so
            # does the next job here, which keeps peak RSS a per-job figure
            gc.collect()
        if record and not traced:
            self.samples += scaled
            self.passes.append([dt for _, dt in scaled])
            self.raw_passes.append([dt for _, dt in raw])
        return sum(dt for _, dt in scaled), sum(dt for _, dt in raw)

    def check(self, job, result):
        from oracle import Wrong
        try:
            job.check(result)
        except Wrong as exc:
            return str(exc)
        except Exception:
            return "check raised: " + traceback.format_exc(limit=3)
        return None


def machine_block(sd, seed):
    import platform
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "using_numba": bool(sd.kernels.USING_NUMBA),
            "cpu": cpu, "seed": seed, "commit": git_commit()}


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(runner, seconds, short, targets=None):
    """Closed-loop passes until `seconds` have passed and enough jobs were timed.

    A first warm-up pass is not recorded: it fills caches and runs every
    answer check once.  With trace targets, later passes alternate untraced
    and traced, and the per-layer figures come from the traced ones.
    """
    trace = targets is not None
    if not short:
        runner.run_pass(record=False, light=True)
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        if trace and len(plain) > len(traced):
            runner.tracer.install("selfdist", targets)
            try:
                traced.append(runner.run_pass(traced=True))
            finally:
                runner.tracer.uninstall()
        else:
            plain.append(runner.run_pass())
        if short:
            if not trace or traced:
                break
            continue
        done = (time.perf_counter() - start >= seconds and len(plain) >= MIN_PASSES
                and len(runner.samples) >= MIN_SAMPLES)
        if done and (not trace or len(traced) >= 1):
            break
    return plain, traced


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    sd = import_selfdist()
    import workloads
    from workloads import Ctx
    rng = random.Random(args.seed)
    jobs = workloads.WORKLOADS[args.workload](Ctx(rng, args.workdir), sd)
    if args.short:
        jobs = [j for j in jobs if not j.heavy]
    rng.shuffle(jobs)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = targets = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer(groups=layers.GROUPS)
        targets = layers.targets()
    runner = Runner(jobs, tracer)
    plain, traced = measure(runner, args.seconds, args.short, targets)
    traced_raw_s = sum(raw for _, raw in traced)
    plain = [scaled for scaled, _ in plain]
    traced = [scaled for scaled, _ in traced]

    def wall(passes):
        # each job's median over the passes, summed over the job list
        return sum(map(statistics.median, zip(*passes)))

    times = [dt for _, dt in runner.samples]
    raw_times = [dt for p in runner.raw_passes for dt in p]
    if args.trace:
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        metrics = layers.per_layer_metrics(tracer, len(traced), traced_raw_s, overhead)
    else:
        metrics = {
            "wall_s": {"value": wall(runner.passes), "unit": "s"},
            "job_p50_ms": {"value": percentile(times, 50) * 1e3, "unit": "ms"},
            "job_p90_ms": {"value": percentile(times, 90) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    per_job = {}
    for name, dt in runner.samples:
        per_job.setdefault(name, []).append(dt)
    detail = {
        "machine": machine_block(sd, args.seed), "workload": args.workload,
        "jobs_per_pass": len(jobs), "passes": len(plain), "traced_passes": len(traced),
        "samples": len(times), "pass_s": plain,
        "raw_wall_s": wall(runner.raw_passes),
        "raw_job_p50_ms": percentile(raw_times, 50) * 1e3,
        "raw_job_p90_ms": percentile(raw_times, 90) * 1e3,
        "failed_frac": len(runner.failures) / max(1, runner.attempted),
        "failures": runner.failures[:10],
        "missing_targets": tracer.missing if tracer else [],
        "job_median_ms": {k: round(statistics.median(v) * 1e3, 3) for k, v in sorted(per_job.items())},
    }
    print("detail " + json.dumps(detail), flush=True)
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
