"""The chiralcube benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper, inject, census, cli (see README.md in this directory).
The run first times set-up in fresh interpreters, then runs whole passes
of the workload until S seconds of scaled time have passed (see
REF_S), checking every operation's output against its golden.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones, plus the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  A fuller record
(environment, every sample, spans) goes to benchmark/out/.

Exits with status 2, printing no result, when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Fresh-interpreter set-ups per run; the median is reported.
SETUP_REPEATS = 7
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
               "workloads.make(sys.argv[2], int(sys.argv[3]))")
MIN_BEYOND = 10

# The speed of a shared machine drifts with its neighbours' load (by up
# to 2x over minutes on a shared 2-CPU x86-64 virtual machine).  So a
# fixed piece of reference work is timed before and after every
# operation and every set-up, and the operation's time is scaled by
# REF_S / (the mean of those two reference times): times are reported in
# seconds of a machine on which the reference takes REF_S.  Runs also
# stop on this scaled clock, so the same program always gets about the
# same number of samples.  Raw wall times are kept in the run record.
REF_ITERATIONS = 20000
REF_S = 0.010


def reference_seconds():
    """Time of a fixed piece of pure-Python work (hashing, allocation,
    dict inserts): how fast this CPU runs Python right now."""
    t0 = time.perf_counter()
    table = {}
    for i in range(REF_ITERATIONS):
        table[(i & 511, i & 7)] = frozenset((i, i + 1))
    return time.perf_counter() - t0


@dataclass
class Sample:
    key: str
    seconds: float  # wall time
    ref_s: float    # mean reference time just before and just after
    traced: bool
    problem: str | None  # None when the output matched its golden
    raised: bool
    child_rss_kb: int | None  # cli: the child's peak resident memory

    @property
    def scaled(self):
        return self.seconds * REF_S / self.ref_s


def die(message):
    print("benchmark: " + message, file=sys.stderr)
    sys.exit(2)


def git_sha():
    """HEAD of the checkout.  Git does not look above the checkout, so a
    checkout that is not a repository reads "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return r.stdout.strip() if r.returncode == 0 else "unknown (not a git checkout)"


def pin_to_one_cpu():
    """Run this process and its children on the lowest-numbered allowed
    CPU.  The CPUs of a shared machine can differ widely in speed (by
    1.6x between the two CPUs of a shared 2-CPU x86-64 virtual machine),
    and a process the scheduler moves between them mixes both speeds
    into one run.  Returns the number of CPUs allowed before pinning."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return len(allowed)


def environment(args, nproc):
    import numpy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": nproc,
            "pinned_cpu": min(os.sched_getaffinity(0)),
            "platform": platform.platform(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def measure_setup(workloads, name, seed):
    """(wall time, reference time) of fresh interpreters that import
    chiralcube and build the workload's inputs, from spawn to exit."""
    times = []
    ref = reference_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        r = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR),
                            name, str(seed)],
                           cwd=ROOT, env=workloads.child_env(),
                           capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if r.returncode != 0:
            die("set-up failed:\n" + r.stderr)
        ref_after = reference_seconds()
        times.append((wall, (ref + ref_after) / 2))
        ref = ref_after
    return times


def describe_error(err):
    """Exception type, message and the innermost program frame."""
    frames = [f for f in traceback.extract_tb(err.__traceback__)
              if f.filename.startswith(str(SRC))]
    where = ""
    if frames:
        f = frames[-1]
        where = " at %s:%d" % (os.path.relpath(f.filename, SRC), f.lineno)
    return "%s: %s%s" % (type(err).__name__, err, where)


def attempt(op, tracer):
    """Run one operation on the clock, then check its output off it."""
    t0 = time.perf_counter()
    try:
        out = op.run(tracer)
    except Exception as err:  # an operation that raises is a failed operation
        return time.perf_counter() - t0, None, "raised " + describe_error(err)
    seconds = time.perf_counter() - t0
    return seconds, out, op.check(out)


def beyond(n, percentile):
    """Samples above the nearest-rank percentile of n samples."""
    return n - math.ceil(percentile / 100 * n)


def tail(values, percentile):
    """(value, samples beyond it) of the nearest-rank percentile."""
    xs = sorted(values)
    k = math.ceil(percentile / 100 * len(xs))
    return xs[k - 1], len(xs) - k


def run_passes(wl, seconds, tail_percentile, tracer):
    """Whole passes until `seconds` of scaled time have passed.  Without
    a tracer, passes go on until at least MIN_BEYOND successful samples
    lie beyond the tail percentile, so that a slow program still
    reports that percentile.  With a tracer, odd passes are traced and
    at least one pass of each kind runs."""
    samples = []
    passes = wl.passes()
    _, _, warm_problem = attempt(wl.ops[0], None)
    if warm_problem:
        print("warm-up %s: %s" % (wl.ops[0].key, warm_problem))
    ref = reference_seconds()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in next(passes):
                if traced:
                    tracer.begin_op(len(samples))
                secs, out, problem = attempt(op, tracer if traced else None)
                if traced:
                    tracer.end_op()
                ref_after = reference_seconds()
                samples.append(Sample(
                    op.key, secs, (ref + ref_after) / 2, traced, problem,
                    problem is not None and problem.startswith("raised "),
                    getattr(out, "peak_rss_kb", None)))
                ref = ref_after
        finally:
            if traced:
                tracer.uninstall()
        n += 1
        if sum(s.scaled for s in samples) < seconds:
            continue
        if tracer is not None and n >= 2:
            return samples, n
        ok = sum(1 for s in samples if s.problem is None)
        if tracer is None and beyond(ok, tail_percentile) >= MIN_BEYOND:
            return samples, n


def failure_summary(samples):
    counts = Counter((s.key, s.problem) for s in samples if s.problem is not None)
    return [{"op": k, "problem": p, "count": c} for (k, p), c in sorted(counts.items())]


def end_to_end(workloads, samples, setup_times, tail_percentile):
    ok = [s for s in samples if s.problem is None]
    if not ok:
        die("no operation succeeded; nothing to time")
    value, n_beyond = tail([s.scaled for s in ok], tail_percentile)
    child = [s.child_rss_kb for s in samples if s.child_rss_kb is not None]
    rss_kb = max(child) if child else workloads.peak_rss_kb()
    metrics = {
        "setup_s": (statistics.median(t * REF_S / r for t, r in setup_times), "s"),
        "op_s.p50": (statistics.median(s.scaled for s in ok), "s"),
        "op_s.tail": (value, "s"),
        "ops_per_s": (len(ok) / sum(s.scaled for s in samples), "1/s"),
        "ok_frac": (len(ok) / len(samples), "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    raw = {"setup_s": statistics.median(t for t, _ in setup_times),
           "op_s.p50": statistics.median(s.seconds for s in ok),
           "ops_per_s": len(ok) / sum(s.seconds for s in samples),
           "ref_s.p50": statistics.median(s.ref_s for s in samples)}
    extra = {"tail": {"percentile": tail_percentile, "samples": len(ok),
                      "beyond": n_beyond},
             "failed_frac": {"failed": len(samples) - len(ok), "base": len(samples)},
             "raw_wall": raw}
    return metrics, extra


def main():
    ap = argparse.ArgumentParser(description="chiralcube benchmark")
    ap.add_argument("--workload", required=True, help="paper, inject, census or cli")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "chiralcube" / "__init__.py").is_file():
        die("no program at %s: run from a checkout of the repository" % SRC)
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    if not Path(workloads.cc.__file__).resolve().is_relative_to(SRC):
        die("chiralcube was imported from %s, not from %s"
            % (workloads.cc.__file__, SRC))
    if args.workload not in workloads.WORKLOADS:
        die("unknown workload %r" % args.workload)

    env = environment(args, pin_to_one_cpu())
    print("chiralcube benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: " + json.dumps(env, sort_keys=True))

    setup_times = measure_setup(workloads, args.workload, args.seed)
    wl = workloads.make(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    tail_percentile = workloads.TAIL_PERCENTILE[args.workload]
    samples, n_passes = run_passes(wl, args.seconds, tail_percentile, tracer)

    untraced = [s for s in samples if not s.traced]
    metrics, extra = end_to_end(workloads, untraced, setup_times, tail_percentile)
    extra["passes"] = n_passes
    extra["setup_s_samples"] = setup_times
    if wl.mutations:
        extra["mutations"] = list(wl.mutations)
    if tracer is not None:
        traced = {i: s for i, s in enumerate(samples) if s.traced}
        untraced_p50 = metrics["op_s.p50"][0]
        metrics = tracing.summarize(
            tracer, {i: (s.seconds, REF_S / s.ref_s) for i, s in traced.items()})
        metrics["trace.overhead_frac"] = (
            statistics.median(s.scaled for s in traced.values() if s.problem is None)
            / untraced_p50 - 1, "ratio")

    failures = failure_summary(samples)
    for name, (value, unit) in metrics.items():
        print("%-44s %.6g %s" % (name, value, unit))
    if not args.trace:
        t = extra["tail"]
        print("op_s.tail is p%g of %d successful operations, %d beyond it"
              % (t["percentile"], t["samples"], t["beyond"]))
    print("raw wall clock: " + json.dumps(extra["raw_wall"], sort_keys=True))
    f = extra["failed_frac"]
    print("failed_frac %.6g = %d failed of %d attempted untraced operations"
          % (f["failed"] / f["base"], f["failed"], f["base"]))
    for item in failures:
        print("failed %dx %s: %s" % (item["count"], item["op"], item["problem"]))

    result = {
        "correct": not any(s.problem and not s.raised for s in samples),
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.problem is not None),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    record = workloads.OUT_DIR / ("%s-seed%d-trace%d.json"
                                  % (args.workload, args.seed, args.trace))
    with open(record, "w") as fh:
        json.dump({"environment": env, "result": result, "extra": extra,
                   "failures": failures,
                   "samples": [asdict(s) for s in samples],
                   "spans": tracer.spans if tracer is not None else []}, fh)
    print("record: " + os.path.relpath(record, ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
