"""Run the benchmark over many seeds and summarise it, one workload at a time.

    python3 benchmark/record.py --seeds 1-10 [--traced-seeds 1-2] [--out FILE]

For every workload, runs `run.py --trace 0` once per seed with the
run_seconds of BENCHMARK.json, then `--trace 1` once per traced seed.
Prints each end-to-end metric's median and its spread, the distance
between the first and third quartiles as a share of the median, next to
the metric's bound, and flags a spread above a third of the bound.  The
raw (unscaled) wall times of every run are summarised the same way.
With --out, writes the summary, with the environment and every value,
as one file of the result trajectory in benchmark/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if r.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), r.stderr))
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if trace:
        return result, None  # its record holds the spans; not needed here
    with open(BENCH_DIR / "out" / ("%s-seed%d-trace%d.json" % (workload, seed, trace))) as fh:
        return result, json.load(fh)


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--traced-seeds", type=seed_range, default=[])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {"run_seconds": seconds, "seeds": args.seeds,
           "traced_seeds": args.traced_seeds, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        runs = [run(name, s, seconds, 0) for s in args.seeds]
        out.setdefault("environment", runs[0][1]["environment"])
        w = out["workloads"][name] = {
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "correct": all(r["correct"] for r, _ in runs),
            "failures": runs[0][1]["failures"],
            "tail": [rec["extra"]["tail"] for _, rec in runs],
            "end_to_end": {}, "raw_wall": {}, "per_layer": {}}
        for m in spec["end_to_end"]:
            s = w["end_to_end"][m["name"]] = summary(
                [r["metrics"][m["name"]]["value"] for r, _ in runs])
            flag = " <- above bound/3" if s["spread"] > m["bound"] / 3 else ""
            print("%-7s %-12s median %-12.6g spread %.4f  bound %.2f%s"
                  % (name, m["name"], s["median"], s["spread"], m["bound"], flag))
        for key in runs[0][1]["extra"]["raw_wall"]:
            s = w["raw_wall"][key] = summary(
                [rec["extra"]["raw_wall"][key] for _, rec in runs])
            print("%-7s raw %-8s median %-12.6g spread %.4f"
                  % (name, key, s["median"], s["spread"]))
        traced = [run(name, s, seconds, 1)[0] for s in args.traced_seeds]
        for m in spec["per_layer"] if traced else ():
            w["per_layer"][m["name"]] = statistics.median(
                r["metrics"][m["name"]]["value"] for r in traced)
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
