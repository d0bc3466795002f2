#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against this checkout.

    python3 tools/pair.py REV [--workloads inject,paper] [--seeds 1-10]

Builds two temporary trees: src/ of revision REV, taken with git archive,
and src/ of this checkout as it is on disk.  Both get this checkout's
benchmark/, so one harness measures both programs.  For each workload
and seed, in order, it runs

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0

with T the run_seconds of BENCHMARK.json, in both trees: the base first
in odd pairs and the checkout first in even ones, with every __pycache__
of both trees removed before each run.  It prints each pair's op_s.p50,
then for every end-to-end metric of BENCHMARK.json the median and
quartiles of each side, the pairs the checkout wins, the base's IQR
(third quartile less first), the change of the medians, "unresolved"
where that change is no larger than the base's IQR, and whether the
checkout's median stays within the metric's bound, a share of the base's
median.  Runs take the CPU one at a time: at 10 s each, ten pairs of one
workload take about four minutes.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(base, change, better, bound):
    """One metric over pairs (base[k], change[k]), better "lower" or
    "higher": each side's (first quartile, median, third quartile), the
    pairs the change wins, the base's IQR, the change of the medians as a
    share of the base's, whether that change is larger than the IQR, and
    whether the change is no worse than bound."""
    sign = 1 if better == "lower" else -1
    (b1, _, b3), (c1, _, c3) = (statistics.quantiles(xs, n=4) for xs in (base, change))
    mb, mc = statistics.median(base), statistics.median(change)
    shift = (mc - mb) / mb if mb else 0.0
    return {"base": (b1, mb, b3), "change": (c1, mc, c3),
            "wins": sum(sign * (b - c) > 0 for b, c in zip(base, change)),
            "iqr": b3 - b1, "shift": shift, "resolved": abs(mc - mb) > b3 - b1,
            "within": sign * shift <= bound}


def make_trees(tmp, rev):
    """(base tree, change tree) under tmp, each with src/ and benchmark/;
    the change tree's src/ is this checkout's."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    base, change = tmp / "base", tmp / "change"
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(base, filter="data")
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "src", change / "src", ignore=skip)
    for tree in (base, change):
        shutil.copytree(ROOT / "benchmark", tree / "benchmark", ignore=skip)
    return base, change


def run(tree, workload, seed, seconds):
    """The result line of one benchmark run in tree, from a cold cache."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    cmd = [sys.executable, str(tree / "benchmark" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit("run failed in %s: %s\n%s" % (tree.name, " ".join(cmd[1:]), r.stderr))
    return json.loads(r.stdout.strip().splitlines()[-1])["metrics"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the base revision, as git names it")
    ap.add_argument("--workloads", default="inject",
                    help="comma-separated workload names (default inject)")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="one pair per seed, as LO-HI (default 1-10)")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two pairs")

    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        base, change = make_trees(Path(tmp), args.rev)
        for workload in args.workloads.split(","):
            print("%s: %d pairs, seeds %d-%d, %g s a run, base %s"
                  % (workload, len(args.seeds), args.seeds[0], args.seeds[-1],
                     spec["run_seconds"], args.rev))
            pairs = []
            for k, seed in enumerate(args.seeds):
                order = (base, change) if k % 2 == 0 else (change, base)
                got = {tree: run(tree, workload, seed, spec["run_seconds"]) for tree in order}
                pairs.append((got[base], got[change]))
                print("  pair %2d seed %d  op_s.p50 base %.6g  change %.6g  (%s first)"
                      % (k + 1, seed, got[base]["op_s.p50"]["value"],
                         got[change]["op_s.p50"]["value"], order[0].name), flush=True)
            for m in spec["end_to_end"]:
                s = summarize(*([p[side][m["name"]]["value"] for p in pairs]
                                for side in (0, 1)), m["better"], m["bound"])
                print("  %-11s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
                      "wins %d/%d  base IQR %.3g  median %+.1f %%%s  %s bound %g"
                      % (m["name"], s["base"][1], s["base"][0], s["base"][2],
                         s["change"][1], s["change"][0], s["change"][2], s["wins"],
                         len(pairs), s["iqr"], 100 * s["shift"],
                         "" if s["resolved"] else " unresolved",
                         "within" if s["within"] else "OUTSIDE", m["bound"]))


if __name__ == "__main__":
    main()
