"""Inputs, operations and output checks of the chiralcube benchmark.

A workload is a fixed set of operations.  The benchmark runs it as a
closed loop with one caller, in whole passes: each pass runs every
operation once, in an order drawn from the seed.  The seed also picks
which edge the `inject` mutations touch.  Every pass therefore does the
same work, so per-operation sizes repeat exactly and medians do not
depend on where a run happened to stop.

Each operation has a golden captured from the program at the commit
that defined the benchmark (goldens.json; rewrite it with
`python3 benchmark/workloads.py --capture` only when a change of output
is intended).  An operation whose output differs from its golden fails.

The module imports chiralcube from the checkout's src/ directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens.json"
OUT_DIR = BENCH_DIR / "out"  # per-run records and spans; not committed

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import chiralcube as cc  # noqa: E402
from chiralcube.graph import ColoredGraph  # noqa: E402

WORKLOADS = ("paper", "inject", "census", "cli")

# Percentile reported as op_s.tail.  Fixed per workload, so that a
# faster program, which fits more samples into a run, still reports the
# same percentile; an untraced run goes on until ten successful samples
# lie beyond it.  Each is the highest percentile with ten beyond that a
# run long enough for steady medians reaches on the seed program.
TAIL_PERCENTILE = {"paper": 65.0, "inject": 80.0, "census": 90.0, "cli": 75.0}

CLI_COMMANDS = {
    "verify": ["verify"],
    "verify-json": ["verify", "--format", "json"],
    "build-qhat-json": ["build", "Qhat", "--format", "json"],
    "export-qhat": ["export", "Qhat"],
    "colorings": ["colorings"],
}


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def coloring_key(c):
    return "".join(str(x) for x in c.colors)


@dataclass(frozen=True)
class Op:
    """One operation: `run(tracer)` is timed, `check(output)` is not.

    `check` returns None when the output matches its golden, else a
    one-line description of the mismatch.  In-process operations ignore
    the tracer; `cli` operations use it to run a traced child process.
    """

    key: str
    run: Callable
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    seed: int
    mutations: tuple = ()  # inject only: the seed-chosen mutation keys

    def passes(self):
        """Endless sequence of passes, each every op in a seeded order."""
        rng = random.Random("%s:%d" % (self.name, self.seed))
        while True:
            order = list(self.ops)
            rng.shuffle(order)
            yield order


def load_goldens():
    with open(GOLDENS) as fh:
        return json.load(fh)


def _compare(name, output, golden):
    """Mismatch text for the golden's keys, or None when all agree."""
    bad = [k for k in golden if output.get(k) != golden[k]]
    if not bad:
        return None
    return "%s: %s differ (got %s)" % (
        name, ", ".join(bad), ", ".join(repr(output.get(k)) for k in bad))


# ----------------------------------------------------------------- paper


def _report_output(report):
    """Timed: the report and the text a user reads."""
    return report.to_text(), [(c.key, c.passed) for c in report.checks]


def _report_summary(output):
    text, rows = output
    return {"text_sha256": sha256(text),
            "rows_sha256": sha256("".join("%s %s\n" % r for r in rows)),
            "rows": len(rows), "passed": all(p for _, p in rows),
            "row_passed": [p for _, p in rows]}


def _inject_golden(summary):
    # A failed row prints expected and computed values; where those are
    # sets of tuples holding strings, their order follows the string hash
    # seed, so the text of a failing report differs between processes.
    # The row keys with their verdicts are checked instead.
    return {k: summary[k] for k in ("rows_sha256", "rows", "passed")}


def paper_workload(seed, goldens):
    e = cc.hemicube_embedding()
    twin, mirror = cc.derive_chiral_colorings(e)
    inputs = {"default": {}, "twin": {"coloring": twin},
              "mirror": {"coloring": mirror}}
    golden = goldens["paper"]

    def op(name, kwargs):
        key = "paper:" + name
        return Op(key, lambda tracer: _report_output(cc.verify_paper(**kwargs)),
                  lambda out: _compare(key, _report_summary(out), golden))

    return Workload("paper", tuple(op(n, kw) for n, kw in inputs.items()), seed)


# ---------------------------------------------------------------- inject


def mutation_graphs(base):
    """Every structured mutation of the quotient graph, by key.

    One edge recoloured to each other colour, one edge dropped, a fifth
    colour declared, and the 16-vertex hypercube in place of the
    8-vertex quotient.
    """
    out = {}
    edges = list(base.edges)
    for i, (u, v, c) in enumerate(edges):
        for shift in range(1, base.n_colors):
            new = (c + shift) % base.n_colors
            out["recolour:%d:%d" % (i, new)] = ColoredGraph(
                base.n_vertices, base.n_colors,
                tuple(edges[:i] + [(u, v, new)] + edges[i + 1:]))
        out["drop:%d" % i] = ColoredGraph(base.n_vertices, base.n_colors,
                                          tuple(edges[:i] + edges[i + 1:]))
    out["colours:%d" % (base.n_colors + 1)] = ColoredGraph(
        base.n_vertices, base.n_colors + 1, tuple(edges))
    out["hypercube"] = cc.hypercube_embedding().graph
    return out


def choose_mutations(seed, base):
    """The four mutation keys one seed injects."""
    rng = random.Random("inject-mutations:%d" % seed)
    n_edges, k = len(base.edges), base.n_colors
    i = rng.randrange(n_edges)
    new = (base.edges[i][2] + 1 + rng.randrange(k - 1)) % k
    return ("recolour:%d:%d" % (i, new), "drop:%d" % rng.randrange(n_edges),
            "colours:%d" % (k + 1), "hypercube")


def inject_workload(seed, goldens):
    e = cc.hemicube_embedding()
    base = e.graph
    golden = goldens["inject"]
    colorings = cc.enumerate_matching_colorings(base, up_to_color_permutation=True)
    mutations = choose_mutations(seed, base)
    graphs = mutation_graphs(base)

    def op(key, kwargs):
        g = golden[key]
        return Op("inject:" + key,
                  lambda tracer: _report_output(cc.verify_paper(**kwargs)),
                  lambda out: _compare("inject:" + key, _report_summary(out), g))

    ops = [op("coloring:" + coloring_key(c), {"coloring": c}) for c in colorings]
    ops += [op(k, {"base_graph": graphs[k]}) for k in mutations]
    return Workload("inject", tuple(ops), seed, mutations)


# ---------------------------------------------------------------- census


def census_record(e, base, cube_graph, c):
    """Properties, polytope, isomorphism and symmetry of one coloring
    class, then the same for its double cover."""
    rec = {"transversal_to_directions": cc.classes_hit_all_directions(e, c),
           "all_colors_on_every_square": cc.squares_see_all_colors(e, c)}

    def describe(prefix, g, reference):
        p = cc.colourful_polytope(g)
        autos = cc.color_respecting_automorphisms(g)
        sym = cc.classify_symmetry(p, autos)
        rec[prefix + "polytopality"] = cc.check_polytopality(p)
        rec[prefix + "schlafli"] = cc.schlafli_type(p)
        rec[prefix + "isomorphic_to_regular"] = (
            cc.colored_isomorphism(g, reference) is not None)
        rec[prefix + "group_order"] = autos.order
        rec[prefix + "verdict"] = sym.verdict
        rec[prefix + "orbit_sizes"] = sym.orbit_sizes

    describe("", base.recolored(c), base)
    describe("lift.", cc.lift_double_cover(e, c).graph, cube_graph)
    return rec


def census_enumeration(base):
    labelled = cc.enumerate_matching_colorings(base)
    classes = sorted({c.canonical() for c in labelled}, key=lambda c: c.colors)
    return {"n_labelled": len(labelled),
            "classes": [coloring_key(c) for c in classes]}


def _jsonable(x):
    return json.loads(json.dumps(x))


def census_workload(seed, goldens):
    e = cc.hemicube_embedding()
    base = e.graph
    cube_graph = cc.lift_double_cover(e).graph
    golden = goldens["census"]
    classes = cc.enumerate_matching_colorings(base, up_to_color_permutation=True)

    enum_golden = {k: golden[k] for k in ("n_labelled", "classes")}
    ops = [Op("census:enumerate", lambda tracer: census_enumeration(base),
              lambda out: _compare("census:enumerate", out, enum_golden))]

    def op(c):
        key = coloring_key(c)
        g = golden["per_class"][key]
        return Op("census:class:" + key,
                  lambda tracer: census_record(e, base, cube_graph, c),
                  lambda out: _compare("census:class:" + key, _jsonable(out), g))

    ops += [op(c) for c in classes]
    return Workload("census", tuple(ops), seed)


# ------------------------------------------------------------------- cli


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    stdout: bytes
    stderr: bytes

    @property
    def peak_rss_kb(self):
        """The child's own high-water resident memory, which CLI_MAIN
        writes as the last line of its stderr; None if missing."""
        lines = self.stderr.decode(errors="replace").splitlines()
        if lines and lines[-1].startswith("peak_rss_kb "):
            return int(lines[-1].split()[1])
        return None


# `python -m chiralcube.cli` plus one line at exit with the process's
# VmHWM.  The rusage of a child cannot be used for its peak memory: Linux
# carries the parent's high-water mark over into it.
CLI_MAIN = """\
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                sys.stderr.write("peak_rss_kb %s\\n" % line.split()[1])
atexit.register(peak)
runpy.run_module("chiralcube.cli", run_name="__main__", alter_sys=True)
"""


def peak_rss_kb():
    """High-water resident memory of this process (VmHWM), in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd):
    """Run one child process to its end; its exit code and output.
    Output goes through files, not pipes, so that the benchmark does not
    share the child's CPU while it runs."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "child.stdout", "w+b") as out, \
            open(OUT_DIR / "child.stderr", "w+b") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        out.seek(0)
        err.seek(0)
        return ChildResult(code, out.read(), err.read())


def cli_workload(seed, goldens):
    golden = goldens["cli"]

    def op(name, argv):
        key = "cli:" + name
        g = golden[name]

        def run(tracer):
            if tracer is None:
                return run_child([sys.executable, "-c", CLI_MAIN, *argv])
            return tracer.run_cli_child(argv)

        def check(out):
            return _compare(key, {"exit_code": out.exit_code,
                                  "stdout_sha256": sha256(out.stdout)}, g)

        return Op(key, run, check)

    return Workload("cli", tuple(op(n, a) for n, a in CLI_COMMANDS.items()), seed)


BUILDERS = {"paper": paper_workload, "inject": inject_workload,
            "census": census_workload, "cli": cli_workload}


def make(name, seed, goldens=None):
    """The workload's operations for this seed (its generated inputs)."""
    return BUILDERS[name](seed, load_goldens() if goldens is None else goldens)


# --------------------------------------------------------------- goldens


def capture_goldens():
    """Goldens from the current program, with the census and inject
    invariants asserted so a wrong capture cannot be written."""
    e = cc.hemicube_embedding()
    base = e.graph

    summary = _report_summary(_report_output(cc.verify_paper()))
    for c in cc.derive_chiral_colorings(e):
        assert _report_summary(_report_output(cc.verify_paper(coloring=c))) == summary
    assert summary["passed"]

    twins = {coloring_key(c) for c in cc.derive_chiral_colorings(e)}
    inject = {}
    for c in cc.enumerate_matching_colorings(base, up_to_color_permutation=True):
        s = _inject_golden(_report_summary(_report_output(cc.verify_paper(coloring=c))))
        assert s["rows"] == 46 and s["passed"] == (coloring_key(c) in twins)
        inject["coloring:" + coloring_key(c)] = s
    for key, g in mutation_graphs(base).items():
        if key == "hypercube":
            # verify_paper raises here; the documented behaviour is a
            # report that completes and does not pass
            inject[key] = {"passed": False}
            continue
        inject[key] = _inject_golden(
            _report_summary(_report_output(cc.verify_paper(base_graph=g))))

    census = census_enumeration(base)
    cube_graph = cc.lift_double_cover(e).graph
    census["per_class"] = {
        coloring_key(c): _jsonable(census_record(e, base, cube_graph, c))
        for c in cc.enumerate_matching_colorings(base, up_to_color_permutation=True)}
    by_a = {k for k, r in census["per_class"].items() if r["transversal_to_directions"]}
    by_b = {k for k, r in census["per_class"].items() if r["all_colors_on_every_square"]}
    assert census["n_labelled"] == 576 and len(census["classes"]) == 24
    assert by_a == by_b == twins

    cli = {}
    for name, argv in CLI_COMMANDS.items():
        r = run_child([sys.executable, "-m", "chiralcube.cli", *argv])
        assert r.exit_code == 0, r.stderr
        cli[name] = {"exit_code": r.exit_code, "stdout_sha256": sha256(r.stdout)}
    return {"paper": summary, "inject": inject, "census": census, "cli": cli}


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python3 benchmark/workloads.py --capture")
    with open(GOLDENS, "w") as fh:
        json.dump(capture_goldens(), fh, indent=1, sort_keys=True)
        fh.write("\n")
