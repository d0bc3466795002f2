"""Spans around calls into chiralcube's public functions, added at run time.

Tracer.install() replaces every public module-level function of the
layer modules (graph, group, polytope, geometry, classify, cli) with a
wrapper, in every chiralcube module that holds a reference to it, so
names re-bound by `from .x import f` are traced too.  uninstall() puts
the originals back.  The program's files are not edited.

A span is [name, start, end, parent, op]: the function's "layer.name",
perf_counter times, the index of the enclosing span (None at the top)
and the operation id.  Spans stay in memory until the run ends.  Time
spent in methods and private helpers counts as self time of the
innermost public function that called them.  A generator function gets
one span per resumption, so its work is charged to it and not to its
consumer.

Run as a script, the module is the traced form of
`python -m chiralcube.cli`: `python3 benchmark/tracer.py OUT ARGS...`
runs the CLI with ARGS under a tracer and writes the spans and counters
to the file OUT.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graph", "group", "polytope", "geometry", "classify", "cli")

HOT = ("group.induced_face_action", "group.chain_stabilizer",
       "group.color_respecting_automorphisms", "group.classify_symmetry",
       "geometry.vertex_permutation", "geometry.geometric_symmetry_group",
       "geometry.exchanging_isometries", "polytope.check_polytopality",
       "polytope.schlafli_type", "polytope.to_json", "geometry.off_text",
       "graph.enumerate_matching_colorings")

SCANS = ("geometry.geometric_symmetry_group", "geometry.exchanging_isometries")


# Counters read at the boundary where the work happens.  Each hook gets
# the tracer, the call's arguments, its result and the caller's span.

def _count_polytope(tr, args, result, parent):
    tr.polytopes.append(result)


def _count_group(tr, args, result, parent):
    tr.counters["group.order"] += result.order


def _count_stabilizer(tr, args, result, parent):
    tr.counters["group.order"] += result.order
    tr.counters["group.stabilizer_kept"] += result.order
    tr.counters["group.stabilizer_scanned"] += args[1].order


def _count_scanned(tr, args, result, parent):
    if parent is not None and tr.spans[parent][0] in SCANS:
        tr.counters["geometry.scan_scanned"] += len(result)


def _count_symmetry_group(tr, args, result, parent):
    tr.counters["group.order"] += result.order
    tr.counters["geometry.scan_kept"] += result.order


def _count_exchanging(tr, args, result, parent):
    tr.counters["geometry.scan_kept"] += len(result)


HOOKS = {
    "polytope.colourful_polytope": _count_polytope,
    "group.color_respecting_automorphisms": _count_group,
    "group.chain_stabilizer": _count_stabilizer,
    "geometry.all_signed_matrices": _count_scanned,
    "geometry.geometric_symmetry_group": _count_symmetry_group,
    "geometry.exchanging_isometries": _count_exchanging,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.polytopes = []
        self.op = None
        self._stack = []
        self._patches = []
        package = importlib.import_module("chiralcube")
        modules = {layer: importlib.import_module("chiralcube." + layer)
                   for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(layer + "." + name, fn)
                for holder in holders:
                    for attr, value in vars(holder).items():
                        if value is fn:
                            self._patches.append((holder, attr, fn, wrapper))

    # ------------------------------------------------------- patching

    def install(self):
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    def _wrap(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.counters
        hook = HOOKS.get(name)
        calls_key = name + ".calls"

        def open_span():
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            return span

        def close_span(span):
            span[2] = perf_counter()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[calls_key] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        span = open_span()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            close_span(span)
                        yield item
                finally:
                    gen.close()
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[calls_key] += 1
            span = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(span)
            if hook is not None:
                hook(self, args, result, span[3])
            return result
        return traced

    # ----------------------------------------------------- operations

    def begin_op(self, op_id):
        self.op = op_id

    def end_op(self):
        """Tally the sizes of the polytopes the operation built.  Runs
        after the operation's clock stops: counting flags may build a
        flag graph the operation itself did not need."""
        for p in self.polytopes:
            self.counters["polytope.faces"] += len(p.faces)
            self.counters["polytope.flags"] += len(p.flag_graph().flags)
        self.polytopes.clear()
        self.op = None

    def run_cli_child(self, argv):
        """Run `chiralcube ARGV` in a traced child process and merge its
        spans and counters into this tracer under the current op."""
        from workloads import OUT_DIR, run_child

        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / "cli-child-spans.json"
        path.unlink(missing_ok=True)
        result = run_child([sys.executable, os.path.abspath(__file__),
                            str(path), *argv])
        if path.exists():
            with open(path) as fh:
                child = json.load(fh)
            offset = len(self.spans)
            for name, start, end, parent, _ in child["spans"]:
                self.spans.append([name, start, end,
                                   None if parent is None else parent + offset,
                                   self.op])
            self.counters.update(child["counters"])
        return result


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(tracer, ops):
    """Per-layer metrics per traced operation.  ops maps each traced
    operation's id to (its wall time, the factor that scales its times
    to the reference speed); self times are scaled by that factor."""
    n = len(ops)
    own = self_times(tracer.spans)
    self_s, top = defaultdict(float), 0.0
    for span, t in zip(tracer.spans, own):
        name, scaled = span[0], t * ops[span[4]][1]
        self_s[name] += scaled
        self_s[name.split(".")[0]] += scaled
        if span[3] is None:
            top += span[2] - span[1]
    c = tracer.counters
    calls = Counter()
    for key, count in c.items():
        if key.endswith(".calls"):
            name = key[: -len(".calls")]
            calls[name] += count
            calls[name.split(".")[0]] += count

    metrics = {}
    for name in (*LAYERS, *HOT):
        metrics[name + ".self_s"] = (self_s[name] / n, "s")
        metrics[name + ".calls"] = (calls[name] / n, "count")
    scanned, stab_scanned = c["geometry.scan_scanned"], c["group.stabilizer_scanned"]
    metrics["geometry.scan_hit_ratio"] = (
        c["geometry.scan_kept"] / scanned if scanned else 0.0, "ratio")
    metrics["geometry.scan_base"] = (scanned / n, "count")
    metrics["group.stabilizer_keep_ratio"] = (
        c["group.stabilizer_kept"] / stab_scanned if stab_scanned else 0.0, "ratio")
    metrics["group.stabilizer_base"] = (stab_scanned / n, "count")
    for key in ("polytope.faces", "polytope.flags", "group.order"):
        metrics[key] = (c[key] / n, "count")
    metrics["trace.coverage_frac"] = (top / sum(w for w, _ in ops.values()), "ratio")
    return metrics


def _main(out_path, argv):
    tracer = Tracer()
    cli = sys.modules["chiralcube.cli"]
    tracer.install()
    tracer.begin_op(0)
    try:
        return cli.main(argv)
    finally:
        tracer.end_op()
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1], sys.argv[2:]))
