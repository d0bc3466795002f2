"""Tests of the benchmark harness itself (not part of the Tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q benchmark/test_harness.py
"""

import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import cc  # noqa: E402

# verify_paper(base_graph=hypercube) raises IndexError at the commit that
# defined the benchmark; the benchmark counts it as a failed operation.
KNOWN_RAISING = {"inject:hypercube"}


def pass_keys(wl, n=3):
    return [[op.key for op in p] for p in islice(wl.passes(), n)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    goldens = workloads.load_goldens()
    a, b = workloads.make(name, 7, goldens), workloads.make(name, 7, goldens)
    assert pass_keys(a) == pass_keys(b)
    assert a.mutations == b.mutations
    assert sorted(op.key for op in a.ops) == sorted(pass_keys(a, 1)[0])
    assert pass_keys(a) != pass_keys(workloads.make(name, 8, goldens))


def test_seed_chooses_the_injected_mutations():
    base = cc.hemicube_embedding().graph
    chosen = {workloads.choose_mutations(s, base) for s in range(20)}
    assert len(chosen) > 1
    graphs = workloads.mutation_graphs(base)
    goldens = workloads.load_goldens()["inject"]
    for keys in chosen:
        assert all(k in graphs and k in goldens for k in keys)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_goldens_match_seed_code(name):
    wl = workloads.make(name, 1)
    mismatched, raised = [], set()
    for op in wl.ops:
        _, _, problem = run.attempt(op, None)
        if problem is None:
            continue
        if problem.startswith("raised "):
            raised.add(op.key)
        else:
            mismatched.append(problem)
    assert mismatched == []
    assert raised <= KNOWN_RAISING


def test_census_goldens_hold_the_paper_counts():
    census = workloads.load_goldens()["census"]
    assert census["n_labelled"] == 576 and len(census["classes"]) == 24
    by_a = {k for k, r in census["per_class"].items() if r["transversal_to_directions"]}
    by_b = {k for k, r in census["per_class"].items() if r["all_colors_on_every_square"]}
    assert len(by_a) == 2 and by_a == by_b


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, None, 0],
             ["b", 1.0, 5.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0],
             ["d", 6.0, 7.0, 0, 0]]
    assert tracer.self_times(spans) == [5.0, 3.0, 1.0, 1.0]


def test_tail_is_the_nearest_rank_percentile():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values, 90.0) == (90.0, 10)
    assert run.tail(values[:40], 75.0) == (30.0, 10)
    assert run.tail(values[:39], 75.0) == (30.0, 9)
    assert run.beyond(40, 75.0) == 10 and run.beyond(99, 90.0) == 9


def test_tracer_wraps_rebound_names_and_restores_them():
    from chiralcube import classify, group
    original = group.induced_face_action
    assert classify.induced_face_action is original
    t = tracer.Tracer()
    g = cc.hemicube_embedding().graph
    expected = cc.colored_isomorphism(g, g)
    t.install()
    try:
        assert classify.induced_face_action is not original
        assert group.induced_face_action is classify.induced_face_action
        t.begin_op(0)
        assert cc.colored_isomorphism(g, g) == expected
        t.end_op()
    finally:
        t.uninstall()
    assert classify.induced_face_action is original
    assert group.induced_face_action is original
    names = {s[0] for s in t.spans}
    assert {"graph.colored_isomorphism", "graph.iter_colored_isomorphisms"} <= names
    assert all(s[2] >= s[1] for s in t.spans)
    assert t.counters["graph.colored_isomorphism.calls"] == 1
