"""The end-to-end verification report and the enantiomorph verdicts."""

import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import chiralcube
from chiralcube import classify, geometry
from chiralcube.classify import (DERIVED, CheckResult, VerificationReport,
                                 _chiral_under, _turns, enantiomorph_check,
                                 verify_paper)
from chiralcube.geometry import (EmbeddedGraph, _maps_coloring,
                                 geometric_symmetry_group, hemicube_embedding,
                                 hypercube_embedding, lift_double_cover)
from chiralcube.graph import ColoredGraph, enumerate_matching_colorings
from chiralcube.group import PermutationGroup, chain_stabilizer
from chiralcube.polytope import f_vector, schlafli_type


@pytest.fixture(scope="module")
def report():
    return verify_paper()


def test_everything_passes(report):
    assert report.passed
    assert all(c.passed for c in report.checks)


def test_claim_ids_unique(report):
    keys = [c.key for c in report.checks]
    assert len(keys) == len(set(keys))


def test_every_row_carries_an_anchor(report):
    assert all(isinstance(c.anchor, str) and c.anchor for c in report.checks)


def test_pipeline_order(report):
    # report sections come out in construction order
    prefixes = []
    for c in report.checks:
        p = c.key.split(".")[0]
        if p not in prefixes:
            prefixes.append(p)
    assert prefixes == ["base", "p", "colorings", "q", "petrie", "lift", "qhat"]


def test_text_report_shape(report):
    text = report.to_text()
    assert text.rstrip().endswith("ALL CHECKS PASSED")
    assert text.count("[ ok ]") == len(report.checks)
    assert "[FAIL]" not in text


def test_json_report_shape(report):
    data = report.to_json()
    assert data["passed"] is True
    assert data["n_checks"] == len(report.checks)
    for row in data["checks"]:
        assert set(row) == {"key", "claim", "anchor", "expected",
                            "computed", "passed"}
    json.dumps(data)  # must be serializable as is


def test_report_is_deterministic(report):
    again = verify_paper()
    assert again.to_text() == report.to_text()
    assert json.dumps(again.to_json(), sort_keys=True) == \
        json.dumps(report.to_json(), sort_keys=True)


def test_regular_coloring_injection_fails_chirality(hemi):
    sabotaged = verify_paper(coloring=hemi.direction_coloring)
    assert not sabotaged.passed
    failed = {c.key for c in sabotaged.checks if not c.passed}
    assert "q.geometrically_chiral" in failed
    # the run still reaches the end instead of raising
    assert any(c.key.startswith("qhat.") for c in sabotaged.checks)


def test_renamed_twins_report_all_green(report, twins):
    # the mirror is picked by colour class, not by the labelled colouring,
    # so renaming the colours of either twin changes no row
    for twin in twins:
        for renaming in ((1, 0, 2, 3), (3, 2, 1, 0)):
            renamed = twin.permuted(renaming)
            assert renamed != twin
            assert verify_paper(coloring=renamed).to_text() == report.to_text()


def test_broken_base_graph_reported_not_raised():
    # vertex 1 sees color 0 twice: improper
    broken = ColoredGraph(4, 2, ((0, 1, 0), (1, 2, 0), (2, 3, 1), (0, 3, 1)))
    r = verify_paper(base_graph=broken)
    assert not r.passed
    assert not r.checks[0].passed  # the validity row itself


def test_colorings_over_other_edges_reported_not_raised(hemi, cube_embedding):
    # the direction coloring without its first edge, and the 4-cube's
    # coloring of its 32 edges: neither is over the quotient's edge list
    reg = hemi.direction_coloring
    short = ColoredGraph(reg.n_vertices, reg.n_colors, reg.edges[1:])
    for c in (short, cube_embedding.graph):
        r = verify_paper(coloring=c)  # must not raise
        assert all(row.passed for row in r.checks[:-1])
        last = r.checks[-1]
        assert (last.key, last.passed) == ("q.polytopal", False)
        assert "different edge list" in last.computed
        r.to_text()


def test_no_twin_pair_reported_not_raised(hemi):
    # the quotient graph without its colour-3 edges is 3-regular and
    # 3-coloured, and an alternating Hamiltonian 8-cycle of it is 2-regular
    # and 2-coloured: neither has direction-transversal colourings to
    # continue with.  Their facets, the faces of rank n - 1, are squares
    # and edges, not cubes.
    g3 = ColoredGraph(8, 3, tuple(x for x in hemi.graph.edges if x[2] != 3))
    cycle = (0, 1, 3, 2, 5, 4, 6, 7)
    steps = zip(cycle, cycle[1:] + cycle[:1])
    g2 = ColoredGraph(8, 2, tuple(sorted(
        (min(u, v), max(u, v), k % 2) for k, (u, v) in enumerate(steps))))
    assert set(g2.edge_pairs) <= set(hemi.graph.edge_pairs)
    for g, shapes in ((g3, {((4, 4), (4,), True)}), (g2, {((2,), (), True)})):
        r = verify_paper(base_graph=g)  # must not raise
        assert len(r.checks) == 16
        last = r.checks[-1]
        assert (last.key, last.passed) == ("q.polytopal", False)
        assert last.computed == "unavailable (no twin pair to continue with)"
        facets = next(c for c in r.checks if c.key == "p.facets_cubes")
        assert (facets.passed, facets.computed) == (False, shapes)
        # a regular poset of another rank is not the regular 4-polytope,
        # and filters that keep nothing find no twins and agree on nothing
        rows = {c.key: c for c in r.checks}
        assert rows["p.regular"].computed == "regular rank-%d poset" % g.n_colors
        for key in ("p.regular", "colorings.filter_squares",
                    "colorings.properties_agree"):
            assert not rows[key].passed, key
        r.to_text()
        r.to_json()


def test_turns_match_every_determinant(hemi, cover, cube_embedding, GP, GQ, GH):
    # _turns reads the determinants of the generators; the oracle reads
    # the determinant of every element
    classes = enumerate_matching_colorings(hemi.graph, up_to_color_permutation=True)
    cases = [(hemi, GP), (hemi, GQ), (cover, GH),
             (cube_embedding, geometric_symmetry_group(cube_embedding))]
    cases += [(hemi, geometric_symmetry_group(hemi.recolored(c))) for c in classes]
    counts = []
    for e, G in cases:
        dets = [e.matrix(p).det() for p in G]
        assert _turns(e, G) == (dets.count(1), dets.count(-1))
        counts.append(dets.count(-1) > 0)
    # 14 of the 24 classes hold no reflection; the others hold both kinds
    assert counts[:4] == [True, False, False, True]
    assert counts[4:28].count(False) == 14


def test_twins_are_kept_by_the_rotations_alone(hemi, twins, GP, GQ):
    # the report's twins: the classes kept by every rotation of P and by
    # no reflection; a group holding no reflection picks none
    classes = enumerate_matching_colorings(hemi.graph, up_to_color_permutation=True)
    assert _chiral_under(hemi, GP, classes) == twins
    assert _chiral_under(hemi, GQ, classes) == []
    for c in classes:  # the oracle scans each class's own isometries
        G = geometric_symmetry_group(hemi.recolored(c))
        dets = {hemi.matrix(p).det() for p in G}
        assert (c in twins) == (G.order == 96 and dets == {1})


def test_twin_rule_from_generators_matches_every_determinant(hemi, P, GP):
    # _chiral_under reads G's generators and one reflecting generator; the
    # oracle is the definition: G holds a reflection, and each element of G
    # keeps a class exactly when its determinant is +1.  GP's generators
    # all reflect, so only subgroups with both kinds of generator see the
    # products r*s*r: face stabilizers and groups spanned by two elements
    classes = enumerate_matching_colorings(hemi.graph, up_to_color_permutation=True)
    det = {p.images: hemi.matrix(p).det() for p in GP}
    kept = [{p.images for p in GP
             if _maps_coloring(p, c, {(u, v): k for u, v, k in c.edges})} for c in classes]
    els = GP.elements
    groups = [GP] + [chain_stabilizer(P, GP, [f]) for f in range(len(P.faces))]
    groups += [PermutationGroup([els[i], els[(37 * i + 11) % 192]])
               for i in range(0, 192, 3)]
    mixed = held = 0
    for G in groups:
        signs = [det[g.images] for g in G.elements]
        want = [c for c, k in zip(classes, kept) if -1 in signs
                and all((p.images in k) == (d == 1) for p, d in zip(G.elements, signs))]
        assert _chiral_under(hemi, G, classes) == want
        mixed += {det[g.images] for g in G.generators} == {1, -1}
        held += bool(want)
    assert (len(groups), mixed, held) == (107, 62, 94)


def test_filter_rows_fail_when_a_property_keeps_one_class_more(hemi, monkeypatch):
    # each filter row compares the classes its property keeps with the
    # twins picked by their symmetry, so a property that keeps one class
    # more, wherever the package binds it, fails its row and not the other
    classes = enumerate_matching_colorings(hemi.graph, up_to_color_permutation=True)
    rows = {"classes_hit_all_directions": "colorings.filter_transversal",
            "squares_see_all_colors": "colorings.filter_squares"}
    for name, row in rows.items():
        prop = getattr(geometry, name)
        extra = next(c for c in classes if not prop(hemi, c))

        def keeps_one_more(e, c, prop=prop, extra=extra):
            return prop(e, c) or c == extra
        with monkeypatch.context() as m:
            for mod in [chiralcube] + [v for k, v in sys.modules.items()
                                       if k.startswith("chiralcube.")]:
                if getattr(mod, name, None) is prop:
                    m.setattr(mod, name, keeps_one_more)
            passed = {c.key: c.passed for c in verify_paper().checks}
        assert [passed[r] for r in rows.values()] == [r != row for r in rows.values()]
        assert not passed["colorings.properties_agree"]
        assert passed["colorings.twin_count"] == (name == "squares_see_all_colors")


def test_report_is_the_same_with_cold_and_warm_isometry_tables(
        report, hemi, cube_embedding, monkeypatch):
    # the report reads isometry tables shared per point set; building
    # them afresh, or reading them after another report, changes no byte
    def dump(r):
        return r.to_text(), json.dumps(r.to_json(), indent=2, sort_keys=True)

    monkeypatch.setattr(geometry, "_TABLES", {})
    monkeypatch.setattr(geometry, "_QUOTIENT", [])  # a quotient reading no table yet
    cold = dump(verify_paper())
    points = {(hemi.coords, True), (cube_embedding.coords, False)}
    assert set(geometry._TABLES) == points
    (u, v, c), *rest = hemi.graph.edges
    verify_paper(base_graph=ColoredGraph(8, 4, ((u, v, (c + 1) % 4), *rest)))
    # a report on another class scans the same tables with its colouring
    verify_paper(coloring=enumerate_matching_colorings(
        hemi.graph, up_to_color_permutation=True)[0])
    assert set(geometry._TABLES) == points
    assert dump(verify_paper()) == cold == dump(report)


def test_injected_reports_leave_the_process_constants_alone(
        report, hemi, twins, monkeypatch):
    # the quotient owns its polytope and its 4-cube cover, built once per
    # process; a report on another class or an injected base graph builds
    # its own objects and leaves those as they were
    def dump(r):
        return r.to_text(), json.dumps(r.to_json(), indent=2, sort_keys=True)

    assert hemicube_embedding() is hemicube_embedding() is hemi
    assert hypercube_embedding() is hemi._cover
    P, cube = hemi.polytope, hemi._cover.polytope
    faces = (P.faces, cube.faces)
    built = []

    def spy(*args):
        built.append(args[0])
        return EmbeddedGraph(*args)
    monkeypatch.setattr(classify, "EmbeddedGraph", spy)
    classes = enumerate_matching_colorings(hemi.graph, up_to_color_permutation=True)
    other = next(c for c in classes if c not in twins)
    assert not verify_paper(coloring=other).passed
    assert built == []  # the default base graph sits on the constant
    # the 3-colour graph of test_no_twin_pair_reported_not_raised, and the
    # quotient with its colours renamed: each gets an embedding of its own
    g3 = ColoredGraph(8, 3, tuple(x for x in hemi.graph.edges if x[2] != 3))
    rows = {c.key: c.computed for c in verify_paper(base_graph=g3).checks}
    assert rows["p.f_vector"] == (8, 12, 6)
    renamed = hemi.graph.permuted({0: 1, 1: 0, 2: 3, 3: 2})
    again = verify_paper(base_graph=renamed)
    assert built == [g3, renamed]
    assert len(again.checks) == 46 and dump(again) == dump(report)
    assert hemicube_embedding() is hemi
    assert hemi.polytope is P and hemi._cover.polytope is cube
    assert (P.faces, cube.faces) == faces
    assert dump(verify_paper()) == dump(report)


def test_cube_row_lifts_the_direction_coloring_of_an_injected_base(hemi):
    # the quotient recolored by a class that is not the direction coloring:
    # the lift of its own coloring is no cube, the lift of the direction
    # coloring on the same points is, and that is the row's claim
    classes = enumerate_matching_colorings(hemi.graph, up_to_color_permutation=True)
    base = next(c for c in classes if "".join(map(str, c.colors)) == "0123123032321001")
    own = lift_double_cover(hemi, base).polytope
    assert (f_vector(own), schlafli_type(own)) == ((16, 32, 16, 6), None)
    rows = {c.key: c for c in verify_paper(base_graph=base).checks}
    assert rows["lift.regular_lift_is_cube"].passed
    assert rows["lift.regular_lift_is_cube"].computed == ((16, 32, 24, 8), (4, 3, 3))


def test_renamed_quotient_base_lifts_nothing_held(hemi, twins, monkeypatch):
    # a base graph over the quotient's edges recolors onto the embeddings
    # the quotient holds: the 4-cube and Q-hat are lifted once per process,
    # not once per report
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].graph)
        return lift_double_cover(*args, **kwargs)

    monkeypatch.setattr(geometry, "lift_double_cover", counted)
    monkeypatch.setattr(geometry, "_QUOTIENT", [])  # a quotient with no cover yet
    renamed = hemi.graph.permuted({0: 1, 1: 0, 2: 3, 3: 2})
    first = verify_paper(base_graph=renamed)
    assert first.passed
    assert calls == [hemi.graph, twins[0]]  # the cube row, then Q-hat
    assert verify_paper(base_graph=renamed).to_json() == first.to_json()
    assert len(calls) == 2


def test_the_quotient_holds_only_its_twins(hemi, twins):
    # reports on every coloring class and on each kind of base-graph
    # mutation leave the quotient holding its two twins and nothing more;
    # every other coloring, a color-renamed twin among them, is built anew
    classes = enumerate_matching_colorings(hemi.graph, up_to_color_permutation=True)
    for c in classes:
        verify_paper(coloring=c)
    graphs = list(_mutations(hemi.graph))
    for g in (graphs[0], graphs[3], graphs[-2], graphs[-1]):
        assert not verify_paper(base_graph=g).passed
    assert len(hemi._twins) == 2
    assert [t.graph for t in hemi._twins] == twins
    for c in classes:
        assert (hemi.recolored(c) is hemi.recolored(c)) == (c in twins)
    renamed = twins[0].permuted({0: 1, 1: 0, 2: 3, 3: 2})
    fresh = hemi.recolored(renamed)
    assert fresh is not hemi.recolored(renamed) and fresh is not hemi._twins[0]
    assert fresh.graph == renamed
    assert f_vector(fresh.polytope) == f_vector(hemi._twins[0].polytope) == (8, 16, 12, 4)


def test_warm_reports_match_a_fresh_process(twins):
    # the third report of each valid input in this process, built on the
    # held embeddings, against a cold `chiralcube verify`, byte for byte
    src = str(Path(chiralcube.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    cold = [subprocess.run([sys.executable, "-m", "chiralcube.cli", "verify"] + fmt,
                           env=env, capture_output=True, text=True, check=True).stdout
            for fmt in ([], ["--format", "json"])]
    for kwargs in ({}, {"coloring": twins[0]}, {"coloring": twins[1]}):
        for _ in range(3):
            r = verify_paper(**kwargs)
        assert [r.to_text(), json.dumps(r.to_json(), indent=2, sort_keys=True) + "\n"] == cold


def test_enantiomorph_verdicts(hemi, twins):
    assert enantiomorph_check(twins[0], twins[1], hemi) == "enantiomorphic"
    assert enantiomorph_check(twins[0], twins[0], hemi) == "same form"
    reg = hemi.direction_coloring
    assert enantiomorph_check(reg, twins[0], hemi) == "neither"


def _mutations(base):
    """Every one-edge recolouring, every dropped edge, a fifth colour
    declared, and the 16-vertex hypercube in place of the quotient."""
    edges = list(base.edges)
    k = base.n_colors
    for i, (u, v, c) in enumerate(edges):
        for new in range(k):
            if new != c:
                yield ColoredGraph(base.n_vertices, k,
                                   tuple(edges[:i] + [(u, v, new)] + edges[i + 1:]))
        yield ColoredGraph(base.n_vertices, k, tuple(edges[:i] + edges[i + 1:]))
    yield ColoredGraph(base.n_vertices, k + 1, tuple(edges))
    yield hypercube_embedding().graph


def test_mutated_base_graphs_reported_not_raised(hemi):
    graphs = list(_mutations(hemi.graph))
    assert len(graphs) == 16 * 3 + 16 + 1 + 1
    for g in graphs:
        r = verify_paper(base_graph=g)  # must not raise
        assert not r.passed
        r.to_text()


def _rank_three_bases(g):
    """g without one of its perfect matchings, each proper 3-coloring
    class of what is left in turn: 24 matchings of the quotient graph,
    each leaving a 3-cube graph with 4 classes."""
    for m in itertools.combinations(g.edge_pairs, g.n_vertices // 2):
        if len(set(itertools.chain(*m))) == g.n_vertices:
            rest = tuple((u, v, 0) for u, v in g.edge_pairs if (u, v) not in m)
            yield from enumerate_matching_colorings(
                ColoredGraph(g.n_vertices, 3, rest), up_to_color_permutation=True)


def test_rank_three_bases_reported_not_raised(hemi):
    # A 3-coloring of the quotient's points is a rank-3 base.  Those with
    # a twin pair reach the zigzag rows, which walk rank-3 polytopes, and
    # the cube row, whose direction coloring has four colours on a
    # 3-regular graph and so builds no polytope: that row is reported.
    bases = list(_rank_three_bases(hemi.graph))
    assert len(bases) == len(set(bases)) == 96
    lengths = []
    for g in bases:
        r = verify_paper(base_graph=g)  # must not raise
        assert not r.passed
        lengths.append(len(r.checks))
        rows = {c.key: c for c in r.checks}
        if "lift.regular_lift_is_cube" in rows:
            cube = rows["lift.regular_lift_is_cube"]
            assert not cube.passed
            assert cube.computed.startswith(
                "unavailable (graph is not matching-colored: vertex 0 has degree 3")
        r.to_text()
        r.to_json()
    assert sorted(Counter(lengths).items()) == [(16, 72), (46, 24)]


def test_hypercube_base_graph_fails_its_rows(cube_embedding):
    r = verify_paper(base_graph=cube_embedding.graph)
    failed = [c.key for c in r.checks if not c.passed]
    assert failed == ["base.complete_bipartite", "base.embedding"]
    assert "16 vertices" in r.checks[1].computed


def test_failing_rows_render_sets_sorted():
    row = CheckResult("k", "claim", DERIVED, {(2, "b"), (1, "a"), (10, "c")},
                      frozenset({3, -1}))
    text = VerificationReport((row,)).to_text()
    assert "(expected {(1, 'a'), (10, 'c'), (2, 'b')}, got {-1, 3})" in text


def test_failing_report_text_ignores_hash_seed():
    # a non-twin coloring fails rows whose values are sets of tuples,
    # which these hash seeds iterate in more than one order
    src = str(Path(chiralcube.__file__).resolve().parents[1])
    code = ("import chiralcube as cc\n"
            "g = cc.hemicube_embedding().graph\n"
            "c = cc.enumerate_matching_colorings(g, up_to_color_permutation=True)[1]\n"
            "print(cc.verify_paper(coloring=c).to_text(), end='')\n")
    texts = set()
    for seed in ("0", "1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert "[FAIL]" in run.stdout
        texts.add(run.stdout)
    assert len(texts) == 1
