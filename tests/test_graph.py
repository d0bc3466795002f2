"""Colored graph container, coloring search, colored isomorphism."""

import copy
import dataclasses
import gc
import itertools
import pickle

import pytest

from chiralcube.classify import CheckResult, VerificationReport, verify_paper
from chiralcube.geometry import EmbeddedGraph, IsometryMatrix, lift_double_cover
from chiralcube.group import (SymmetryClassification, VertexPermutation,
                              color_respecting_automorphisms)
from chiralcube.graph import (ColoredGraph, GraphError, _gather,
                              colored_isomorphism, components_by_colorset,
                              enumerate_matching_colorings,
                              iter_colored_isomorphisms, validate)
from chiralcube.polytope import Face, FlagGraph, colourful_polytope


def six_cycle():
    return ColoredGraph(6, 2, (
        (0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 4, 1), (4, 5, 0), (0, 5, 1)))


# ----------------------------------------------------------- container


def _records():
    """One record of each value type: (record, its field names, values)."""
    edge = ColoredGraph(2, 1, ((0, 1, 0),))
    check = CheckResult("k", "a claim", "derived", {1}, [2])
    fg = colourful_polytope(six_cycle()).flag_graph()
    return [
        (edge, ("n_vertices", "n_colors", "edges"), (2, 1, ((0, 1, 0),))),
        (VertexPermutation((1, 0, 2)), ("images",), ((1, 0, 2),)),
        (SymmetryClassification("chiral", (96, 96)), ("verdict", "orbit_sizes"),
         ("chiral", (96, 96))),
        (Face(1, frozenset({0}), frozenset({0, 1}), frozenset({(0, 1)})),
         ("rank", "colors", "vertices", "edges"),
         (1, frozenset({0}), frozenset({0, 1}), frozenset({(0, 1)}))),
        (fg, ("flags", "index", "rho"), (fg.flags, fg.index, fg.rho)),
        (IsometryMatrix((1, 0), (-1, 1), True), ("perm", "signs", "projective"),
         ((1, 0), (1, -1), True)),
        (EmbeddedGraph(edge, ((0, 1), (1, 1)), False), ("graph", "coords", "projective"),
         (edge, ((0, 1), (1, 1)), False)),
        (check, ("key", "claim", "anchor", "expected", "computed"),
         ("k", "a claim", "derived", {1}, [2])),
        (VerificationReport((check,)), ("checks",), ((check,),)),
    ]


def test_records_behave_as_frozen_dataclasses():
    # each record is checked against a frozen dataclass of its name and
    # fields, built here: the program itself imports no dataclasses
    records = _records()
    assert len({type(r) for r, _, _ in records}) == 9
    for r, names, values in records:
        cls = type(r)
        oracle = dataclasses.make_dataclass(cls.__qualname__, names, frozen=True)(*values)
        assert tuple(getattr(r, f) for f in names) == values
        assert repr(r) == repr(oracle)
        try:
            want = hash(oracle)
        except TypeError:  # a dict, set or list among the fields
            with pytest.raises(TypeError):
                hash(r)
        else:
            assert hash(r) == want == hash(values)
        same = cls(*values)
        assert same == r and not same != r and same is not r
        assert cls(**dict(zip(names, values))) == r == copy.copy(r) == copy.deepcopy(r)
        assert pickle.loads(pickle.dumps(r)) == r
        sub = type("Sub", (cls,), {"__slots__": ()})(*values)
        assert sub != r and r != sub and r != values and r != oracle
        for other, _, _ in records:
            assert (other == r) == (other is r)
        for name in names + ("extra",):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(r, name)
        assert tuple(getattr(r, f) for f in names) == values
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values[:1], **{names[0]: values[0]})
        assert hasattr(r, "__dict__") == (cls is EmbeddedGraph)
    # a report row's verdict is read off its values, not stored as a field
    failing = next(r for r, _, _ in records if type(r) is CheckResult)
    passing = CheckResult("k", "a claim", "derived", (1, {2}), (1, {2}))
    assert "passed" not in CheckResult._fields
    assert (passing.passed, failing.passed) == (True, False)
    for row in (passing, failing):
        assert row.passed == (row.expected == row.computed)


def test_validating_records_refuse_what_they_refused():
    with pytest.raises(GraphError, match="loop at vertex 1"):
        ColoredGraph(2, 1, ((1, 1, 0),))
    with pytest.raises(GraphError, match="duplicate edge"):
        ColoredGraph(2, 2, ((0, 1, 0), (1, 0, 1)))
    with pytest.raises(GraphError, match="out of range"):
        ColoredGraph(2, 1, ((0, 2, 0),))
    with pytest.raises(GraphError, match="color 1 out of range"):
        ColoredGraph(2, 1, ((0, 1, 1),))
    with pytest.raises(ValueError, match="not a bijection"):
        VertexPermutation((0, 0, 1))
    for perm, signs in (((0, 1), (1, 0)), ((0, 0), (1, 1)), ((0, 1), (1,))):
        with pytest.raises(ValueError, match="not a signed permutation"):
            IsometryMatrix(perm, signs)
    edge = ColoredGraph(2, 1, ((0, 1, 0),))
    for coords, projective, message in (
            (((0,),), False, "coordinate count"),
            (((0,), (1, 1)), False, "unequal length"),
            (((0, 0), (1, 0)), True, "zero vector"),
            (((-1, 0), (1, 1)), True, "not canonical"),
            (((0, 1), (0, 1)), False, "collide"),
            (((0, 0), (1, 1)), False, "not axis-aligned")):
        with pytest.raises(GraphError, match=message):
            EmbeddedGraph(edge, coords, projective)
    assert IsometryMatrix((1, 0), (-1, 1), True).signs == (1, -1)
    assert VertexPermutation([2, 0, 1]).images == (2, 0, 1)


def test_edges_are_canonicalized():
    g = ColoredGraph(3, 3, ((2, 1, 0), (0, 2, 1), (1, 0, 2)))
    assert g.edges == ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def test_gather_builds_a_tuple_for_any_number_of_indices():
    # itemgetter raises for no index and returns a bare item for one; the
    # gather returns the tuple of items in every case, repeats included,
    # over a tuple and over a dict with tuple keys (a flag index)
    seq = (5, 7, 11, 13)
    index = {(0, 1): 4, (1, 2): 9, (2, 0): 6}
    n = 0
    for a, keys in ((seq, range(len(seq))), (index, list(index))):
        for k in range(4):
            for b in itertools.product(keys, repeat=k):
                assert _gather(b)(a) == tuple(a[i] for i in b)
                n += 1
    assert n == 85 + 40
    assert _gather([2])(seq) == (11,) and _gather(())(seq) == ()


def test_loops_rejected():
    with pytest.raises(GraphError):
        ColoredGraph(2, 1, ((1, 1, 0),))


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError):
        ColoredGraph(3, 2, ((0, 1, 0), (1, 0, 1)))


def test_color_out_of_range_rejected():
    with pytest.raises(GraphError):
        ColoredGraph(2, 1, ((0, 1, 1),))
    # and so is an endpoint
    with pytest.raises(GraphError, match=r"^edge \(0,2\) out of range$"):
        ColoredGraph(2, 1, ((0, 2, 0),))


def test_color_of_is_symmetric():
    g = six_cycle()
    assert g.color_of(0, 1) == g.color_of(1, 0) == 0
    assert g.color_of(5, 0) == 1
    with pytest.raises(KeyError):
        g.color_of(0, 2)


def test_adjacency_and_degrees():
    g = six_cycle()
    assert _adjacency(g)[0] == {1, 5}
    assert all(d == 2 for d in g.degrees())


def test_color_classes():
    cls = six_cycle().color_classes()
    assert cls[0] == ((0, 1), (2, 3), (4, 5))
    assert cls[1] == ((0, 5), (1, 2), (3, 4))


def test_recolored_roundtrip():
    g = six_cycle()
    assert g.recolored(g) == g


def test_recolored_rejects_another_skeleton():
    # an extra isolated vertex, or one edge fewer
    g = six_cycle()
    for other in (ColoredGraph(7, 2, g.edges), ColoredGraph(6, 2, g.edges[1:])):
        with pytest.raises(GraphError, match="different edge list"):
            g.recolored(other)


def test_json_roundtrip():
    g = six_cycle()
    data = g.to_json()
    assert ColoredGraph(data["n_vertices"], data["n_colors"],
                        tuple(map(tuple, data["edges"]))) == g


def test_hemicube_graph_is_valid(hemi):
    assert validate(hemi.graph) == []


def test_validate_reports_improper_coloring():
    # two edges at vertex 1 share color 0
    g = ColoredGraph(4, 2, ((0, 1, 0), (1, 2, 0), (2, 3, 1), (0, 3, 1)))
    assert any("proper" in d or "color" in d for d in validate(g))


def test_validate_reports_disconnection():
    g = ColoredGraph(4, 1, ((0, 1, 0), (2, 3, 0)))
    diags = validate(g)
    assert any("connect" in d for d in diags)


# ---------------------------------------------------------- components


def test_components_no_colors_gives_singletons(hemi):
    comps = components_by_colorset(hemi.graph, ())
    assert len(comps) == 8
    assert all(len(vs) == 1 and es == () for vs, es in comps)


def test_components_single_color_are_the_matching_edges(hemi):
    comps = components_by_colorset(hemi.graph, (2,))
    assert len(comps) == 4
    assert all(len(vs) == 2 and len(es) == 1 for vs, es in comps)


def test_components_all_colors_connect_everything(hemi):
    comps = components_by_colorset(hemi.graph, (0, 1, 2, 3))
    assert len(comps) == 1
    assert comps[0][0] == tuple(range(8))


def test_components_sorted_by_least_vertex(hemi):
    comps = components_by_colorset(hemi.graph, (0, 1))
    assert [vs[0] for vs, _ in comps] == sorted(vs[0] for vs, _ in comps)


def test_components_unknown_color_rejected(hemi):
    with pytest.raises(GraphError):
        components_by_colorset(hemi.graph, (0, 7))


def test_components_match_networkx(hemi, cube_embedding, cover):
    # every color subset of three connected graphs, and of one graph with
    # two 4-cycles and an isolated vertex; each component is compared
    # with networkx's vertex set and the subgraph edges inside it
    nx = pytest.importorskip("networkx")
    import itertools
    apart = ColoredGraph(9, 3, ((0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 3, 1),
                                (4, 5, 0), (5, 6, 2), (6, 7, 0), (4, 7, 2)))
    for g in (hemi.graph, cube_embedding.graph, cover.graph, apart):
        for r in range(g.n_colors + 1):
            for colors in itertools.combinations(range(g.n_colors), r):
                sub = nx.Graph()
                sub.add_nodes_from(range(g.n_vertices))
                sub.add_edges_from((u, v) for u, v, c in g.edges if c in colors)
                want = sorted(
                    (tuple(sorted(vs)),
                     tuple(sorted(tuple(sorted(e)) for e in sub.subgraph(vs).edges)))
                    for vs in nx.connected_components(sub))
                assert components_by_colorset(g, colors) == want


# ------------------------------------------------------------- search


def test_six_cycle_has_one_coloring_up_to_renaming():
    found = enumerate_matching_colorings(six_cycle(),
                                         up_to_color_permutation=True)
    assert len(found) == 1


def test_six_cycle_has_two_raw_colorings():
    assert len(enumerate_matching_colorings(six_cycle())) == 2


def test_hemicube_coloring_counts(hemi):
    reps = enumerate_matching_colorings(hemi.graph,
                                        up_to_color_permutation=True)
    assert len(reps) == 24
    raw = enumerate_matching_colorings(hemi.graph)
    # classes are free orbits of the 24 color permutations here
    assert len(raw) == 24 * 24
    assert len({c.canonical().colors for c in raw}) == 24


def test_colorings_are_graphs(hemi, cube_embedding):
    # a coloring is a ColoredGraph over the skeleton: it builds its own
    # polytope, is its own recoloring, and is canonical as found
    for c in enumerate_matching_colorings(hemi.graph, up_to_color_permutation=True):
        assert isinstance(c, ColoredGraph)
        assert (colourful_polytope(c).faces
                == colourful_polytope(hemi.graph.recolored(c)).faces)
        assert c.canonical() == c
    for e in (hemi, cube_embedding):
        assert e.direction_coloring == e.graph


def test_labelled_colorings_share_edge_triples(hemi):
    # one (u, v, c) object per edge and color, whatever the coloring
    labelled = enumerate_matching_colorings(hemi.graph)
    assert len(labelled) == 576
    assert len({id(t) for c in labelled for t in c.edges}) == 16 * 4


def test_enumerated_colorings_equal_validated_graphs(hemi):
    # the search builds its colorings without re-running validation; each
    # must be the graph that validating its own edge list gives
    found = [c for g in (hemi.graph, six_cycle()) for up in (False, True)
             for c in enumerate_matching_colorings(g, up_to_color_permutation=up)]
    assert len(found) == 576 + 24 + 2 + 1
    for c in found:
        checked = ColoredGraph(c.n_vertices, c.n_colors, c.edges)
        assert (type(c), c.n_vertices, c.n_colors, c.edges) == (
            ColoredGraph, checked.n_vertices, checked.n_colors, checked.edges)
        assert c == checked and hash(c) == hash(checked)


def _perfect_matchings(g):
    """Every perfect matching of g's skeleton, as a frozenset of edge
    positions: the least unmatched vertex is matched along each of its
    edges in turn."""
    at = [[] for _ in range(g.n_vertices)]
    for i, (u, v) in enumerate(g.edge_pairs):
        at[u].append((i, v))
        at[v].append((i, u))
    out = []

    def walk(matched, chosen):
        x = next((x for x in range(g.n_vertices) if x not in matched), None)
        if x is None:
            out.append(frozenset(chosen))
            return
        for i, y in at[x]:
            if y not in matched:
                walk(matched | {x, y}, chosen + [i])

    walk(frozenset(), [])
    return out


def _disjoint_matching_tuples(g, canonical):
    """The ordered k-tuples (k = g.n_colors) of pairwise disjoint perfect
    matchings of g, each as the color tuple that gives edge i color j when
    the j-th matching holds it, sorted.  With canonical, only the tuples
    whose j-th matching holds the least edge outside the ones before it,
    one per renaming class of colors."""
    matchings = _perfect_matchings(g)
    m = len(g.edge_pairs)
    out = []

    def grow(chosen, covered):
        if len(chosen) == g.n_colors:
            colors = [None] * m
            for j, matching in enumerate(chosen):
                for i in matching:
                    colors[i] = j
            out.append(tuple(colors))
            return
        least = min(set(range(m)) - covered)
        for matching in matchings:
            if not matching & covered and (least in matching or not canonical):
                grow(chosen + [matching], covered | matching)

    grow([], frozenset())
    return sorted(out)


def test_colorings_are_the_tuples_of_disjoint_perfect_matchings(hemi, cube_embedding):
    # the search, in lexicographic color order, against a separate one:
    # perfect matchings first, then tuples of disjoint ones
    # (the smallest graph first: a search that lets colors repeat at a
    # vertex grows much larger on the others)
    for g, canonical, count in ((six_cycle(), False, 2), (six_cycle(), True, 1),
                                (hemi.graph, False, 576), (hemi.graph, True, 24),
                                (cube_embedding.graph, True, 1840)):
        found = [c.colors for c in
                 enumerate_matching_colorings(g, up_to_color_permutation=canonical)]
        assert len(found) == count
        assert found == _disjoint_matching_tuples(g, canonical)


def test_search_rejects_wrong_regularity():
    path = ColoredGraph(3, 2, ((0, 1, 0), (1, 2, 1)))
    with pytest.raises(GraphError):
        enumerate_matching_colorings(path)


def test_search_is_deterministic(hemi):
    a = enumerate_matching_colorings(hemi.graph, up_to_color_permutation=True)
    b = enumerate_matching_colorings(hemi.graph, up_to_color_permutation=True)
    assert [c.colors for c in a] == [c.colors for c in b]



def test_search_leaves_no_cyclic_garbage(hemi):
    # the search recurses through a closure; one that kept referring to
    # itself would hold every coloring found until the cycle collector ran
    gc.collect()
    gc.disable()
    try:
        gc.collect()
        enumerate_matching_colorings(hemi.graph)
        enumerate_matching_colorings(hemi.graph, up_to_color_permutation=True)
        verify_paper()
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0

# --------------------------------------------------------- isomorphism


def test_identity_isomorphism_found(hemi):
    g = hemi.graph
    vm, cm = colored_isomorphism(g, g)
    assert sorted(vm) == list(range(8))
    assert sorted(cm) == list(range(4))


def test_isomorphism_handles_color_renaming(hemi):
    g = hemi.graph
    swapped = g.recolored(g.permuted({0: 1, 1: 0, 2: 3, 3: 2}))
    vm, cm = colored_isomorphism(g, swapped)
    # the identity vertex map with the color swap must be among witnesses
    assert any(vm == tuple(range(8)) and cm == (1, 0, 3, 2)
               for vm, cm in iter_colored_isomorphisms(g, swapped))


def test_isomorphism_witnesses_check_out(hemi):
    g = hemi.graph
    n = 0
    for vm, cm in iter_colored_isomorphisms(g, g):
        n += 1
        for u, v, c in g.edges:
            assert g.color_of(vm[u], vm[v]) == cm[c]
    assert n == 192


def test_non_isomorphic_pair_yields_none(hemi):
    g = hemi.graph
    # 6-cycle vs hemicube graph: different sizes, trivially no witness
    assert colored_isomorphism(g, six_cycle()) is None


def test_chiral_recoloring_is_isomorphic_to_regular(hemi, twins):
    g = hemi.graph
    assert colored_isomorphism(g.recolored(twins[0]), g) is not None


# ----------------------------------------------- isomorphism oracle


def _adjacency(g):
    """Neighbour sets read off the edge list, colours ignored."""
    adj = {v: set() for v in range(g.n_vertices)}
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _backtracking_isomorphisms(g1, g2):
    """Oracle for iter_colored_isomorphisms: the same witnesses, found
    without propagation.

    Backtracks over g1's vertices in BFS order, extending a partial
    color bijection as edges become determined, so the witnesses come
    out sorted by the images of g1's vertices in that order.  Needs no
    connectivity and no proper coloring.
    """
    if (g1.n_vertices != g2.n_vertices or g1.n_colors != g2.n_colors
            or len(g1.edges) != len(g2.edges)):
        return
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return
    sizes1 = sorted(len(es) for es in g1.color_classes().values())
    sizes2 = sorted(len(es) for es in g2.color_classes().values())
    if sizes1 != sizes2:
        return

    adj1, adj2 = _adjacency(g1), _adjacency(g2)
    deg1, deg2 = g1.degrees(), g2.degrees()
    col1 = {(u, v): c for u, v, c in g1.edges}
    col2 = {(u, v): c for u, v, c in g2.edges}

    def color1(x, y):
        return col1[(x, y) if x < y else (y, x)]

    def color2(x, y):
        return col2[(x, y) if x < y else (y, x)]

    # BFS order: each later vertex (after a component root) has an
    # assigned neighbor, so candidate images are constrained immediately.
    order, seen = [], set()
    for s in range(g1.n_vertices):
        if s in seen:
            continue
        queue = [s]
        seen.add(s)
        while queue:
            x = queue.pop(0)
            order.append(x)
            for y in sorted(adj1[x]):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)

    vmap = [-1] * g1.n_vertices
    used_img = [False] * g2.n_vertices
    cmap = {}   # partial color bijection
    cinv = {}

    def consistent(x, y):
        """Try extending by x -> y.  Mutates cmap/cinv; returns
        (ok, colors added) so the caller can roll back."""
        added = []
        for n1 in adj1[x]:
            img = vmap[n1]
            if img < 0:
                continue
            if img not in adj2[y]:
                return False, added
            c1 = color1(x, n1)
            c2 = color2(y, img)
            if c1 in cmap:
                if cmap[c1] != c2:
                    return False, added
            elif c2 in cinv:
                return False, added
            else:
                cmap[c1] = c2
                cinv[c2] = c1
                added.append(c1)
        return True, added

    def rollback(added):
        for c1 in added:
            del cinv[cmap[c1]]
            del cmap[c1]

    def finish_witness():
        # colors unused by g1 (impossible when classes are matchings,
        # possible in general) get mapped to the free colors in order
        fill = [cmap.get(c) for c in range(g1.n_colors)]
        spare = sorted(set(range(g1.n_colors)) - set(cinv))
        for i, c in enumerate(fill):
            if c is None:
                fill[i] = spare.pop(0)
        color_map = tuple(fill)
        mapped = set()
        for u, v, c in g1.edges:
            a, b = vmap[u], vmap[v]
            if a > b:
                a, b = b, a
            mapped.add((a, b, color_map[c]))
        assert mapped == set(g2.edges), "isomorphism witness failed verification"
        return tuple(vmap), color_map

    def place(i):
        if i == len(order):
            yield finish_witness()
            return
        x = order[i]
        for y in range(g2.n_vertices):
            if used_img[y] or deg2[y] != deg1[x]:
                continue
            ok, added = consistent(x, y)
            if ok:
                vmap[x] = y
                used_img[y] = True
                yield from place(i + 1)
                used_img[y] = False
                vmap[x] = -1
            rollback(added)

    yield from place(0)


def path():
    return ColoredGraph(4, 3, ((0, 1, 0), (1, 2, 1), (2, 3, 2)))


def k4():
    return ColoredGraph(4, 3, ((0, 1, 0), (2, 3, 0), (0, 2, 1), (1, 3, 1),
                               (0, 3, 2), (1, 2, 2)))


def test_propagation_matches_backtracking_oracle(hemi, cube_embedding):
    """Colored isomorphisms found by propagation, witness for witness and
    in order, against a vertex-by-vertex backtracking search, on small
    graphs, improper and non-injective cases, the quotient, the 4-cube
    and every coloring class with its lift."""
    base = hemi.graph
    cube = lift_double_cover(hemi, hemi.direction_coloring).graph
    renamed = base.recolored(base.permuted({0: 2, 1: 3, 2: 0, 3: 1}))
    cycle3, cycle4 = (ColoredGraph(6, k, six_cycle().edges) for k in (3, 4))
    improper = ColoredGraph(6, 2, ((0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 4, 0),
                                   (4, 5, 1), (0, 5, 1)))
    # the path folds onto this triangle edge for edge, but not injectively
    triangle = ColoredGraph(4, 3, ((0, 1, 0), (1, 2, 1), (0, 2, 2)))
    pairs = [(six_cycle(), six_cycle()), (cycle3, cycle3), (cycle4, cycle4),
             (six_cycle(), improper), (path(), path()), (path(), triangle),
             (path(), ColoredGraph(4, 3, ((0, 1, 2), (1, 2, 0), (2, 3, 1)))),
             (k4(), k4()), (cube_embedding.graph, cube), (cube, cube_embedding.graph),
             (base, renamed), (renamed, base),
             (base, six_cycle()), (six_cycle(), k4()), (path(), cycle3),
             (base, cube), (cube, base)]
    for c in enumerate_matching_colorings(base, up_to_color_permutation=True):
        g = base.recolored(c)
        lift = lift_double_cover(hemi, c).graph
        pairs += [(g, g), (g, base), (lift, lift), (lift, cube)]
    assert len(pairs) == 17 + 4 * 24
    found = 0
    for a, b in pairs:
        want = list(_backtracking_isomorphisms(a, b))
        assert list(iter_colored_isomorphisms(a, b)) == want
        found += len(want)
    assert found > 0


def test_isomorphism_needs_connected_properly_colored_source():
    disconnected = ColoredGraph(4, 1, ((0, 1, 0), (2, 3, 0)))
    improper = ColoredGraph(4, 2, ((0, 1, 0), (1, 2, 0), (2, 3, 1), (0, 3, 1)))
    # the precondition is checked before sizes are compared
    for g2 in (disconnected, six_cycle()):
        with pytest.raises(GraphError, match="disconnected: vertex 0 reaches 2 of 4"):
            list(iter_colored_isomorphisms(disconnected, g2))
        with pytest.raises(GraphError, match="color 0 repeated at vertex 1"):
            colored_isomorphism(improper, g2)
    with pytest.raises(GraphError, match="^graph has no vertices$"):
        list(iter_colored_isomorphisms(ColoredGraph(0, 1, ()), six_cycle()))
    # an improperly colored target only yields nothing
    assert colored_isomorphism(ColoredGraph(4, 2, ((0, 1, 0), (1, 2, 1), (2, 3, 0),
                                                   (0, 3, 1))), improper) is None


def test_relabelled_copies_match_the_oracle(hemi):
    """Randomly relabelled copies (vertices and colors) of the coloring
    classes and their lifts: the relabelling is found, the witnesses are
    as many as the automorphisms, and they equal the backtracking
    search's."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    base = hemi.graph
    classes = enumerate_matching_colorings(base, up_to_color_permutation=True)
    orders = {}

    @hyp.settings(deadline=None, derandomize=True, database=None, max_examples=30)
    @hyp.given(st.data())
    def check(data):
        c = data.draw(st.sampled_from(classes))
        lifted = data.draw(st.booleans())
        g = lift_double_cover(hemi, c).graph if lifted else base.recolored(c)
        tau = tuple(data.draw(st.permutations(range(g.n_vertices))))
        pi = tuple(data.draw(st.permutations(range(g.n_colors))))
        h = ColoredGraph(g.n_vertices, g.n_colors,
                         tuple((tau[u], tau[v], pi[k]) for u, v, k in g.edges))
        found = list(iter_colored_isomorphisms(g, h))
        assert (tau, pi) in found
        if g not in orders:
            orders[g] = color_respecting_automorphisms(g).order
        assert len(found) == orders[g]
        assert found == list(_backtracking_isomorphisms(g, h))

    check()
