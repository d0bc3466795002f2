"""Face poset construction, polytopality diagnostics, flags, zigzags."""

import functools
import itertools
import math
import random

import pytest

from chiralcube.graph import ColoredGraph, GraphError, components_by_colorset, validate
from chiralcube.polytope import (Face, Polytope, canonical_cycle,
                                 check_polytopality, colourful_polytope,
                                 f_vector, petrie_polygons, schlafli_type,
                                 to_json, two_face_cycle, two_face_cycles)


def test_face_counts_by_rank(P):
    assert [len(P.faces_of_rank(r)) for r in range(-1, 5)] == \
        [1, 8, 16, 12, 4, 1]
    assert f_vector(P) == (8, 16, 12, 4)


def test_vertices_inherit_graph_labels(P):
    verts = sorted(min(P.faces[i].vertices) for i in P.faces_of_rank(0))
    assert verts == list(range(8))


def test_rank_faces_carry_colorsets(P):
    for fid in P.faces_of_rank(2):
        assert len(P.faces[fid].colors) == 2
    for fid in P.faces_of_rank(3):
        assert len(P.faces[fid].colors) == 3


def test_incidence_is_containment(P):
    f2 = P.faces_of_rank(2)[0]
    above = [j for j in P.faces_of_rank(3) if P.leq(f2, j)]
    assert len(above) == 2  # diamond at ranks 2 < 4
    for j in above:
        assert P.faces[f2].vertices <= P.faces[j].vertices
        assert P.faces[f2].edges <= P.faces[j].edges


def test_polytopality_clean(P, Q, H):
    assert check_polytopality(P) == []
    assert check_polytopality(Q) == []
    assert check_polytopality(H) == []


def test_polytopality_flags_missing_top(P):
    top = P.faces_of_rank(4)[0]
    maimed = Polytope(4, P.faces[:top] + P.faces[top + 1:])
    problems = check_polytopality(maimed)
    assert problems and "rank 4" in problems[0]
    # a top without one edge leaves the facets through that edge below nothing
    f = P.faces[top]
    edge = min(f.edges)
    cut = Face(4, f.colors, f.vertices, f.edges - {edge})
    stranded = [j for j in P.faces_of_rank(3) if edge in P.faces[j].edges]
    assert len(stranded) == 3  # one facet per colour triple through the edge
    got = check_polytopality(Polytope(4, P.faces[:top] + (cut,)))
    assert [d for d in got if "nothing above" in d] == [
        "face %d (rank 3) has nothing above it" % j for j in stranded]


def test_improper_coloring_rejected():
    g = ColoredGraph(4, 2, ((0, 1, 0), (1, 2, 0), (2, 3, 1), (0, 3, 1)))
    with pytest.raises(GraphError):
        colourful_polytope(g)


def test_sections_of_facets_are_cubes(P):
    bot = P.faces_of_rank(-1)[0]
    for fid in P.faces_of_rank(3):
        sec = P.section(bot, fid)
        assert f_vector(sec) == (8, 12, 6)
        with pytest.raises(ValueError, match="^bottom %d is not below top %d$" % (fid, bot)):
            P.section(fid, bot)
        assert schlafli_type(sec) == (4, 3)
        assert check_polytopality(sec) == []


def _interval(p, bottom, top):
    """The ids of p's faces between bottom and top, increasing."""
    return [i for i in range(len(p.faces)) if p.leq(bottom, i) and p.leq(i, top)]


def test_face_index_is_built_on_first_lookup(P):
    # a facet section finds its shape without looking a face up, so it
    # builds no face key; face_index then answers as its parent does
    bot = P.faces_of_rank(-1)[0]
    for fid in P.faces_of_rank(3):
        sec = P.section(bot, fid)
        ids = _interval(P, bot, fid)
        assert (f_vector(sec), schlafli_type(sec), check_polytopality(sec)) == \
            ((8, 12, 6), (4, 3), [])
        assert "_index" not in vars(sec)
        # a facet keeps its faces' ranks, so their keys are the parent's
        for k, f in enumerate(sec.faces):
            assert sec.face_index(f.rank, f.key) == k
            assert P.face_index(f.rank, f.key) == ids[k]
        assert sec.face_index(0, frozenset({(0, 1)})) is None
        assert "_index" in vars(sec)


def test_facet_sections_share_their_parents_faces(P, Q, H):
    # a facet section keeps its faces' ranks, so it holds its parent's
    # Face objects; a vertex figure shifts ranks down by one and holds
    # new faces with the same colours, vertices and edges
    for p in (P, Q, H):
        bot, top = p.faces_of_rank(-1)[0], p.faces_of_rank(4)[0]
        for fid in p.faces_of_rank(3):
            sec, ids = p.section(bot, fid), _interval(p, bot, fid)
            assert len(sec.faces) == len(ids) > 0
            assert all(f is p.faces[i] for f, i in zip(sec.faces, ids))
        v = p.faces_of_rank(0)[0]
        fig, ids = p.section(v, top), _interval(p, v, top)
        assert len(fig.faces) == len(ids) == 16
        for f, i in zip(fig.faces, ids):
            g = p.faces[i]
            assert f is not g and f.rank == g.rank - 1
            assert (f.colors, f.vertices, f.edges) == (g.colors, g.vertices, g.edges)


def test_vertex_figure_section(P):
    v = P.faces_of_rank(0)[0]
    top = P.faces_of_rank(4)[0]
    fig = P.section(v, top)
    # vertex figure of {4,3,3} is a tetrahedron
    assert f_vector(fig) == (4, 6, 4)


def test_schlafli_types(P, Q, H):
    assert schlafli_type(P) == (4, 3, 3)
    assert schlafli_type(Q) == (4, 3, 3)
    assert schlafli_type(H) == (8, 3, 3)


def test_flag_graph_shape(P):
    fg = P.flag_graph()
    assert len(fg.flags) == 192
    # each flag lists one face id per proper rank
    f = fg.flags[0]
    assert [P.faces[x].rank for x in f] == [0, 1, 2, 3]


def test_rank_zero_section_has_one_empty_flag(P):
    # a vertex-in-edge section has rank 0 and no proper faces: its one
    # flag is the empty tuple
    e = P.faces_of_rank(1)[0]
    v = next(i for i in P.faces_of_rank(0) if P.leq(i, e))
    fg = P.section(v, e).flag_graph()
    assert (fg.flags, fg.index, fg.rho) == (((),), {(): 0}, ())


def test_flag_adjacency_changes_one_rank(P):
    fg = P.flag_graph()
    for j in range(len(fg.flags)):
        for i in range(4):
            k = fg.rho[i][j]
            assert k != j
            diff = [r for r in range(4) if fg.flags[j][r] != fg.flags[k][r]]
            assert diff == [i]


def test_canonical_cycle_invariance():
    cyc = (3, 1, 4, 1, 5)
    rotated = (4, 1, 5, 3, 1)
    reversed_ = tuple(reversed(cyc))
    assert canonical_cycle(cyc) == canonical_cycle(rotated)
    assert canonical_cycle(cyc) == canonical_cycle(reversed_)
    assert canonical_cycle((2, 0, 1)) == (0, 1, 2)


def test_two_face_cycles(P):
    cycles = two_face_cycles(P)
    assert len(cycles) == 12
    assert all(len(c) == 4 for c in cycles)
    assert cycles == tuple(sorted(cycles))


def test_two_face_cycle_rejects_wrong_rank(P):
    with pytest.raises(ValueError):
        two_face_cycle(P, P.faces_of_rank(3)[0])


@pytest.mark.parametrize("vertices, edges", [
    # a cycle 1-2-6 reached by a path 0-9-6 from the least vertex
    ({0, 1, 2, 6, 9}, {(0, 9), (6, 9), (1, 6), (1, 2), (2, 6)}),
    ({0, 1, 2}, {(0, 1), (1, 2)}),  # a path
    ({0, 1, 2, 3, 4, 5}, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}),  # two cycles
    ({0, 1, 2, 3}, {(0, 1), (1, 2), (0, 2)}),  # a vertex off the cycle
    ({0}, set()),
])
def test_two_face_cycle_rejects_faces_that_are_not_one_cycle(vertices, edges):
    face = Face(2, frozenset(), frozenset(vertices), frozenset(edges))
    p = Polytope(2, [face, face])
    with pytest.raises(ValueError, match=r"^face 1 is not one cycle through its %d vertices$"
                       % len(vertices)):
        two_face_cycle(p, 1)


def test_petrie_polygons_of_the_quotient(P):
    zigzags = petrie_polygons(P)
    assert len(zigzags) == 24
    assert all(len(z) == 4 for z in zigzags)


def test_octagon_two_faces_of_the_cover(H):
    cycles = two_face_cycles(H)
    assert len(cycles) == 12
    assert all(len(c) == 8 for c in cycles)


# ------------------------------------------------ flag-walk oracles


def _schlafli_by_all_flags(p):
    """schlafli_type as it was: the orbit of every flag walked in full."""
    fg = p.flag_graph()
    out = []
    for i in range(1, p.rank):
        lengths = set()
        for j in range(len(fg.flags)):
            steps, cur = 0, j
            while True:
                cur = fg.rho[i][fg.rho[i - 1][cur]]
                steps += 1
                if cur == j:
                    break
            lengths.add(steps)
        if len(lengths) != 1:
            return None
        out.append(lengths.pop())
    return tuple(out)


def _petrie_by_all_flags(p):
    """petrie_polygons as it was: a zigzag walked from every flag."""
    fg = p.flag_graph()
    seen = set()
    for j in range(len(fg.flags)):
        verts, cur = [], j
        while True:
            verts.append(min(p.faces[fg.flags[cur][0]].vertices))
            for i in range(p.rank):
                cur = fg.rho[i][cur]
            if cur == j:
                break
        seen.add(canonical_cycle(verts))
    return tuple(sorted(seen))


def _hexagonal_prism():
    """Rungs in colour 0, each hexagon alternating colours 1 and 2."""
    edges = [(i, i + 6, 0) for i in range(6)]
    edges += [(b + i, b + (i + 1) % 6, 1 + i % 2) for b in (0, 6) for i in range(6)]
    return colourful_polytope(ColoredGraph(12, 3, tuple(edges)))


def test_flag_walks_match_all_flags_oracles(P, Q, H, cube_embedding):
    """schlafli_type reads the cycles of rho_(i-1) rho_i and
    petrie_polygons those of rho_(n-1) ... rho_0, each composed from
    whole permutations; both against walks from every flag, on P, Q,
    Q-hat and the 4-cube, and the Schlafli types of their facets."""
    cube4 = colourful_polytope(cube_embedding.graph)
    for p in (P, Q, H, cube4):
        assert schlafli_type(p) == _schlafli_by_all_flags(p)
        assert petrie_polygons(p) == _petrie_by_all_flags(p)
        bot = p.faces_of_rank(-1)[0]
        for fid in p.faces_of_rank(3):
            sec = p.section(bot, fid)
            assert schlafli_type(sec) == _schlafli_by_all_flags(sec)
    assert [len(petrie_polygons(p)) for p in (P, Q, H, cube4)] == [24, 24, 36, 24]


def test_petrie_polygons_of_sections(P, Q, H):
    # the walk is rank-generic: on the facets of P, Q and Q-hat, and on
    # the 2-faces of those facets as sections, it finds what a walk from
    # every flag finds, and a polygon's one Petrie polygon is itself; a
    # rank-0 poset has no vertex on its flag to read
    shapes = set()
    for p in (P, Q, H):
        bot = p.faces_of_rank(-1)[0]
        for fid in p.faces_of_rank(3):
            sec = p.section(bot, fid)
            zigzags = petrie_polygons(sec)
            assert zigzags == _petrie_by_all_flags(sec)
            shapes.add((p.rank, sec.rank, tuple(map(len, zigzags))))
            low = sec.faces_of_rank(-1)[0]
            for k in sec.faces_of_rank(2):
                polygon = sec.section(low, k)
                assert (petrie_polygons(polygon) == _petrie_by_all_flags(polygon)
                        == (two_face_cycle(sec, k),))
    assert shapes == {(4, 3, (6, 6, 6, 6)), (4, 3, (12, 12, 12, 12))}
    e = P.faces_of_rank(1)[0]
    v = next(i for i in P.faces_of_rank(0) if P.leq(i, e))
    point = P.section(v, e)
    assert point.rank == 0
    with pytest.raises(GraphError, match="^petrie walk needs rank at least 1, got rank 0$"):
        petrie_polygons(point)


def test_non_equivelar_prism_has_no_schlafli_type():
    """The hexagonal prism, with squares and hexagons for 2-faces, is
    polytopal but has no Schlafli type."""
    prism = _hexagonal_prism()
    assert check_polytopality(prism) == []
    assert f_vector(prism) == (12, 18, 8)
    assert sorted(map(len, two_face_cycles(prism))) == [4] * 6 + [6] * 2
    assert schlafli_type(prism) is None
    assert _schlafli_by_all_flags(prism) is None
    assert to_json(prism)["schlafli"] is None


def test_json_export_shape(P):
    data = to_json(P)
    assert data["f_vector"] == [8, 16, 12, 4]
    assert data["schlafli"] == [4, 3, 3]
    assert data["n_flags"] == 192
    assert len(data["faces"]) == len(P.faces)
    # covers listed as id pairs, each stepping up one rank
    for lo, hi in data["covers"]:
        assert P.faces[hi].rank == P.faces[lo].rank + 1


# ----------------------------------------- the n-cubes and the colourful model


@pytest.fixture(scope="module")
def cube_polytope(cube):
    """cube_polytope(n, projective): the face poset of cube(n, projective),
    built once for this module."""
    return functools.lru_cache(maxsize=None)(
        lambda n, projective: colourful_polytope(cube(n, projective).graph))


def test_cube_polytope_closed_forms(cube_polytope):
    # the n-cube {4,3^(n-2)} has C(n,k) 2^(n-k) faces of rank k and 2^n n!
    # flags, and the hemi-n-cube half as many of each (McMullen and
    # Schulte, Abstract Regular Polytopes, 6C); at rank 5 the strong
    # connectivity count reads rank pairs up to 6 apart
    for n in (3, 4, 5):
        for projective in (False, True):
            p, half = cube_polytope(n, projective), 1 + projective
            assert f_vector(p) == tuple(math.comb(n, k) * 2 ** (n - k) // half
                                        for k in range(n))
            assert schlafli_type(p) == (4,) + (3,) * (n - 2)
            assert len(p.flag_graph().flags) == 2 ** n * math.factorial(n) // half
            assert check_polytopality(p) == []


def _check_colourful_model(p, g):
    """The flag graph of the colourful model (Araujo-Pardo, Hubard,
    Oliveros and Schulte, "Colorful polytopes and graphs", Israel J. Math.
    195, 2013) against p.flag_graph().  A model flag is a pair (v, w) of a
    vertex v and an ordering w of the n colours; rho_0 moves v along its
    edge of colour w[0], and rho_i (i >= 1) swaps w[i-1] and w[i].  Its
    face of rank k is the component of the colours w[:k] through v."""
    n, fg = g.n_colors, p.flag_graph()
    face = {(f.colors, v): i for i, f in enumerate(p.faces) if 0 <= f.rank < n
            for v in f.vertices}
    nbr = {}
    for u, v, c in g.edges:
        nbr[u, c], nbr[v, c] = v, u
    model = [(v, w) for v in range(g.n_vertices)
             for w in itertools.permutations(range(n))]
    image = {(v, w): tuple(face[frozenset(w[:k]), v] for k in range(n))
             for v, w in model}
    # a bijection onto the flags of p ...
    assert len(set(image.values())) == len(model) == len(fg.flags)
    assert set(image.values()) == set(fg.flags)
    # ... carrying each model rho_i to rho[i]
    for v, w in model:
        j = fg.index[image[v, w]]
        assert image[nbr[v, w[0]], w] == fg.flags[fg.rho[0][j]]
        for i in range(1, n):
            swapped = w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
            assert image[v, swapped] == fg.flags[fg.rho[i][j]]
    return len(model)


def test_flag_graphs_match_the_colourful_model(P, Q, H, hemi, twins, cover,
                                               cube_embedding, cube_polytope, cube):
    cube4 = colourful_polytope(cube_embedding.graph)
    pairs = [(P, hemi.graph), (Q, hemi.graph.recolored(twins[0])),
             (H, cover.graph), (cube4, cube_embedding.graph)]
    pairs += [(cube_polytope(n, projective), cube(n, projective).graph)
              for n in (3, 4, 5) for projective in (False, True)]
    assert [_check_colourful_model(p, g) for p, g in pairs] == [
        192, 192, 384, 384, 48, 24, 384, 192, 3840, 1920]


def _random_matchings(rng, n_vertices, n_colors, tries=100):
    """n_colors pairwise disjoint perfect matchings on n_vertices vertices,
    coloured 0, 1, ... in turn; each is a shuffled vertex list paired off,
    drawn again while it shares an edge with an earlier one.  None if a
    colour finds no such matching in tries draws."""
    used, edges = set(), []
    for c in range(n_colors):
        for _ in range(tries):
            vs = rng.sample(range(n_vertices), n_vertices)
            m = {tuple(sorted(vs[k:k + 2])) for k in range(0, n_vertices, 2)}
            if not m & used:
                break
        else:
            return None
        used |= m
        edges += [(u, v, c) for u, v in m]
    return ColoredGraph(n_vertices, n_colors, edges)


def test_random_colourful_graphs_are_polytopes():
    # The colourful poset of a connected graph whose n colours are pairwise
    # disjoint perfect matchings is an abstract n-polytope, whose flags are
    # the colourful model's: |V|.n! of them (_check_colourful_model).  On
    # random such graphs, far from the paper's objects: polytopality, the
    # model, and the order tables and flags of every facet, of the first
    # facet's facets and so on down to rank -1, against the same faces
    # built afresh, iteration and index orders included.  One edge deleted
    # or recoloured must be refused with a GraphError, by validate and by
    # colourful_polytope.
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    sizes = [(n, m) for n in (2, 3, 4) for m in range(4, 17, 2) if m > n]

    @hyp.settings(deadline=None, derandomize=True, database=None, max_examples=60)
    @hyp.given(st.sampled_from(sizes), st.integers(0, 2 ** 32), st.data())
    def check(size, seed, data):
        n, m = size
        g = _random_matchings(random.Random(seed), m, n)
        hyp.assume(g is not None and len(components_by_colorset(g, range(n))) == 1)
        assert validate(g) == []
        p = colourful_polytope(g)
        assert check_polytopality(p) == []
        assert _check_colourful_model(p, g) == m * math.factorial(n)
        bottom = p.faces_of_rank(-1)[0]
        while p.rank >= 0:
            facets = [p.section(bottom, f) for f in p.faces_of_rank(p.rank - 1)]
            for sec in facets:
                fresh = Polytope(sec.rank, sec.faces)
                assert [list(u) for u in sec._ups] == [list(u) for u in fresh._ups]
                assert sec._covers == fresh._covers
                assert list(sec._diamonds.items()) == list(fresh._diamonds.items())
                got, want = sec.flag_graph(), fresh.flag_graph()
                assert got == want
                assert list(got.index.items()) == list(want.index.items())
            p = facets[0]
            bottom = p.faces_of_rank(-1)[0]

        edges = list(g.edges)
        k = data.draw(st.integers(0, len(edges) - 1))
        shift = data.draw(st.integers(0, n - 1))  # 0 deletes the edge
        u, v, c = edges.pop(k)
        h = ColoredGraph(g.n_vertices, n, edges + [(u, v, (c + shift) % n)] * (shift > 0))
        assert validate(h)
        with pytest.raises(GraphError):
            colourful_polytope(h)

    check()
