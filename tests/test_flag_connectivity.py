"""The flag graph and check_polytopality, against the algorithms they
replaced.

check_polytopality reads the flag connectivity of every section off the
poset's own flag graph.  These tests build posets that are graded and
satisfy the diamond condition but are not flag-connected, and compare
the step with the section-by-section algorithm it replaced and with
networkx's connected components.

The flag graph and the diamond step read every diamond from the poset's
cached table (Polytope._diamonds).  They are compared with the scans
that table replaced: one pass over the faces of a rank per flag and
rank, and per pair of faces two ranks apart.
"""

import functools

import pytest

from chiralcube import polytope
from chiralcube.graph import ColoredGraph, GraphError
from chiralcube.polytope import (Face, FlagGraph, Polytope, _bottom_top,
                                 _build_flag_graph, check_polytopality,
                                 colourful_polytope, to_json)


def _glued(p, q, n=None):
    """Copies of the proper faces of p and q, of equal rank, with q's
    vertices shifted by n (by default past p's, so the copies are
    vertex-disjoint), under one rank -1 and one top face; a face of both
    copies is kept once.  Vertex-disjoint copies are graded, diamond,
    but two flag components."""
    if n is None:
        n = 1 + max(p.faces[p.faces_of_rank(p.rank)[0]].vertices)

    def shifted(f):
        return Face(f.rank, f.colors, frozenset(v + n for v in f.vertices),
                    frozenset((u + n, v + n) for u, v in f.edges))

    bottom, top = (p.faces[p.faces_of_rank(r)[0]] for r in (-1, p.rank))
    top2 = shifted(q.faces[q.faces_of_rank(q.rank)[0]])
    both = Face(top.rank, top.colors, top.vertices | top2.vertices,
                top.edges | top2.edges)
    own = {(f.rank, f.vertices, f.edges) for f in p.faces}
    return Polytope(p.rank, [bottom] + [f for f in p.faces if 0 <= f.rank < p.rank]
                    + [g for g in map(shifted, q.faces) if 0 <= g.rank < q.rank
                       and (g.rank, g.vertices, g.edges) not in own] + [both])


def _cube3():
    return colourful_polytope(ColoredGraph(8, 3, tuple(
        (u, u ^ 1 << c, c) for u in range(8) for c in range(3)
        if u < u ^ 1 << c)))


def _hemicube3():
    # K4 with its three perfect matchings as colours: 24 flags
    return colourful_polytope(ColoredGraph(4, 3, (
        (0, 1, 0), (2, 3, 0), (0, 2, 1), (1, 3, 1), (0, 3, 2), (1, 2, 2))))


@pytest.fixture(scope="module")
def cube4(cube_embedding):
    return colourful_polytope(cube_embedding.graph)


@pytest.fixture(scope="module")
def glued(P):
    cube = _cube3()
    return _glued(cube, cube), _glued(P, P), _glued(cube, _hemicube3())


def _strong_connectivity_by_sections(p, flag_graph=Polytope.flag_graph):
    """The step as it was: build every section [i, j] with a rank gap of
    at least 3 as a polytope and walk its flag graph from its least flag."""
    problems = []
    ups = p._ups
    for i in range(len(p.faces)):
        for j in ups[i]:
            if p.faces[j].rank - p.faces[i].rank < 3:
                continue
            fg = flag_graph(p.section(i, j))
            if not fg.flags:
                problems.append("section [%d, %d] has no flags" % (i, j))
                continue
            seen, stack = set(), [0]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(r[x] for r in fg.rho)
            if len(seen) != len(fg.flags):
                problems.append(
                    "section [%d, %d] is not flag-connected (%d of %d flags reached)"
                    % (i, j, len(seen), len(fg.flags)))
    return problems


def _corpus(P, Q, H, cube4, glued):
    """Sections with a rank gap of at least 3 of P, Q, Q-hat and the
    4-cube; P, Q and Q-hat with one rank dropped, one face dropped, or
    one face duplicated; and the glued posets."""
    out = list(glued)
    for p in (P, Q, H, cube4):
        ups = p._ups
        out += [p.section(i, j) for i in range(len(p.faces)) for j in ups[i]
                if p.faces[j].rank - p.faces[i].rank >= 3]
    for p in (P, Q, H):
        out += [Polytope(p.rank, (f for f in p.faces if f.rank != r))
                for r in range(-1, p.rank + 1)]
        for i in range(len(p.faces)):
            out.append(Polytope(p.rank, p.faces[:i] + p.faces[i + 1:]))
            out.append(Polytope(p.rank, p.faces[:i + 1] + p.faces[i:]))
    return out


@pytest.fixture(scope="module")
def corpus(P, Q, H, cube4, glued):
    """_corpus, built once for the oracles of this module."""
    return _corpus(P, Q, H, cube4, glued)


def test_glued_posets_are_not_flag_connected(glued):
    cubes, quotients, uneven = glued
    assert check_polytopality(cubes) == [
        "section [0, 53] is not flag-connected (48 of 96 flags reached)"]
    assert check_polytopality(quotients) == [
        "section [0, 81] is not flag-connected (192 of 384 flags reached)"]
    # the count is of the component of the least flag, which is the cube's
    assert check_polytopality(uneven) == [
        "section [0, 40] is not flag-connected (48 of 72 flags reached)"]


def test_cubes_sharing_a_vertex_fail_at_its_vertex_figure():
    # two 3-cubes on vertices 0..7 and 7..14 share vertex 7 (face 8):
    # the whole poset and the vertex figure [8, 52], two triangles, are
    # both disconnected, so the per-section table is read at a proper
    # section too
    cube = _cube3()
    p = _glued(cube, cube, 7)
    assert len(p.faces) == 53 and p.faces[8].vertices == {7}
    got = check_polytopality(p)
    assert got == [
        "section [0, 52] is not flag-connected (48 of 96 flags reached)",
        "section [8, 52] is not flag-connected (6 of 12 flags reached)"]
    assert got == _strong_connectivity_by_sections(p)


def test_section_tables_match_fresh_build(P, Q, H, cube4):
    # a section inherits its order tables from its parent; they must be
    # those of the same faces built afresh, iteration orders included
    n = 0
    for p in (P, Q, H, cube4):
        for i in range(len(p.faces)):
            for j in p._ups[i]:
                sec = p.section(i, j)
                fresh = Polytope(sec.rank, sec.faces)
                assert ([list(u) for u in sec._ups]
                        == [list(u) for u in fresh._ups])
                assert sec._covers == fresh._covers
                assert list(sec._diamonds.items()) == list(fresh._diamonds.items())
                n += 1
    assert n == 2052


def test_section_faces_below_rank_one_are_keyed_by_vertices(Q):
    # A section shifts ranks down by its bottom face's rank + 1.  In the
    # vertex figure Q.section(v, top), a parent edge {u, w} through v
    # becomes a rank-0 face, and a rank-0 face is keyed by its vertices
    # as pairs (x, x): {(u, u), (w, w)}, not the parent's {(u, w)}.  So
    # only facet sections (shift 0) may reuse their parent's keys.
    v, top = Q.faces_of_rank(0)[0], Q.faces_of_rank(4)[0]
    sec = Q.section(v, top)
    edges = [e for e in Q.faces_of_rank(1) if Q.leq(v, e)]
    assert len(edges) == 4 and len(sec.faces_of_rank(0)) == 4
    for e in edges:
        (u, w), = Q.faces[e].edges
        k = sec._new[e]
        assert Q.face_index(1, frozenset({(u, w)})) == e
        assert sec.face_index(0, frozenset({(u, u), (w, w)})) == k
        assert sec.face_index(0, frozenset({(u, w)})) is None
        assert sec.face_index(1, frozenset({(u, w)})) is None


def test_face_not_above_the_rank_minus_one_face_reported():
    # A square whose faces all hold point 9, as the rank -1 face does,
    # plus a vertex {0, 10} that does not.  Graded and diamond, but that
    # vertex lies on no flag.  The section step alone reports nothing.
    square = ((0, 1), (1, 2), (2, 3), (0, 3))
    faces = [(-1, {9}, ())] + [(0, {9, k}, ()) for k in range(4)]
    faces += [(0, {0, 10}, ())]
    faces += [(1, {9, u, v} | ({10} if u == 0 else set()), ((u, v),))
              for u, v in square]
    faces += [(2, set(range(11)) - {4, 5, 6, 7, 8}, square)]
    p = Polytope(2, [Face(r, frozenset(), frozenset(vs), frozenset(es))
                     for r, vs, es in faces])
    assert check_polytopality(p) == [
        "face 5 (rank 0) is not above the rank -1 face"]
    assert _strong_connectivity_by_sections(p) == []
    # the flag graph names the same face, not a failing diamond
    with pytest.raises(GraphError, match=r"^face 5 \(rank 0\) is not above the rank -1 face$"):
        p.flag_graph()


def test_strong_connectivity_matches_section_oracle(corpus):
    reached = failing = 0
    for p in corpus:
        got = check_polytopality(p)
        if any(not d.startswith("section [") for d in got):
            continue  # an earlier axiom failed; the step does not run
        assert got == _strong_connectivity_by_sections(p)
        reached += 1
        failing += bool(got)
    assert len(corpus) > 600 and reached > 400 and failing == 3


def test_flag_graph_components_match_networkx(P, Q, H, cube4, glued):
    nx = pytest.importorskip("networkx")

    def components(p):
        fg = p.flag_graph()
        g = nx.Graph()
        g.add_nodes_from(range(len(fg.flags)))
        g.add_edges_from((x, y) for r in fg.rho for x, y in enumerate(r))
        return nx.number_connected_components(g)

    assert [components(p) for p in glued] == [2, 2, 2]
    assert [components(p) for p in (P, Q, H, cube4)] == [1, 1, 1, 1]


# ------------------------------------------- diamonds by face scans


@functools.cache
def _ups_by_fields(p):
    """The faces above each face, in increasing id order, by the incidence
    the Polytope docstring defines on the face fields (not through leq)."""
    return [frozenset(k for k, g in enumerate(p.faces) if f.rank <= g.rank
                      and f.vertices <= g.vertices and f.edges <= g.edges)
            for f in p.faces]


def _between(p, ups, lo, hi, rank):
    """Ids of the rank-`rank` faces m with lo <= m <= hi, by a scan."""
    return tuple(m for m in p.faces_of_rank(rank)
                 if m in ups[lo] and hi in ups[m])


@functools.cache
def _diamonds_by_between(p):
    """The diamond table as (key, mids) pairs, in the order of the
    diamond step before the table: lo, then _ups[lo]."""
    ups = _ups_by_fields(p)
    return [((i, j), list(_between(p, ups, i, j, p.faces[i].rank + 1)))
            for i in range(len(p.faces)) for j in ups[i]
            if p.faces[j].rank == p.faces[i].rank + 2]


def _flag_graph_by_between(p):
    """The flag graph as it was built before the table: one scan per
    flag and rank for the other face of each i-adjacency."""
    bottom, top = _bottom_top(p)
    ups = _ups_by_fields(p)
    flags = []

    def grow(chain, below):
        r = len(chain)
        if r == p.rank:
            if top in ups[chain[-1]]:
                flags.append(tuple(chain))
            return
        for f in p.faces_of_rank(r):
            if f in ups[below]:
                grow(chain + [f], f)
            elif below == bottom:
                raise GraphError("face %d (rank 0) is not above the rank -1 face" % f)

    grow([], bottom)
    flags.sort()
    index = {fl: i for i, fl in enumerate(flags)}
    rho = [[] for _ in range(p.rank)]
    for fl in flags:
        for i in range(p.rank):
            lo = fl[i - 1] if i > 0 else bottom
            hi = fl[i + 1] if i < p.rank - 1 else top
            mids = [m for m in _between(p, ups, lo, hi, i) if m != fl[i]]
            if len(mids) != 1:
                raise GraphError(
                    "diamond fails between faces %d and %d: %d alternatives"
                    % (lo, hi, len(mids) + 1))
            rho[i].append(index[fl[:i] + (mids[0],) + fl[i + 1:]])
    return FlagGraph(tuple(flags), index, tuple(map(tuple, rho)))


@functools.cache
def _covers_by_scan(p):
    """The covers of each face i, by a scan: the faces j != i above i
    that lie strictly above no other face above i, in the iteration
    order of i's up-set."""
    ups = _ups_by_fields(p)
    out = []
    for i in range(len(p.faces)):
        strictly_above = set().union(*(ups[k] - {k} for k in ups[i] if k != i))
        out.append(tuple(j for j in ups[i] if j != i and j not in strictly_above))
    return out


def _check_polytopality_by_between(p):
    """check_polytopality as it was before the table, on face scans and
    the section-by-section connectivity step throughout."""
    problems = []
    bots, tops = p.faces_of_rank(-1), p.faces_of_rank(p.rank)
    if len(bots) != 1:
        problems.append("expected one rank -1 face, found %d" % len(bots))
    if len(tops) != 1:
        problems.append("expected one rank %d face, found %d" % (p.rank, len(tops)))
    if problems:
        return problems
    bottom, top = bots[0], tops[0]
    ups, covers = _ups_by_fields(p), _covers_by_scan(p)
    for i, f in enumerate(p.faces):
        if i not in ups[bottom]:
            problems.append("face %d (rank %d) is not above the rank -1 face"
                            % (i, f.rank))
        if i == top:
            continue
        if ups[i] == {i}:
            problems.append("face %d (rank %d) has nothing above it" % (i, f.rank))
            continue
        for j in covers[i]:
            if p.faces[j].rank != f.rank + 1:
                problems.append(
                    "cover %d -> %d jumps rank %d -> %d (not graded)"
                    % (i, j, f.rank, p.faces[j].rank))
    if problems:
        return problems
    for (i, j), mids in _diamonds_by_between(p):
        if len(mids) != 2:
            problems.append("diamond fails: faces %d < %d have %d faces between"
                            % (i, j, len(mids)))
    if problems:
        return problems
    return _strong_connectivity_by_sections(p, _flag_graph_by_between)


def _flag_graph_or_error(build, p):
    try:
        fg = build(p)
    except GraphError as e:
        return str(e)
    return fg.flags, fg.index, fg.rho


def test_first_failing_diamond_is_read_in_flag_order(P):
    # Copies of the 2-face of P's first flag and of a vertex off that
    # flag's edge: the first flag fails its rank-2 diamond, later flags
    # fail rank-0 diamonds.  The flag graph, built a rank at a time,
    # reports the first failing flag, as the flag-by-flag oracle does,
    # and not the lowest failing rank.
    v0, e0, f0, c0 = P.flag_graph().flags[0]
    v = next(i for i in reversed(P.faces_of_rank(0)) if not P.leq(i, e0))
    p = Polytope(P.rank, P.faces + (P.faces[f0], P.faces[v]))
    assert (_flag_graph_or_error(Polytope.flag_graph, p)
            == _flag_graph_or_error(_flag_graph_by_between, p)
            == "diamond fails between faces %d and %d: 3 alternatives" % (e0, c0))


def test_diamond_table_matches_between_oracle(P, Q, Qm, H, cube4, corpus):
    for p in (P, Q, Qm, H, cube4):
        assert (_flag_graph_or_error(Polytope.flag_graph, p)
                == _flag_graph_or_error(_flag_graph_by_between, p))
    raised, kinds = 0, set()
    for p in corpus:
        ups, ids = _ups_by_fields(p), range(len(p.faces))
        assert p._ups == ups
        # leq reads the table under test, so it is checked against the fields too
        assert all(p.leq(i, j) == (j in ups[i]) for i in ids for j in ids)
        # the table's iteration orders, which _diamonds, _covers and the
        # diagnostics follow, against sets built in increasing id order
        assert [list(u) for u in p._ups] == [list(u) for u in ups]
        assert p._covers == _covers_by_scan(p)
        assert list(p._diamonds.items()) == _diamonds_by_between(p)
        got = check_polytopality(p)
        assert got == _check_polytopality_by_between(p)
        kinds.update(d.split()[0] for d in got)
        fg = _flag_graph_or_error(Polytope.flag_graph, p)
        assert fg == _flag_graph_or_error(_flag_graph_by_between, p)
        raised += isinstance(fg, str)
    # every step of the check fails somewhere in the corpus
    assert {"expected", "cover", "diamond", "section"} <= kinds
    assert len(corpus) > 600 and raised > 100


def test_json_covers_match_the_scan(P, Q, H):
    # to_json lists each covering pair [i, j] once, in sorted order
    for p in (P, Q, H):
        pairs = sorted([i, j] for i, js in enumerate(_covers_by_scan(p)) for j in js)
        assert to_json(p)["covers"] == pairs


# ------------------------------------------- flags a section borrows


def test_section_flag_graphs_match_fresh_build(P, Q, H, cube4, corpus, monkeypatch):
    # A section borrows the flags of its parent's flag graph that share one
    # rest outside its ranks, with rho restricted and renumbered.  They must
    # be the flags, index and rho_i that _build_flag_graph finds on the same
    # faces built afresh, all in order; where that build raises, the section
    # must raise the same.  Checked on every interval of P, Q, Q-hat, the
    # 4-cube and each corpus poset whose flag graph builds, sections of
    # sections among them.  A poset whose flag graph raises lends nothing:
    # its sections build their own, checked here on its whole intervals.
    afresh = []  # sections that built their own flag graph
    monkeypatch.setattr(polytope, "_build_flag_graph", lambda p: afresh.append(
        isinstance(p, polytope._Section)) or _build_flag_graph(p))
    fresh = functools.cache(lambda rank, faces: _flag_graph_or_error(
        _build_flag_graph, Polytope(rank, faces)))

    def check(p, i, j):
        sec = p.section(i, j)
        got = _flag_graph_or_error(Polytope.flag_graph, sec)
        want = fresh(sec.rank, sec.faces)
        assert got == want
        if not isinstance(got, str):
            assert list(got[1].items()) == list(want[1].items())  # index order
        return isinstance(got, str)

    intervals = raised = 0
    for p in (P, Q, H, cube4, *corpus):
        fg, before = _flag_graph_or_error(Polytope.flag_graph, p), sum(afresh)
        if isinstance(fg, str):
            raised += sum(check(p, i, j) for i in p.faces_of_rank(-1)
                          for j in p.faces_of_rank(p.rank) if p.leq(i, j))
            continue
        n = sum(not check(p, i, j) for i in range(len(p.faces)) for j in p._ups[i])
        # every face of these posets lies on a flag, if any flag exists,
        # so every section borrows unless its parent has no flags
        assert sum(afresh) - before == (0 if fg[0] else n)
        intervals += n
        if p is cube4:
            assert intervals == 2052
    assert (intervals, raised) == (26218, 300)
