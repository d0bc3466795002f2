"""Embeddings, signed-permutation isometries, holonomy, lifting, OFF export."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from chiralcube.classify import _turns, verify_paper
from chiralcube.geometry import (EmbeddedGraph, IsometryMatrix,
                                 affine_rank, all_signed_matrices,
                                 classes_hit_all_directions, cycle_holonomy,
                                 derive_chiral_colorings,
                                 exchanging_isometries,
                                 geometric_symmetry_group, hemicube_embedding,
                                 hypercube_embedding, lift_cycle,
                                 lift_double_cover, off_text,
                                 rotation_profile, squares_see_all_colors,
                                 vertex_permutation)
from chiralcube.graph import (ColoredGraph, GraphError, component_labels,
                             components_by_colorset, enumerate_matching_colorings)
from chiralcube.group import (PermutationGroup, VertexPermutation,
                              color_respecting_automorphisms)
from chiralcube.polytope import two_face_cycle


# ------------------------------------------------------------ matrices


def test_identity_matrix():
    m = IsometryMatrix.identity()
    assert m.det() == 1
    assert m.apply((1, -1, 1, -1)) == (1, -1, 1, -1)


def test_bad_matrix_rejected():
    for perm, signs in (((0, 1, 1, 3), (1, 1, 1, 1)),   # not a permutation
                        ((0, 1, 2, 3), (1, 0, 1, -1)),  # zero sign
                        ((0, 1, 2, 3), (1, 1, 1))):     # length mismatch
        with pytest.raises(ValueError):
            IsometryMatrix(perm, signs)


def test_determinants():
    refl = IsometryMatrix((0, 1, 2, 3), (-1, 1, 1, 1))
    assert refl.det() == -1
    swap = IsometryMatrix((1, 0, 2, 3), (1, 1, 1, 1))
    assert swap.det() == -1
    minus = IsometryMatrix((0, 1, 2, 3), (-1, -1, -1, -1))
    assert minus.det() == 1  # (-1)^4


def test_det_raises_in_odd_projective_dimension():
    # +-I are one class modulo -I, of determinants +1 and -1
    m = IsometryMatrix((0, 1, 2), (1, 1, 1), True)
    assert m == IsometryMatrix((0, 1, 2), (-1, -1, -1), True)
    with pytest.raises(ValueError, match="ambiguous"):
        m.det()
    assert IsometryMatrix((0, 1, 2), (-1, -1, -1)).det() == -1


def test_matmul_matches_application():
    a = IsometryMatrix((1, 2, 3, 0), (1, -1, 1, -1))
    b = IsometryMatrix((3, 2, 1, 0), (-1, 1, 1, 1))
    v = (1, -1, -1, 1)
    assert (a @ b).apply(v) == a.apply(b.apply(v))


def test_matmul_rejects_mixed_dimensions():
    for a, b in ((3, 4), (4, 5), (4, 3)):
        with pytest.raises(ValueError, match="cannot mix"):
            IsometryMatrix.identity(a) @ IsometryMatrix.identity(b)


def test_inverse():
    a = IsometryMatrix((2, 0, 3, 1), (1, -1, -1, 1))
    assert (a @ a.inverse()) == IsometryMatrix.identity()


def test_projective_negation_is_identified():
    m = IsometryMatrix((1, 0, 2, 3), (-1, 1, 1, -1), projective=True)
    n = IsometryMatrix((1, 0, 2, 3), (1, -1, -1, 1), projective=True)
    assert m == n
    assert m.signs == (1, -1, -1, 1)


def test_signed_matrix_counts():
    assert len(all_signed_matrices()) == 384
    assert len(all_signed_matrices(projective=True)) == 192
    dets = [m.det() for m in all_signed_matrices()]
    assert dets.count(1) == dets.count(-1) == 192


def test_signed_matrices_are_sorted_by_dense_rows():
    # the build sorts by a sparse key; its order must be that of the rows
    for n in range(1, 6):
        for projective in (False, True):
            ms = all_signed_matrices(n, projective)
            assert len(ms) == math.factorial(n) * 2 ** (n - projective)
            assert list(ms) == sorted(ms, key=_dense)


def test_orientation_well_defined_projectively():
    for m in all_signed_matrices(projective=True):
        lift = IsometryMatrix(m.perm, m.signs)
        flipped = IsometryMatrix(m.perm, tuple(-s for s in m.signs))
        assert lift.det() == flipped.det() == m.det()


def _dense(m):
    """The dense matrix of m, as tuples of ints, read from (perm, signs):
    row i holds signs[i] in column perm[i] and zeros elsewhere."""
    n = len(m.perm)
    return tuple(tuple(s if j == k else 0 for j in range(n))
                 for k, s in zip(m.perm, m.signs))


def _dense_apply(rows, x):
    return tuple(sum(r[j] * x[j] for j in range(len(x))) for r in rows)


def _dense_product(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _dense_det(rows):
    """Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * x * _dense_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def test_signed_permutations_match_dense_matrices():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(deadline=None, derandomize=True, database=None)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 6))

        def pair():
            return (tuple(data.draw(st.permutations(range(n)))),
                    tuple(data.draw(st.lists(st.sampled_from((1, -1)),
                                             min_size=n, max_size=n))))

        (pa, sa), (pb, sb) = pair(), pair()
        x = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
        a, b = IsometryMatrix(pa, sa), IsometryMatrix(pb, sb)
        ident = _dense(IsometryMatrix.identity(n))
        # rows[i] holds signs[i] in column perm[i] and zeros elsewhere
        assert all(_dense(a)[i][j] == (sa[i] if j == pa[i] else 0)
                   for i in range(n) for j in range(n))
        assert a.apply(x) == _dense_apply(_dense(a), x)
        assert _dense(a @ b) == _dense_product(_dense(a), _dense(b))
        assert _dense_product(_dense(a), _dense(a.inverse())) == ident
        assert _dense_product(_dense(a.inverse()), _dense(a)) == ident
        assert a.det() == _dense_det(_dense(a))

        # modulo -I: a matrix equals its negation, row 0 leads with +1
        neg = tuple(-s for s in sa)
        ap, bp = IsometryMatrix(pa, sa, True), IsometryMatrix(pb, sb, True)
        assert ap == IsometryMatrix(pa, neg, True)
        assert _dense(ap) in (_dense(a), _dense(IsometryMatrix(pa, neg)))
        assert _dense(ap)[0][pa[0]] == 1
        prod = _dense_product(_dense(a), _dense(b))
        assert _dense(ap @ bp) in (prod, tuple(tuple(-v for v in r) for r in prod))
        assert ap.inverse() == IsometryMatrix(a.inverse().perm,
                                              a.inverse().signs, True)
        if n % 2 == 0:
            assert ap.det() == a.det()

    check()


def test_det_matches_dense_on_every_signed_matrix():
    # projectively only in even n, where negation keeps the determinant
    for n in range(1, 5):
        for projective in (False, True) if n % 2 == 0 else (False,):
            for m in all_signed_matrices(n, projective):
                assert m.det() == _dense_det(_dense(m))


# ---------------------------------------------------- rotation profile


def test_profile_of_identity():
    prof = rotation_profile(IsometryMatrix.identity())
    assert prof == (0, 0)


def test_profile_of_single_plane_quarter_turn():
    # rotate the (0,1) plane by 90 degrees, fix the rest
    m = IsometryMatrix((1, 0, 2, 3), (-1, 1, 1, 1))
    assert m.det() == 1
    assert rotation_profile(m) == (0, Fraction(1, 2))


def test_profile_rejects_reflections():
    refl = IsometryMatrix((0, 1, 2, 3), (-1, 1, 1, 1))
    with pytest.raises(ValueError):
        rotation_profile(refl)


def test_profile_rejects_other_dimensions():
    # the profile is an angle pair only in dimension 4; a 6x6 identity
    # would otherwise pass the pairing check on its first four angles
    for n in (2, 3, 6):
        with pytest.raises(ValueError):
            rotation_profile(IsometryMatrix.identity(n))


def test_profile_rejects_projective_input():
    with pytest.raises(ValueError):
        rotation_profile(IsometryMatrix.identity(projective=True))


def test_exact_profile_matches_numpy_eigenvalues():
    # the oracle: float eigenvalues of the dense matrix, paired by
    # argument exactly as the exact path pairs its signed-cycle roots
    np = pytest.importorskip("numpy")
    atol = 1e-9
    rotations = reflections = 0
    for m in all_signed_matrices(4):
        dense = np.array(_dense(m), dtype=float)
        if round(np.linalg.det(dense)) != 1:
            with pytest.raises(ValueError):
                rotation_profile(m)
            reflections += 1
            continue
        args = np.sort(np.abs(np.angle(np.linalg.eigvals(dense))))
        assert abs(args[0] - args[1]) <= atol
        assert abs(args[2] - args[3]) <= atol
        prof = rotation_profile(m)
        assert len(prof) == 2
        assert all(abs(float(f) * math.pi - a) <= atol
                   for f, a in zip(prof, (args[0], args[2])))
        assert all(0 <= f <= 1 for f in prof)
        assert list(prof) == sorted(prof)
        rotations += 1
    assert (rotations, reflections) == (192, 192)


# ----------------------------------------------------------- embeddings


def test_hemicube_shape(hemi):
    assert hemi.projective
    assert hemi.graph.n_vertices == 8
    assert len(hemi.graph.edges) == 16
    assert all(d == 4 for d in hemi.graph.degrees())
    assert all(x[0] == 1 for x in hemi.coords)


def test_hemicube_is_complete_bipartite(hemi):
    part = {v: sum(1 for c in hemi.coords[v] if c < 0) % 2
            for v in range(8)}
    for u, v, _ in hemi.graph.edges:
        assert part[u] != part[v]
    assert len(hemi.graph.edges) == 16  # 4*4: every cross pair present


def test_hemicube_carries_direction_coloring(hemi):
    assert hemi.direction_coloring.colors == \
        tuple(c for _, _, c in hemi.graph.edges)


def test_missing_color_joins_opposite_corners(hemi):
    # in each 3-color facet, opposite corners of the cube are joined by
    # an edge of the one missing color
    g = hemi.graph
    for missing in range(4):
        kept = tuple(c for c in range(4) if c != missing)
        comps = components_by_colorset(g, kept)
        assert len(comps) == 1  # facets span everything here
        for u, v, c in g.edges:
            if c == missing:
                assert hemi.direction(u, v) is not None


def test_hypercube_shape(cube_embedding):
    e = cube_embedding
    assert not e.projective
    assert e.graph.n_vertices == 16
    assert len(e.graph.edges) == 32
    cls = e.graph.color_classes()
    assert all(len(cls[c]) == 8 for c in range(4))


def test_embedding_rejects_colliding_coords(hemi):
    coords = list(hemi.coords)
    coords[1] = coords[0]
    with pytest.raises(GraphError):
        EmbeddedGraph(hemi.graph, tuple(coords), True)


def test_embedding_rejects_noncanonical_reps(hemi):
    coords = list(hemi.coords)
    coords[0] = tuple(-c for c in coords[0])
    with pytest.raises(GraphError):
        EmbeddedGraph(hemi.graph, tuple(coords), True)
    # the zero vector is no sign class: its two sign choices coincide
    with pytest.raises(GraphError, match="zero vector"):
        EmbeddedGraph(ColoredGraph(2, 1, ((0, 1, 0),)), ((0, 0, 0), (1, 0, 0)), True)


# ----------------------------------------------------- symmetry groups


def _dense_table(e):
    """The isometry table by walking every signed matrix whole."""
    return [(m, p) for m in all_signed_matrices(e.dimension, e.projective)
            if (p := vertex_permutation(e, m)) is not None]


def test_matrix_to_permutation(hemi):
    m = IsometryMatrix.identity(projective=True)
    p = vertex_permutation(hemi, m)
    assert p == VertexPermutation.identity(8)
    # a matrix moving reps off the vertex set yields None only for
    # non-signed-permutation candidates, which cannot be built; instead
    # check a real rotation lands on a real permutation
    rot = IsometryMatrix((0, 2, 1, 3), (1, 1, -1, 1), projective=True)
    q = vertex_permutation(hemi, rot)
    assert q is not None
    for v in range(8):
        img = rot.apply(hemi.coords[v])
        if img[0] == -1:
            img = tuple(-c for c in img)
        assert hemi.coords[q(v)] == img


def test_matrix_to_permutation_rejects_other_dimensions(hemi):
    for n in (3, 5):
        with pytest.raises(ValueError, match="does not act"):
            vertex_permutation(hemi, IsometryMatrix.identity(n, projective=True))


def test_matrix_to_permutation_rejects_projective_on_euclidean(hemi, cube_embedding):
    m = IsometryMatrix((0, 2, 1, 3), (1, 1, -1, 1), projective=True)
    with pytest.raises(ValueError, match="does not act"):
        vertex_permutation(cube_embedding, m)
    # euclidean matrices act on projective points: m and -m alike
    euclid = IsometryMatrix(m.perm, m.signs)
    minus = IsometryMatrix(m.perm, tuple(-s for s in m.signs))
    assert vertex_permutation(hemi, euclid) == vertex_permutation(hemi, minus) \
        == vertex_permutation(hemi, m)


def test_group_orders(GP, GQ, GH):
    assert GP.order == 192
    assert GQ.order == 96
    assert GH.order == 192


def test_twin_group_is_rotation_only(hemi, GQ):
    assert all(hemi.matrix(p).det() == 1 for p in GQ)


def test_cover_group_is_rotation_only(cover, GH):
    assert all(cover.matrix(p).det() == 1 for p in GH)


def test_matrix_tagging_is_faithful(hemi, GP):
    seen = {hemi.matrix(p) for p in GP}
    assert len(seen) == GP.order


def test_orientation_preserving_subgroup(hemi, GP):
    rot = {p for p in GP if hemi.matrix(p).det() == 1}
    assert len(rot) == 96
    assert set(PermutationGroup(tuple(rot)).elements) == rot


# ------------------------------------------------------ twin colorings


def test_two_twins(twins):
    assert len(twins) == 2
    assert twins[0].colors != twins[1].colors


def test_property_filters_agree(hemi, twins):
    from chiralcube.graph import enumerate_matching_colorings
    every = enumerate_matching_colorings(hemi.graph,
                                         up_to_color_permutation=True)
    by_a = [c for c in every if classes_hit_all_directions(hemi, c)]
    by_b = [c for c in every if squares_see_all_colors(hemi, c)]
    assert by_a == by_b == list(twins)


def test_twin_bicolored_cycles_are_squares(hemi, twins):
    g = hemi.graph.recolored(twins[0])
    import itertools
    for pair in itertools.combinations(range(4), 2):
        for vs, es in components_by_colorset(g, pair):
            assert len(vs) == 4 and len(es) == 4


def test_regular_coloring_fails_both_properties(hemi):
    reg = hemi.direction_coloring
    assert not classes_hit_all_directions(hemi, reg)
    assert not squares_see_all_colors(hemi, reg)


def test_twins_are_mirror_images(hemi, twins):
    ex = exchanging_isometries(hemi, twins[0], twins[1])
    dets = [d for _, d in ex]
    assert dets.count(1) == 0
    assert dets.count(-1) == 96


def test_scans_reject_colorings_over_other_edges(hemi, cube_embedding):
    reg = hemi.direction_coloring
    short = ColoredGraph(reg.n_vertices, reg.n_colors, reg.edges[1:])
    cube = cube_embedding.graph
    with pytest.raises(ValueError):
        geometric_symmetry_group(hemi.recolored(short))
    for c1, c2 in ((reg, short), (short, reg), (reg, cube)):
        with pytest.raises(ValueError):
            exchanging_isometries(hemi, c1, c2)
    for read in (classes_hit_all_directions, squares_see_all_colors,
                 lift_double_cover):
        for c in (short, cube):
            with pytest.raises(GraphError, match="different edge list"):
                read(hemi, c)


def _oracle_squares(e):
    """Edge sets of the connected components of each direction-pair
    subgraph of e, read with networkx and e.direction."""
    nx = pytest.importorskip("networkx")
    out = []
    for pair in itertools.combinations(range(e.dimension), 2):
        sub = nx.Graph([(u, v) for u, v in e.graph.edge_pairs
                        if e.direction(u, v) in pair])
        out += [{tuple(sorted(x)) for x in sub.subgraph(comp).edges}
                for comp in nx.connected_components(sub)]
    return out


def test_coloring_properties_match_networkx_oracle(hemi, cube_embedding):
    labelled = enumerate_matching_colorings(hemi.graph)
    assert len(labelled) == 576
    cases = []
    for c in labelled:
        cover = lift_double_cover(hemi, c)
        cases += [(hemi, c), (cover, cover.graph)]
    # matching colorings fail squares in pairs; colorings in 2 to 4 colors
    # that need not be proper also fail one square alone
    rng = random.Random(0)
    for e in (hemi, cube_embedding) * 300:
        n, pairs = rng.randint(2, 4), e.graph.edge_pairs
        cases.append((e, ColoredGraph(e.graph.n_vertices, n, tuple(
            (u, v, rng.randrange(n)) for u, v in pairs))))
    squares, got = {}, Counter()
    for e, col in cases:
        key = (e.coords, e.graph.edge_pairs)
        if key not in squares:
            squares[key] = _oracle_squares(e)
        color = dict(zip(col.edge_pairs, col.colors))
        hit = all({e.direction(u, v) for (u, v), d in color.items() if d == k}
                  == set(range(e.dimension)) for k in set(col.colors))
        seen = all({color[x] for x in sq} == set(range(col.n_colors))
                   for sq in squares[key])
        assert (classes_hit_all_directions(e, col),
                squares_see_all_colors(e, col)) == (hit, seen)
        got[hit, seen] += 1
    assert got == {(True, True): 123, (True, False): 212,
                   (False, True): 6, (False, False): 1411}


def test_squares_are_built_once_per_embedding(monkeypatch):
    import chiralcube.geometry as geometry
    calls = []

    def counted(g, colors):
        calls.append(colors)
        return components_by_colorset(g, colors)

    monkeypatch.setattr(geometry, "components_by_colorset", counted)
    monkeypatch.setattr(geometry, "_QUOTIENT", [])  # a quotient with no squares yet
    e = hemicube_embedding()
    # the rows of the colorings census: the regular coloring, the twins
    # and every labelled coloring
    every = ([e.direction_coloring] + derive_chiral_colorings(e)
             + enumerate_matching_colorings(e.graph))
    assert len(every) == 579
    for c in every:
        classes_hit_all_directions(e, c)
        squares_see_all_colors(e, c)
    assert len(calls) == 6


def test_unfaithful_action_is_refused():
    # two points on a line: 4 signed matrices keep the pair, but only 2
    # vertex permutations come of them
    e = EmbeddedGraph(ColoredGraph(2, 1, ((0, 1, 0),)), ((1, 0), (-1, 0)), False)
    c = e.graph
    with pytest.raises(GraphError, match="not faithful"):
        geometric_symmetry_group(e.recolored(c))
    with pytest.raises(GraphError, match="not faithful"):
        e.matrix(VertexPermutation((1, 0)))
    ex = exchanging_isometries(e, c, c)
    assert len(ex) == 4
    assert sorted(d for _, d in ex) == [-1, -1, 1, 1]


def test_isometry_table_matches_dense_walk(hemi, cover, cube_embedding, cube):
    # the table composes each matrix's vertex permutation from its sign and
    # permutation factors; the oracle walks every matrix whole
    two = EmbeddedGraph(ColoredGraph(2, 1, ((0, 1, 0),)), ((1, 0), (-1, 0)), False)
    # the powers of a quarter turn keep this orbit; neither factor of a
    # quarter turn does, so those two entries come from the fallback walk
    c4 = EmbeddedGraph(ColoredGraph(4, 1, ()), ((1, 2), (-2, 1), (-1, -2), (2, -1)),
                       False)
    for e, size in ((hemi, 192), (cover, 384), (cube_embedding, 384), (two, 4),
                    (c4, 4)):
        assert len(e._table.isometries) == size
        assert e._table.isometries == _dense_table(e)
    sizes = {2: (8, 4), 3: (48, 24), 4: (384, 192), 5: (3840, 1920)}
    for n, want in sizes.items():
        cubes = (cube(n, False), cube(n, True))
        assert tuple(len(e._table.isometries) for e in cubes) == want
        for e in cubes:
            assert e._table.isometries == _dense_table(e)
    assert cube(4, False).coords == cube_embedding.coords
    assert cube(4, True).graph == hemi.graph and cube(4, True).coords == hemi.coords


def test_isometry_tables_walk_only_the_factors(monkeypatch):
    import chiralcube.geometry as geometry
    calls = []

    def counted(e, m):
        calls.append(m)
        return vertex_permutation(e, m)

    monkeypatch.setattr(geometry, "vertex_permutation", counted)
    monkeypatch.setattr(geometry, "_TABLES", {})  # no point set seen yet
    monkeypatch.setattr(geometry, "_QUOTIENT", [])  # nor a quotient holding its table
    e = hemicube_embedding()
    assert (len(e._table.isometries), len(e._cover._table.isometries)) == (192, 384)
    # 2^3 sign classes + 4! permutations, then 2^4 + 4!; a dense walk makes
    # 192 + 384 calls
    assert len(calls) == 8 + 24 + 16 + 24 == 72
    # every later embedding on either point set reads the same tables,
    # whatever its edges and colors
    (u, v, c), *rest = e.graph.edges
    recolored = ColoredGraph(8, 4, ((u, v, (c + 1) % 4), *rest))
    dropped = ColoredGraph(8, 4, tuple(rest))
    same = ((e, [hemicube_embedding(), EmbeddedGraph(recolored, e.coords, True),
                 EmbeddedGraph(dropped, e.coords, True)]),
            (e._cover, [lift_double_cover(e, t) for t in derive_chiral_colorings(e)]
             + [hypercube_embedding()]))
    for first, later in same:
        for f in later:
            assert f.coords == first.coords
            assert f._table is first._table  # one record holds all three tables
    assert len(calls) == 72
    # one entry per point set
    assert set(geometry._TABLES) == {(e.coords, True), (e._cover.coords, False)}


def test_isometry_tables_are_keyed_by_points_and_projective(hemi, monkeypatch):
    import chiralcube.geometry as geometry
    assert len(hemi._table.isometries) == 192  # the process store holds the quotient
    for store in (geometry._TABLES, {}):  # warm, then cold
        monkeypatch.setattr(geometry, "_TABLES", store)
        proj = EmbeddedGraph(hemi.graph, hemi.coords, True)
        # the same eight points taken as Euclidean: 3! 2^3 matrices fix
        # the first coordinate and keep the set
        flat = EmbeddedGraph(ColoredGraph(8, 1, ()), hemi.coords, False)
        assert flat._table is not proj._table
        assert flat._table.isometries == _dense_table(flat)
        assert len(flat._table.isometries) == 48
        assert flat._table.isometries != proj._table.isometries == _dense_table(proj)
        # coordinates given as a list share the record of the tuple
        listed = EmbeddedGraph(hemi.graph, list(hemi.coords), True)
        assert listed._table is proj._table
        assert len(listed._table.isometries) == 192
        assert geometric_symmetry_group(listed).order == 192
    # the cold store holds one entry per point set: the eight points taken
    # as projective and as Euclidean
    assert set(store) == {(hemi.coords, True), (hemi.coords, False)}


# ------------------------------------------------------------ holonomy


def test_regular_squares_have_trivial_holonomy(hemi, P):
    for fid in P.faces_of_rank(2):
        assert cycle_holonomy(hemi, two_face_cycle(P, fid)) == 1


def test_twin_squares_reverse_sign(hemi, Q):
    for fid in Q.faces_of_rank(2):
        assert cycle_holonomy(hemi, two_face_cycle(Q, fid)) == -1


def test_holonomy_input_validation(hemi):
    # lift_cycle rejects exactly what cycle_holonomy rejects
    u, v, _ = hemi.graph.edges[0]
    e = hypercube_embedding()
    assert (0, 3) not in hemi.graph.edge_pairs
    for f in (cycle_holonomy, lift_cycle):
        with pytest.raises(ValueError, match="at least 3"):
            f(hemi, (u, v))  # back and forth is not a cycle
        with pytest.raises(ValueError, match="revisits"):
            f(hemi, (0, 1, 2, 1))  # repeated vertex
        with pytest.raises(ValueError, match="0, 3 are not adjacent"):
            f(hemi, (0, 3, 5))
        with pytest.raises(ValueError, match="projective"):
            f(e, (0, 1, 2, 3))  # euclidean input has no holonomy


def test_holonomy_invariance(hemi, Q):
    cyc = two_face_cycle(Q, Q.faces_of_rank(2)[0])
    h = cycle_holonomy(hemi, cyc)
    for s in range(len(cyc)):
        rot = cyc[s:] + cyc[:s]
        assert cycle_holonomy(hemi, rot) == h
        assert cycle_holonomy(hemi, tuple(reversed(rot))) == h


# ------------------------------------------------------------- lifting


def test_regular_lift_is_the_hypercube(hemi, cube):
    lifted, built = lift_double_cover(hemi, hemi.direction_coloring), cube(4, False)
    assert lifted.graph == built.graph
    assert lifted.coords == built.coords
    assert not lifted.projective
    with pytest.raises(ValueError, match="only projective embeddings"):
        lift_double_cover(lifted)


def test_every_named_object_is_the_quotient_recolored_then_covered(hemi, twins):
    # Q and its mirror are the quotient recolored, on its points and its
    # isometry table; Q-hat and the 4-cube are their covers
    assert hemi.recolored(hemi.graph) is hemi
    assert hemicube_embedding()._cover is hypercube_embedding()
    for t in twins:
        q = hemi.recolored(t)
        assert q is not hemi and (q.graph, q.coords, q.projective) == (t, hemi.coords, True)
        assert q._table is hemi._table
        lifted = lift_double_cover(hemi, t)
        assert (q._cover.graph, q._cover.coords) == (lifted.graph, lifted.coords)
    reg = hemi.direction_coloring
    short = ColoredGraph(reg.n_vertices, reg.n_colors, reg.edges[1:])
    with pytest.raises(GraphError, match="different edge list"):
        hemi.recolored(short)


def test_lift_doubles_counts(hemi, cover):
    assert cover.graph.n_vertices == 16
    assert len(cover.graph.edges) == 32


def test_antipode_negates_coordinates(cover):
    a = cover.antipode
    assert a * a == VertexPermutation.identity(16)
    assert all(a(v) != v for v in range(cover.graph.n_vertices))
    assert all(cover.coords[a(v)] == tuple(-c for c in cover.coords[v])
               for v in range(cover.graph.n_vertices))


def test_coordinates_of_unequal_length_are_refused():
    with pytest.raises(GraphError, match="unequal length"):
        EmbeddedGraph(ColoredGraph(2, 1, ()), ((1, 0), (1, 0, 0)), False)
    # nor may an edge join points that differ in two coordinates
    with pytest.raises(GraphError, match=r"^edge \(0,1\) is not axis-aligned$"):
        EmbeddedGraph(ColoredGraph(2, 1, ((0, 1, 0),)), ((1, 1), (-1, -1)), False)


def test_antipode_needs_a_centrally_symmetric_vertex_set(hemi):
    e = EmbeddedGraph(ColoredGraph(2, 1, ((0, 1, 0),)), ((1, 1), (1, -1)), False)
    with pytest.raises(GraphError):
        e.antipode
    with pytest.raises(GraphError):
        hemi.antipode


def test_lifted_bicolored_components_are_octagons(cover):
    import itertools
    for pair in itertools.combinations(range(4), 2):
        for vs, es in components_by_colorset(cover.graph, pair):
            assert len(vs) == 8 and len(es) == 8


def test_lift_cycle_splits_by_holonomy(hemi, P, Q):
    sq = two_face_cycle(P, P.faces_of_rank(2)[0])
    up = lift_cycle(hemi, sq)
    assert len(up) == 2 and all(len(c) == 4 for c in up)
    tw = two_face_cycle(Q, Q.faces_of_rank(2)[0])
    up = lift_cycle(hemi, tw)
    assert len(up) == 1 and len(up[0]) == 8
    # every lift is a closed walk along cover edges through distinct
    # vertices, and the lifts cover each preimage of the cycle once
    cover = lift_double_cover(hemi)
    for cyc in (sq, tw):
        up = lift_cycle(hemi, cyc)
        flat = [v for c in up for v in c]
        assert len(set(flat)) == len(flat) == 2 * len(cyc)
        preimages = {x for v in cyc
                     for x in (hemi.coords[v], tuple(-c for c in hemi.coords[v]))}
        assert {cover.coords[v] for v in flat} == preimages
        for c in up:
            for i, v in enumerate(c):
                w = c[(i + 1) % len(c)]
                assert (min(v, w), max(v, w)) in cover.graph.edge_pairs


def test_lift_is_a_double_cover_with_zero_coordinates():
    # the 13 sign classes of {-1, 0, 1}^3 minus 0, where two
    # representatives can be one coordinate apart under both sign
    # choices: every accepted edge lifts to two edges, and every accepted
    # triangle to two triangles (holonomy +1) or one hexagon (-1)
    reps = [x for x in itertools.product((-1, 0, 1), repeat=3)
            if any(x) and next(c for c in x if c) > 0]
    assert len(reps) == 13
    counts = Counter()
    for pts in [*itertools.combinations(reps, 2), ((1, 1), (1, -1)),
                *itertools.combinations(reps, 3)]:
        n = len(pts)
        edges = tuple((u, v, 0) for u, v in itertools.combinations(range(n), 2))
        try:
            e = EmbeddedGraph(ColoredGraph(n, 1, edges), pts, True)
        except GraphError:
            continue  # some edge is not axis-aligned
        lift = lift_double_cover(e)
        assert len(lift.graph.edges) == 2 * len(edges)
        # the order of every cover: reversed coordinates, largest first
        assert list(lift.coords) == sorted(lift.coords, key=lambda x: x[::-1],
                                           reverse=True)
        if n == 3:
            adj = [[] for _ in range(2 * n)]
            for u, v in lift.graph.edge_pairs:
                adj[u].append(v)
                adj[v].append(u)
            parts = len(set(component_labels(adj)))
            assert parts == {1: 2, -1: 1}[cycle_holonomy(e, (0, 1, 2))]
        counts[n] += 1
    assert counts == {2: 33 + 1, 3: 16}


def test_octagon_stabilizer_profile(H, GH, cover):
    from chiralcube.group import chain_stabilizer
    h2 = H.faces_of_rank(2)[0]
    h3 = next(i for i in H.faces_of_rank(3) if H.leq(h2, i))
    st = chain_stabilizer(H, GH, [h2, h3])
    gen = next(p for p in st if p.order() == 8)
    prof = rotation_profile(cover.matrix(gen))
    assert prof == (Fraction(1, 4), Fraction(3, 4))


# --------------------------------------------------------- affine rank


def test_affine_rank_basics():
    assert affine_rank([(1, 1, 1, 1)]) == 0
    assert affine_rank([(1, 1, 1, 1), (-1, 1, 1, 1)]) == 1
    square = [(1, 1, 1, 1), (-1, 1, 1, 1), (-1, -1, 1, 1), (1, -1, 1, 1)]
    assert affine_rank(square) == 2


def test_affine_rank_matches_sympy_rank():
    # seeded random integer point sets in dimensions 1-6, up to 9
    # points; in many of them some points lie on lines through two
    # others, so the rank falls short of both the dimension and n - 1
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20131106)
    short = 0
    for _ in range(400):
        dim, n = rng.randint(1, 6), rng.randint(1, 9)
        pts = [[rng.randint(-4, 4) for _ in range(dim)]
               for _ in range(rng.randint(1, n))]
        while len(pts) < n:
            a, b = rng.sample(pts, 2) if len(pts) > 1 else (pts[0], pts[0])
            k = rng.randint(-3, 3)
            pts.append([x + k * (y - x) for x, y in zip(a, b)])
        rng.shuffle(pts)
        want = sympy.Matrix([[x - b for x, b in zip(p, pts[0])]
                             for p in pts]).rank()
        assert affine_rank(pts) == want
        short += want < min(dim, n - 1)
    assert short > 100


def test_cover_two_faces_are_helices(H, cover):
    for fid in H.faces_of_rank(2):
        pts = [cover.coords[v] for v in two_face_cycle(H, fid)]
        assert affine_rank(pts) == 4


def test_regular_lift_two_faces_are_planar(hemi):
    from chiralcube.polytope import colourful_polytope
    lifted = lift_double_cover(hemi, hemi.direction_coloring)
    cube = colourful_polytope(lifted.graph)
    for fid in cube.faces_of_rank(2):
        pts = [lifted.coords[v] for v in two_face_cycle(cube, fid)]
        assert affine_rank(pts) == 2


# ------------------------------------------------------------- export


def test_off_export_euclidean(cover):
    text = off_text(cover)
    lines = text.splitlines()
    assert lines[0] == "nOFF"
    assert lines[1] == "4"
    counts = next(l for l in lines if not l.startswith(("n", "4", "#")))
    assert counts.split() == ["16", "12", "32"]


def test_off_export_projective_doubles(hemi):
    text = off_text(hemi, comment="regular quotient")
    lines = text.splitlines()
    assert lines[0] == "nOFF"
    assert "# regular quotient" in lines
    assert any(l.startswith("# antipodal pairs:") for l in lines)
    # 16 vertices, 24 lifted squares, 32 edges
    counts = [l for l in lines if len(l.split()) == 3
              and not l.startswith("#")]
    assert counts[0].split() == ["16", "24", "32"]


def test_off_export_stable(hemi):
    assert off_text(hemi) == off_text(hemi)


def test_off_export_builds_one_cover(twins, monkeypatch):
    import chiralcube.geometry as geometry
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return lift_double_cover(*args, **kwargs)

    monkeypatch.setattr(geometry, "lift_double_cover", counted)
    monkeypatch.setattr(geometry, "_QUOTIENT", [])  # a quotient with no cover yet
    off_text(hemicube_embedding().recolored(twins[0]))
    assert len(calls) == 1


def test_off_faces_are_the_lifts_of_the_two_faces(hemi, twins):
    # a projective object is written as its cover, whose 2-faces must be
    # the lifts of the object's own 2-faces
    n_faces = []
    for e in (hemi, hemi.recolored(twins[0]), hemi.recolored(twins[1])):
        p = e.polytope
        lifts = sorted({c for fid in p.faces_of_rank(2)
                        for c in lift_cycle(e, two_face_cycle(p, fid))})
        lines = off_text(e).splitlines()
        head = next(i for i, l in enumerate(lines)
                    if len(l.split()) == 3 and not l.startswith("#"))
        n_vertices, n_face_lines, _ = map(int, lines[head].split())
        faces = []
        for l in lines[head + 1 + n_vertices:]:
            k, *cycle = map(int, l.split())
            assert k == len(cycle)
            faces.append(tuple(cycle))
        assert faces == lifts and n_face_lines == len(lifts)
        n_faces.append(len(faces))
    assert n_faces == [24, 12, 12]


def test_off_export_lists_the_antipodal_pairs(hemi):
    lines = off_text(hemi).splitlines()
    head = next(i for i, l in enumerate(lines)
                if len(l.split()) == 3 and not l.startswith("#"))
    n_vertices = int(lines[head].split()[0])
    coords = [tuple(map(int, l.split())) for l in lines[head + 1:head + 1 + n_vertices]]
    line = next(l for l in lines if l.startswith("# antipodal pairs: "))
    pairs = [tuple(map(int, pr.split(":"))) for pr in line.split(": ", 1)[1].split()]
    want = [(i, j) for i, x in enumerate(coords) for j, y in enumerate(coords)
            if i < j and y == tuple(-c for c in x)]
    assert len(want) == 8 and pairs == want


def _brute_force_scan(e, src, dst):
    """(vertex permutation, matrix) for every matrix sending coloring
    src to dst up to renaming colors, by dense matrix application."""
    lookup = {x: i for i, x in enumerate(e.coords)}
    pairs = set(e.graph.edge_pairs)
    out = []
    for m in all_signed_matrices(e.dimension, e.projective):
        imgs = []
        for x in e.coords:
            y = _dense_apply(_dense(m), x)
            if e.projective and next(c for c in y if c != 0) < 0:
                y = tuple(-c for c in y)
            imgs.append(lookup.get(y))
        if None in imgs:
            continue
        renaming = set()
        for (u, v), c in zip(src.edge_pairs, src.colors):
            a, b = sorted((imgs[u], imgs[v]))
            if (a, b) not in pairs:
                break
            renaming.add((c, dst.color_of(a, b)))
        else:
            # the color pairs seen must form a bijection
            if len({c for c, _ in renaming}) == len({d for _, d in renaming}) \
                    == len(renaming):
                out.append((VertexPermutation(tuple(imgs)), m))
    return out


def test_isometry_scans_match_dense_application(hemi, twins, cover, cube_embedding):
    reg = hemi.direction_coloring
    mirror_cover = lift_double_cover(hemi, twins[1])
    assert mirror_cover.graph.edge_pairs == cover.graph.edge_pairs
    hat, hat_m = cover.graph, mirror_cover.graph
    cube = cube_embedding.graph
    # a one-colour coloring, and the squares of directions 1 and 2 alone,
    # which not every isometry of the vertex set preserves
    flat = ColoredGraph(reg.n_vertices, reg.n_colors,
                        tuple((u, v, 0) for u, v in reg.edge_pairs))
    squares = EmbeddedGraph(
        ColoredGraph(8, 4, tuple(x for x in hemi.graph.edges if x[2] in (1, 2))),
        hemi.coords, True)
    # P, Q, the mirror, Q-hat, the 4-cube and the squares
    for e, c in ((hemi, reg), (hemi, twins[0]), (hemi, twins[1]),
                 (cover, hat), (cube_embedding, cube),
                 (squares, squares.graph)):
        G = geometric_symmetry_group(e.recolored(c))
        assert {p: e.matrix(p) for p in G} == dict(_brute_force_scan(e, c, c))
    for e, c1, c2 in ((hemi, twins[0], twins[1]), (hemi, reg, twins[0]),
                      (hemi, twins[1], twins[1]), (cover, hat, hat_m),
                      (cube_embedding, cube, cube), (hemi, reg, flat),
                      (hemi, flat, reg)):
        expected = [(m, m.det()) for _, m in _brute_force_scan(e, c1, c2)]
        assert exchanging_isometries(e, c1, c2) == expected


def _takes(images, src, dst_color):
    """Does the vertex map `images` carry coloring src onto the coloring
    whose edge -> color dict is dst_color, up to a bijective renaming?"""
    renaming = set()
    for u, v, c in src.edges:
        a, b = images[u], images[v]
        renaming.add((c, dst_color.get((a, b) if a < b else (b, a))))
    sources, targets = {c for c, _ in renaming}, {d for _, d in renaming}
    return None not in targets and len(sources) == len(targets) == len(renaming)


def _every_entry_filter(e, src, dst):
    """The entries of e's isometry table that take coloring src to dst up
    to renaming colors, each entry tested on its own, in table order."""
    dst_color = {(u, v): c for u, v, c in dst.edges}
    return [(m, p) for m, p in e._table.isometries if _takes(p.images, src, dst_color)]


def _marked(e, i):
    """e's edges in color 0, but for edge i, in color 1: its isometries
    keep that edge, so they do not act transitively on the vertices."""
    return ColoredGraph(e.graph.n_vertices, 2, tuple(
        (u, v, int(j == i)) for j, (u, v) in enumerate(e.graph.edge_pairs)))


def test_isometry_scans_match_every_entry_filter(hemi, twins, cover):
    # the scans test the entries fixing vertex 0 against src, each other
    # image of vertex 0 up to its first hit, and compose the two; the
    # oracle tests every entry of the table
    classes = enumerate_matching_colorings(hemi.graph, up_to_color_permutation=True)
    mirror_cover = lift_double_cover(hemi, twins[1]).graph
    shapes = []  # (order, size of the orbit of vertex 0)
    for e, c in ([(hemi, c) for c in classes] + [(cover, cover.graph)]
                 + [(e, _marked(e, 0)) for e in (hemi, cover)]):
        want = _every_entry_filter(e, c, c)
        G = geometric_symmetry_group(e.recolored(c))
        assert len(want) == G.order
        assert {p: e.matrix(p) for p in G} == {p: m for m, p in want}
        assert exchanging_isometries(e, c, c) == [(m, m.det()) for m, _ in want]
        shapes.append((G.order, len({p(0) for p in G})))
    # every colouring class is vertex-transitive; the marked edges are not
    assert Counter(shapes[:24]) == {(16, 8): 12, (32, 8): 6, (64, 8): 3,
                                    (96, 8): 2, (192, 8): 1}
    assert shapes[24:] == [(192, 16), (12, 2), (12, 2)]
    sizes = []
    for e, c1, c2 in ((hemi, twins[0], twins[1]), (cover, cover.graph, mirror_cover),
                      (hemi, classes[0], classes[1]), (hemi, classes[1], classes[0]),
                      (hemi, _marked(hemi, 0), _marked(hemi, 5)),
                      (cover, _marked(cover, 0), _marked(cover, 9))):
        want = _every_entry_filter(e, c1, c2)
        assert exchanging_isometries(e, c1, c2) == [(m, m.det()) for m, _ in want]
        sizes.append(len(want))
    # a coset of each stabilizer, or nothing between different classes
    assert sizes == [96, 192, 0, 0, 12, 12]


def test_cube_symmetry_closed_forms(cube):
    # the n-cube {4,3^(n-2)} has 2^n n! automorphisms, all of them
    # isometries, and the hemi-n-cube half as many (McMullen and Schulte,
    # Abstract Regular Polytopes, 6C); at rank 5 each stabilizer of
    # vertex 0 holds 5! = 120 of them
    for n in (3, 4, 5):
        for projective in (False, True):
            e = cube(n, projective)
            want = 2 ** n * math.factorial(n) // (1 + projective)
            A = color_respecting_automorphisms(e.graph)
            G = geometric_symmetry_group(e)
            every = _every_entry_filter(e, e.graph, e.graph)
            assert A.order == G.order == len(every) == want
            assert set(A) == set(G) == {p for _, p in every}
            if projective and n % 2:  # -m and m have opposite determinants
                with pytest.raises(ValueError, match="ambiguous"):
                    _turns(e, G)
            else:
                dets = [e.matrix(p).det() for p in G]
                assert _turns(e, G) == (dets.count(1), dets.count(-1)) \
                    == (want // 2, want // 2)


# The four mutually orthogonal vertices of {1,-1}^4 (rows of a Hadamard
# matrix), each of squared norm 4.
HADAMARD = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


def _hadamard_isometries(points):
    """(det, vertex permutation) for every linear isometry of R^4 that
    maps `points` onto itself, found without presuming signed permutation
    matrices.  An isometry M sends the Hadamard vertices a_i to points b_i
    with the same inner products, and then M = 1/4 sum_i b_i a_i^T; so each
    such frame b gives N = 4M in integers, kept when N x / 4 is a point
    for every point x."""
    index = {x: i for i, x in enumerate(points)}
    dot = lambda x, y: sum(s * t for s, t in zip(x, y))
    frames = [()]
    for a in HADAMARD:
        frames = [f + (b,) for f in frames for b in points
                  if all(dot(b, c) == dot(a, d) for c, d in zip(f + (b,), HADAMARD))]
    out = []
    for f in frames:
        rows = [[sum(b[i] * a[j] for a, b in zip(HADAMARD, f)) for j in range(4)]
                for i in range(4)]
        images = []
        for x in points:
            y = tuple(dot(r, x) for r in rows)
            if any(c % 4 for c in y) or tuple(c // 4 for c in y) not in index:
                break
            images.append(index[tuple(c // 4 for c in y)])
        else:
            det = _dense_det(rows)
            assert det in (256, -256)  # det N = 4^4 det M
            out.append((det // 256, tuple(images)))
    return out


def test_isometries_from_hadamard_frames_match_the_report(
        hemi, twins, cover, cube_embedding, GP, GQ, GH):
    points = cover.coords
    assert points == cube_embedding.coords
    found = _hadamard_isometries(points)
    assert len(found) == 384 and len({p for _, p in found}) == 384
    rows = {c.key: c.computed for c in verify_paper().checks}

    def kept(src, dst):
        dst_color = {(u, v): c for u, v, c in dst.edges}
        return [(d, p) for d, p in found if _takes(p, src, dst_color)]

    def turns(pairs):
        dets = [d for d, _ in pairs]
        return dets.count(1), dets.count(-1)

    # Q-hat and the 4-cube, on their own 16 points
    hat = kept(cover.graph, cover.graph)
    assert (len(hat), turns(hat)) == (rows["qhat.geo_order"], rows["qhat.rotations_only"]) \
        == (192, (192, 0))
    assert {p for _, p in hat} == {p.images for p in GH}
    whole = kept(cube_embedding.graph, cube_embedding.graph)
    assert turns(whole) == (192, 192)
    assert {p for _, p in whole} == {
        p.images for p in geometric_symmetry_group(cube_embedding)}

    # P, Q and the mirror on sign classes: -I fixes every class and has
    # det +1, so M and -M act alike with one determinant
    where, quotient = ({x: i for i, x in enumerate(xs)} for xs in (points, hemi.coords))
    canon = lambda x: x if x[0] > 0 else tuple(-c for c in x)
    on_classes = {p: tuple(quotient[canon(points[p[where[x]]])] for x in hemi.coords)
                  for _, p in found}

    def classes(src, dst):
        dst_color = {(u, v): c for u, v, c in dst.edges}
        out = {on_classes[p]: d for d, p in found
               if _takes(on_classes[p], src, dst_color)}
        return set(out), turns((d, p) for p, d in out.items())

    reg = hemi.graph
    GM = geometric_symmetry_group(hemi.recolored(twins[1]))
    for c, G, order, counts, want in (
            (reg, GP, rows["p.geo_order"], rows["p.geo_reflections"], (192, (96, 96))),
            (twins[0], GQ, rows["q.geo_order"], rows["q.rotations_only"], (96, (96, 0))),
            (twins[1], GM, GM.order, _turns(hemi, GM), (96, (96, 0)))):
        elements, split = classes(c, c)
        assert (len(elements), split) == (order, counts) == want
        assert elements == {p.images for p in G}
    assert classes(twins[0], twins[1])[1] == rows["colorings.exchange_counts"] == (0, 96)
