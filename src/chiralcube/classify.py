"""One-shot mechanical verification of the whole construction.

verify_paper() rebuilds on each call the exhaustive coloring search, the
twins by the paper's rule, the symmetry groups, the zigzag polygon
exchange and the sign holonomy, and runs every check afresh: Q and its
mirror are the quotient recolored, Q-hat Q's cover.  Built once per
process are the paper's named objects: the quotient-cube embedding with
its regular polytope and its 4-cube cover (the direction coloring's),
the quotient recolored by each chiral twin with its polytope and its
cover Q-hat, the facet sections of each of those polytopes, and the
isometry table of each point set.  Any other coloring, a twin with its
colors renamed among them, and an injected base graph get embeddings of
their own.
Each claim becomes one report row with the expected and computed values,
and passes when they are equal; a failure is recorded in its row, never
raised, so the report always completes as far as the data allows.

Every row also carries an anchor: the quoted sentence of the source
construction that the check mechanizes, or the tag "derived" for checks
whose expected value was computed independently rather than quoted.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import (GraphError, _Record, colored_isomorphism, component_labels,
                    enumerate_matching_colorings, validate)
from .group import (chain_stabilizer, classify_symmetry,
                    color_respecting_automorphisms, induced_face_action)
from .geometry import (EmbeddedGraph, _maps_coloring, affine_rank, cycle_holonomy,
                       classes_hit_all_directions, exchanging_isometries,
                       geometric_symmetry_group, hemicube_embedding,
                       rotation_profile, squares_see_all_colors)
from .polytope import (check_polytopality, f_vector, petrie_polygons,
                       schlafli_type, two_face_cycles)

DERIVED = "derived"


class CheckResult(_Record):
    __slots__ = ("key", "claim", "anchor", "expected", "computed")

    @property
    def passed(self):
        return self.expected == self.computed


class VerificationReport(_Record):
    __slots__ = ("checks",)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {
            "passed": self.passed,
            "n_checks": len(self.checks),
            "checks": [
                {
                    "key": c.key,
                    "claim": c.claim,
                    "anchor": c.anchor,
                    "expected": _jsonable(c.expected),
                    "computed": _jsonable(c.computed),
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }

    def to_text(self):
        lines = ["verification of the quotient-cube twins and their double cover",
                 "=" * 63]
        for c in self.checks:
            mark = "[ ok ]" if c.passed else "[FAIL]"
            line = "%s %-28s %s" % (mark, c.key, c.claim)
            if not c.passed:
                line += "  (expected %s, got %s)" % (_show(c.expected), _show(c.computed))
            lines.append(line)
            if c.anchor != DERIVED:
                lines.append(' ' * 7 + '"%s"' % c.anchor)
        lines.append("-" * 63)
        failed = sum(1 for c in self.checks if not c.passed)
        lines.append("%d checks, %d passed" % (len(self.checks),
                                               len(self.checks) - failed))
        lines.append("ALL CHECKS PASSED" if failed == 0
                     else "%d CHECKS FAILED" % failed)
        return "\n".join(lines) + "\n"


def _show(x):
    """repr, with set members sorted so no hash seed changes the text."""
    if isinstance(x, (set, frozenset)) and x:
        return "{%s}" % ", ".join(sorted(map(_show, x)))
    return repr(x)


def _jsonable(x):
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        # key=repr: heterogeneous failure values must still sort
        return sorted((_jsonable(v) for v in x), key=repr)
    return x


def enantiomorph_check(c1, c2, embedding):
    """How two colorings of the same embedded graph are related in space.

    "same form": some orientation-preserving isometry takes c1 to c2 (up
    to renaming colors).  "enantiomorphic": isometries take c1 to c2 but
    every one of them reverses orientation (mirror twins).  "neither":
    no isometry relates them at all.
    """
    return _exchange_verdict(exchanging_isometries(embedding, c1, c2))


def _exchange_verdict(ex):  # ex: the pairs exchanging_isometries returns
    if not ex:
        return "neither"
    if any(d == 1 for _, d in ex):
        return "same form"
    return "enantiomorphic"


def _turns(e, G):
    """(rotations, reflections): the isometries of e behind G's elements,
    counted by determinant.  det is a homomorphism into {1, -1}, so half
    of G reverses orientation when a generator does, and none otherwise."""
    rot = G.order // 2 if any(e.matrix(g).det() == -1 for g in G.generators) else G.order
    return rot, G.order - rot


def _chiral_under(e, G, colorings):
    """The colorings kept by every rotation in G and by no reflection, up
    to renaming colors; none if no generator reflects (see _turns).  With
    r the first that does, s and r*s*r for each rotating generator s and
    s*r and r*s for each reflecting one generate the rotations (Schreier's
    lemma for the cosets {1, r}; r*r stands in for r^-1 r^-1).  The
    permutations keeping a coloring form a group: these and r decide."""
    dets = [(g, e.matrix(g).det()) for g in G.generators]
    r = next((g for g, d in dets if d == -1), None)
    if r is None:
        return []
    rotations = [t for s, d in dets for t in ((s, r * s * r) if d == 1 else (s * r, r * s))]
    dsts = [{(u, v): k for u, v, k in c.edges} for c in colorings]
    return [c for c, dst in zip(colorings, dsts)
            if all(_maps_coloring(p, c, dst) for p in rotations)
            and not _maps_coloring(r, c, dst)]


def _facet_shapes(e):
    """The set of (f-vector, Schlafli type, polytopal) over the facets of
    e's polytope."""
    return {(f_vector(sec), schlafli_type(sec), check_polytopality(sec) == [])
            for _, sec in e._facets}


def verify_paper(*, coloring=None, base_graph=None):
    """Verify every claim about the construction; returns a report.

    The keyword arguments exist for fault injection in tests: `coloring`
    replaces the derived twin coloring in the whole downstream pipeline,
    `base_graph` replaces the direction-colored quotient graph.  With
    the defaults the report must come out all green.
    """
    return VerificationReport(tuple(CheckResult(*row) for row in _rows(coloring, base_graph)))


def _unavailable(err):
    return "unavailable (%s)" % err


def _polytopal(key, claim, build):
    """Yields the polytopality row of the embedding build() returns and
    returns that embedding, or None after a failed row when either
    raises GraphError."""
    try:
        e = build()
        p = e.polytope
    except GraphError as err:
        yield key, claim, DERIVED, [], _unavailable(err)
        return None
    yield key, claim, DERIVED, [], check_polytopality(p)
    return e


def _rows(coloring, base_graph):
    """verify_paper's rows in order, each (key, claim, anchor, expected,
    computed); they stop where the data cannot go on."""
    # ---------------------------------------------------------- base graph
    e0 = hemicube_embedding()
    g = base_graph if base_graph is not None else e0.graph
    yield ("base.graph_valid",
           "quotient graph is connected, 4-regular, properly 4-colored, matching classes",
           DERIVED,
           [], validate(g))

    bipartite_claim = ("edge skeleton plus diagonals is complete bipartite "
                       "on the two parities")
    if g.n_vertices != len(e0.coords):
        yield ("base.complete_bipartite", bipartite_claim, DERIVED, True, _unavailable(
            "%d vertices, %d sign classes" % (g.n_vertices, len(e0.coords))))
    else:
        odd = frozenset(v for v in range(g.n_vertices)
                        if sum(1 for c in e0.coords[v] if c < 0) % 2)
        complete_bipartite = all(
            ((u in odd) != (v in odd)) for u, v, _ in g.edges
        ) and len(g.edges) == len(odd) * (g.n_vertices - len(odd))
        yield ("base.complete_bipartite", bipartite_claim, DERIVED,
               True, complete_bipartite)

    try:
        e = e0 if base_graph is None else EmbeddedGraph(g, e0.coords, True)
    except GraphError as err:
        yield ("base.embedding", "graph sits on the projective sign classes",
               DERIVED, True, _unavailable(err))
        return

    # ------------------------------------------------- the regular polytope
    if (yield from _polytopal("p.polytopal", "color components form an abstract 4-polytope",
                              lambda: e)) is None:
        return
    P = e.polytope
    yield ("p.f_vector", "8 vertices, 16 edges, 12 squares, 4 facets",
           DERIVED,
           (8, 16, 12, 4), f_vector(P))
    yield ("p.schlafli", "the quotient polytope has type {4,3,3}",
           DERIVED,
           (4, 3, 3), schlafli_type(P))
    yield ("p.flag_count", "192 flags", DERIVED, 192, len(P.flag_graph().flags))

    yield ("p.facets_cubes", "all 4 facets are 3-cubes",
           "P has 4 facets and each of them is a cube",
           {((8, 12, 6), (4, 3), True)}, _facet_shapes(e))

    AP = color_respecting_automorphisms(g)
    yield ("p.autos_order", "192 color-respecting automorphisms",
           "Recall that P has 192 symmetries.",
           192, AP.order)
    verdict = classify_symmetry(P, AP).verdict
    yield ("p.regular", "flag-transitive under its automorphisms: regular",
           "the hemi-hypercube {4,3,3}/2 is a regular 4-polytope",
           "regular", verdict if P.rank == 4 else "%s rank-%d poset" % (verdict, P.rank))

    GP = geometric_symmetry_group(e)
    yield ("p.geo_order", "realized with all 192 automorphisms as isometries",
           "Recall that P has 192 symmetries.",
           192, GP.order)
    yield ("p.geo_reflections", "96 rotations and 96 reflections",
           DERIVED,
           (96, 96), _turns(e, GP))

    # -------------------------------------------------- the coloring search
    every = enumerate_matching_colorings(g, up_to_color_permutation=True)
    by_a = [c for c in every if classes_hit_all_directions(e, c)]
    by_b = [c for c in every if squares_see_all_colors(e, c)]
    twins = _chiral_under(e, GP, every)  # the twins by the paper's rule
    yield ("colorings.twin_count",
           "exactly two direction-transversal colorings up to renaming colors",
           "it admits two chiral colourings",
           2, len(by_a))
    yield ("colorings.filter_transversal",
           "keeping colorings whose classes meet every direction finds the twins",
           "each colour has an edge in each direction",
           True, by_a == twins)
    yield ("colorings.filter_squares",
           "keeping colorings showing all four colors on every square finds the twins",
           "each 2-face of the regular hemi-hypercube has the four colours",
           True, bool(twins) and by_b == twins)
    yield ("colorings.properties_agree",
           "the two filters select exactly the same colorings",
           "any of these properties defines the chiral colourings",
           True, bool(by_a) and by_a == by_b)

    q_claim = "twin coloring builds an abstract 4-polytope"
    if len(twins) != 2:
        yield ("q.polytopal", q_claim, DERIVED, [],
               _unavailable("no twin pair to continue with"))
        return
    c_q = coloring if coloring is not None else twins[0]
    c_m = twins[0] if c_q.canonical() == twins[1] else twins[1]

    ex = exchanging_isometries(e, twins[0], twins[1])
    yield ("colorings.mirror_pair",
           "the two colorings are mirror images, not directly congruent",
           "the two enantiomorphic forms of Q",
           "enantiomorphic", _exchange_verdict(ex))
    exd = [d for _, d in ex]
    yield ("colorings.exchange_counts",
           "no rotation and 96 reflections exchange the twins",
           DERIVED,
           (0, 96), (exd.count(1), exd.count(-1)))

    # ------------------------------------------------------- the chiral twin
    eq = yield from _polytopal("q.polytopal", q_claim, lambda: e.recolored(c_q))
    if eq is None:
        return
    Q = eq.polytope
    yield ("q.schlafli", "the twin has type {4,3,3}",
           DERIVED,
           (4, 3, 3), schlafli_type(Q))
    yield ("q.abstractly_regular_poset",
           "underlying abstract polytope is the same as the regular one",
           "P and Q are combinatorially isomorphic",
           True, colored_isomorphism(c_q, g) is not None)

    GQ = geometric_symmetry_group(eq)
    yield ("q.geo_order", "the twin keeps exactly 96 isometries",
           "Q has precisely 96 symmetries",
           96, GQ.order)
    yield ("q.rotations_only", "every surviving isometry preserves orientation",
           "all 96 orientation preserving elements",
           (96, 0), _turns(eq, GQ))

    cls_q = classify_symmetry(Q, GQ)
    yield ("q.geometrically_chiral",
           "two flag orbits, adjacent flags always in opposite orbits",
           "geometrically chiral, with geometrically chiral facets",
           ("chiral", (96, 96)), (cls_q.verdict, cls_q.orbit_sizes))

    facets, facet_class = [], set()
    for fid, sec in eq._facets:
        facets.append(fid)
        stab = chain_stabilizer(Q, GQ, [fid])
        c = classify_symmetry(sec, stab)
        facet_class.add((stab.order, c.verdict, c.orbit_sizes))
    face_orbit = component_labels(
        list(zip(*(induced_face_action(Q, p).images for p in GQ.generators))))
    yield ("q.facets_transitive", "the isometries permute the 4 facets transitively",
           DERIVED,
           1, len({face_orbit[f] for f in facets}))
    yield ("q.facets_chiral",
           "each facet is a chiral polyhedron under its stabilizer of order 24",
           "geometrically chiral, with geometrically chiral facets",
           {(24, "chiral", (24, 24))}, facet_class)

    f2 = Q.faces_of_rank(2)[0]
    f3 = next(i for i in facets if Q.leq(f2, i))
    st = chain_stabilizer(Q, GQ, [f2, f3])
    gen_types = sorted({p.cycle_type() for p in st if p.order() == st.order})
    yield ("q.stab_square_facet",
           "a square-in-facet chain has cyclic stabilizer of order 4, acting as two 4-cycles",
           "(v₀u₀v₁u₁)(u₂v₂u₃v₃)",
           (4, True, [(4, 4)]), (st.order, st.is_cyclic(), gen_types))

    v0 = Q.faces_of_rank(0)[0]
    f3v = next(i for i in facets if Q.leq(v0, i))
    stv = chain_stabilizer(Q, GQ, [v0, f3v])
    yield ("q.stab_vertex_facet",
           "a vertex-in-facet chain has cyclic stabilizer of order 3",
           "generated by the 3-fold rotation around the edge of Q containing "
           "the vertex, but not contained on the 3-face",
           (3, True), (stv.order, stv.is_cyclic()))

    e1 = Q.faces_of_rank(1)[0]
    v_in = next(i for i in Q.faces_of_rank(0) if Q.leq(i, e1))
    ste = chain_stabilizer(Q, GQ, [v_in, e1])
    yield ("q.stab_edge_pointwise",
           "fixing an edge with one endpoint leaves a group of order 3",
           "generated by the 3-fold rotation around that edge",
           3, ste.order)

    # ------------------------------------------------- the zigzag exchange
    Qm = e.recolored(c_m).polytope
    p2, q2, m2 = two_face_cycles(P), two_face_cycles(Q), two_face_cycles(Qm)
    pp, pq = petrie_polygons(P), petrie_polygons(Q)
    yield ("petrie.q_faces_in_p",
           "every square of the twin is a zigzag polygon of the regular polytope",
           "the 2-faces of Q are Petrie polygons of the hemicube P and vice-versa",
           True, set(q2) <= set(pp))
    yield ("petrie.p_faces_in_q",
           "every square of the regular polytope is a zigzag polygon of the twin",
           "the 2-faces of Q are Petrie polygons of the hemicube P and vice-versa",
           True, set(p2) <= set(pq))
    yield ("petrie.exchange_structure",
           "zigzags of each polytope are exactly the squares of the other two",
           DERIVED,
           True, set(pp) == set(q2) | set(m2) and set(pq) == set(p2) | set(m2))

    # --------------------------------------------------- holonomy and lift
    yield ("lift.twin_holonomy",
           "every square of the twin reverses sign around the cover",
           "The 4-gons of Q lift into 8-gons",
           {-1}, {cycle_holonomy(e, c) for c in q2})
    yield ("lift.regular_holonomy",
           "every square of the regular polytope lifts to two squares",
           DERIVED,
           {1}, {cycle_holonomy(e, c) for c in p2})

    try:  # on a base of degree 3 the four direction colors are no matching coloring
        cube = e.recolored(e.direction_coloring)._cover.polytope
        shape = f_vector(cube), schlafli_type(cube)
    except GraphError as err:
        shape = _unavailable(err)
    yield ("lift.regular_lift_is_cube",
           "lifting the direction coloring gives the 4-cube",
           DERIVED,
           ((16, 32, 24, 8), (4, 3, 3)), shape)

    he = yield from _polytopal("qhat.polytopal",
                               "lifted coloring builds an abstract 4-polytope",
                               lambda: eq._cover)
    if he is None:
        return
    H = he.polytope
    yield ("qhat.schlafli", "the cover has type {8,3,3}",
           "Q̂ has Schläfli type {8,3,3}",
           (8, 3, 3), schlafli_type(H))
    yield ("qhat.f_vector", "16 vertices, 32 edges, 12 octagons, 4 facets",
           DERIVED,
           (16, 32, 12, 4), f_vector(H))

    deck = he.antipode.images
    deck_ok = all(j != i for i, j in enumerate(deck)) and all(
        he.graph.color_of(*sorted((deck[u], deck[v]))) == c for u, v, c in he.graph.edges)
    yield ("qhat.deck_map",
           "the antipodal map is a free color-preserving automorphism of the cover",
           "Each of the vertices and edges of Q lift to two copies of them",
           True, deck_ok)

    yield ("qhat.facets",
           "all 4 facets have 16 vertices, 24 edges, 6 octagons, type {8,3}",
           "has 16 vertices, 24 edges and 6 faces",
           {((16, 24, 6), (8, 3), True)}, _facet_shapes(he))

    ranks = {affine_rank([he.coords[v] for v in c]) for c in two_face_cycles(H)}
    yield ("qhat.helical_faces", "every octagon face affinely spans all of R^4",
           "the 2-faces of Q̂ are helices in R⁴",
           {4}, ranks)

    GH = geometric_symmetry_group(he)
    yield ("qhat.geo_order", "the cover keeps exactly 192 isometries",
           DERIVED,
           192, GH.order)
    yield ("qhat.rotations_only", "every isometry of the cover preserves orientation",
           DERIVED,
           (192, 0), _turns(he, GH))

    AH = color_respecting_automorphisms(he.graph)
    yield ("qhat.not_regular",
           "the cover admits fewer automorphisms than the 384 needed for regularity",
           "Q̂ is not regular",
           True, AH.order < 384)
    yield ("qhat.autos_equal_isometries",
           "every color-respecting automorphism of the cover is realized geometrically",
           DERIVED,
           192, AH.order)

    cls_h = classify_symmetry(H, GH)
    yield ("qhat.geometrically_chiral",
           "two flag orbits of 192, adjacent flags always in opposite orbits",
           "chiral 4-polytope of full rank",
           ("chiral", (192, 192)), (cls_h.verdict, cls_h.orbit_sizes))

    h2 = H.faces_of_rank(2)[0]
    h3 = next(fid for fid, _ in he._facets if H.leq(h2, fid))
    st8 = chain_stabilizer(H, GH, [h2, h3])
    oct_gen = next((p for p in st8 if p.order() == 8), None)
    profile_ok, gen_type = False, None
    if oct_gen is not None:
        gen_type = oct_gen.cycle_type()
        profile_ok = (rotation_profile(he.matrix(oct_gen))
                      == (Fraction(1, 4), Fraction(3, 4)))
    yield ("qhat.stab_octagon_facet",
           "an octagon-in-facet chain has a cyclic order-8 stabilizer, two 8-cycles, "
           "turning by pi/4 in one plane and 3pi/4 in the perpendicular one",
           "1-step 8-fold rotation followed by a perpendicular 3-step 8-fold rotation",
           (8, True, (8, 8), True),
           (st8.order, st8.is_cyclic(), gen_type, profile_ok))
