"""Acceptance criteria, one test per criterion, one verdict line each.

Each test prints "criterion N: PASS/FAIL" before asserting, so the
verdict survives in captured output either way.  Every number is
compared exactly: integers, and rotation angles as Fraction multiples
of pi.

Criterion 5 checks "the 2-faces of Q are Petrie polygons of the hemicube
P and vice-versa" as containment in both directions: the sentence says
"are Petrie polygons", not "are exactly the Petrie polygons".  The
strict form, set equality with one twin's squares, cannot hold.  The
quotient graph is K4,4, with C(4,2)**2 = 36 four-cycles, and the squares
of P, of the twin Q and of its mirror split them 12 + 12 + 12.  Each
polytope's 24 zigzag polygons (192 flags / (2 * 4)) are exactly the
squares of the other two.  The zigzag set of P is also kept by P's
orientation-reversing symmetries, and these swap Q with its mirror
(criterion 9), so it cannot single out one twin.  The test asserts the
containments, this exact accounting, and the partition of the 4-cycles
counted straight from the graph's edges.  The report rows
petrie.q_faces_in_p, petrie.p_faces_in_q and petrie.exchange_structure
check the same statements.
"""

import itertools
import json
import math
from fractions import Fraction

from chiralcube.classify import verify_paper
from chiralcube.geometry import (affine_rank, cycle_holonomy,
                                 classes_hit_all_directions,
                                 exchanging_isometries, lift_cycle,
                                 lift_double_cover, rotation_profile,
                                 squares_see_all_colors)
from chiralcube.graph import colored_isomorphism, enumerate_matching_colorings
from chiralcube.group import (chain_stabilizer, classify_symmetry,
                              color_respecting_automorphisms, flag_orbits)
from chiralcube.polytope import (canonical_cycle, check_polytopality,
                                 colourful_polytope, f_vector, petrie_polygons,
                                 schlafli_type, two_face_cycle, two_face_cycles)

# every quoted sentence the verification report is required to carry
ANCHORS = (
    "P has 4 facets and each of them is a cube",
    "Recall that P has 192 symmetries.",
    "each colour has an edge in each direction",
    "each 2-face of the regular hemi-hypercube has the four colours",
    "any of these properties defines the chiral colourings",
    "Q has precisely 96 symmetries",
    "all 96 orientation preserving elements",
    "geometrically chiral, with geometrically chiral facets",
    "(v₀u₀v₁u₁)(u₂v₂u₃v₃)",
    "generated by the 3-fold rotation around that edge",
    "the 2-faces of Q are Petrie polygons of the hemicube P and vice-versa",
    "The 4-gons of Q lift into 8-gons",
    "Q̂ has Schläfli type {8,3,3}",
    "has 16 vertices, 24 edges and 6 faces",
    "Q̂ is not regular",
    "1-step 8-fold rotation followed by a perpendicular 3-step 8-fold rotation",
    "chiral 4-polytope of full rank",
    "the 2-faces of Q̂ are helices in R⁴",
    "the two enantiomorphic forms of Q",
)


def verdict(n, label, ok):
    print("criterion %2d: %s  (%s)" % (n, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %d failed: %s" % (n, label)


def test_criterion_01_regular_polytope(P, AP, GP):
    ok = (check_polytopality(P) == []
          and f_vector(P) == (8, 16, 12, 4)
          and schlafli_type(P) == (4, 3, 3))
    bot = P.faces_of_rank(-1)[0]
    facets = P.faces_of_rank(3)
    ok = ok and len(facets) == 4
    for fid in facets:
        sec = P.section(bot, fid)
        ok = ok and (f_vector(sec), schlafli_type(sec)) == ((8, 12, 6), (4, 3))
    orbits = flag_orbits(P, AP)
    ok = ok and AP.order == 192 and GP.order == 192 and len(orbits) == 1
    verdict(1, "regular polytope: f-vector, type, cube facets, order 192, "
               "one flag orbit", ok)


def test_criterion_02_coloring_search(hemi, twins):
    every = enumerate_matching_colorings(hemi.graph,
                                         up_to_color_permutation=True)
    by_a = [c for c in every if classes_hit_all_directions(hemi, c)]
    by_b = [c for c in every if squares_see_all_colors(hemi, c)]
    ok = len(twins) == 2 and by_a == by_b == list(twins)
    verdict(2, "exactly 2 chiral colorings up to renaming, both property "
               "filters agree", ok)


def test_criterion_03_twin_chirality(hemi, twins, Q, GQ):
    ok = colored_isomorphism(twins[0], hemi.graph) is not None
    ok = ok and GQ.order == 96
    ok = ok and all(hemi.matrix(p).det() == 1 for p in GQ)
    cls = classify_symmetry(Q, GQ)
    ok = ok and cls.verdict == "chiral" and len(cls.orbit_sizes) == 2
    qbot = Q.faces_of_rank(-1)[0]
    for fid in Q.faces_of_rank(3):
        sec = Q.section(qbot, fid)
        stab = chain_stabilizer(Q, GQ, [fid])
        ok = ok and classify_symmetry(sec, stab).verdict == "chiral"
    verdict(3, "twin is isomorphic to the regular polytope, 96 rotations, "
               "chiral with chiral facets", ok)


def test_criterion_04_stabilizers(Q, GQ):
    ok = True
    for f2 in Q.faces_of_rank(2):
        for f3 in Q.faces_of_rank(3):
            if not Q.leq(f2, f3):
                continue
            st = chain_stabilizer(Q, GQ, [f2, f3])
            ok = ok and st.order == 4 and st.is_cyclic()
            ok = ok and all(p.cycle_type() == (4, 4) for p in st
                            if p.order() == 4)
    for v in Q.faces_of_rank(0):
        for f3 in Q.faces_of_rank(3):
            if not Q.leq(v, f3):
                continue
            st = chain_stabilizer(Q, GQ, [v, f3])
            ok = ok and st.order == 3 and st.is_cyclic()
    for e1 in Q.faces_of_rank(1):
        v = min(Q.faces[e1].vertices)
        vid = next(i for i in Q.faces_of_rank(0)
                   if Q.faces[i].vertices == frozenset([v]))
        st = chain_stabilizer(Q, GQ, [vid, e1])
        ok = ok and st.order == 3 and st.is_cyclic()
    verdict(4, "square-facet stabilizer C4 of type (4,4), vertex-facet C3, "
               "edge pointwise C3", ok)


def four_cycles(graph):
    """Canonical 4-cycles of a graph, found from its edges alone."""
    edges = {frozenset(e) for e in graph.edge_pairs}
    return {canonical_cycle(c)
            for c in itertools.permutations(range(graph.n_vertices), 4)
            if all(frozenset((c[i - 1], c[i])) in edges for i in range(4))}


def test_criterion_05_petrie_exchange(hemi, P, Q, Qm):
    # The paper's sentence, read as containment both ways.
    p2, q2, m2 = (set(two_face_cycles(x)) for x in (P, Q, Qm))
    pp, pq = set(petrie_polygons(P)), set(petrie_polygons(Q))
    ok = q2 <= pp and p2 <= pq
    # Exact accounting: each polytope's zigzags are the squares of the
    # other two, so equality with one twin alone (12 of 24) cannot hold.
    ok = ok and pp == q2 | m2 and pq == p2 | m2
    # Oracle independent of the zigzag walk: the three square sets are
    # pairwise disjoint and together are all 36 four-cycles of K4,4.
    cycles = four_cycles(hemi.graph)
    ok = (ok and len(cycles) == math.comb(4, 2) ** 2
          and p2 | q2 | m2 == cycles
          and len(p2) + len(q2) + len(m2) == len(cycles))
    verdict(5, "twin squares are zigzag polygons of the regular polytope "
               "and vice versa; each polytope's zigzags are the squares of "
               "the other two, which split the 36 four-cycles 12+12+12", ok)


def test_criterion_06_double_cover(hemi, Q, H):
    ok = True
    for fid in Q.faces_of_rank(2):
        cyc = two_face_cycle(Q, fid)
        ok = ok and cycle_holonomy(hemi, cyc) == -1
        up = lift_cycle(hemi, cyc)
        ok = ok and len(up) == 1 and len(up[0]) == 8
    ok = (ok and check_polytopality(H) == []
          and schlafli_type(H) == (8, 3, 3)
          and f_vector(H) == (16, 32, 12, 4))
    hbot = H.faces_of_rank(-1)[0]
    facets = H.faces_of_rank(3)
    ok = ok and len(facets) == 4
    for fid in facets:
        ok = ok and f_vector(H.section(hbot, fid)) == (16, 24, 6)
    verdict(6, "twin squares lift to octagons; cover is polytopal {8,3,3} "
               "(16,32,12,4) with (16,24,6) facets", ok)


def test_criterion_07_cover_chirality(cover, H, GH):
    AH = color_respecting_automorphisms(cover.graph)
    ok = AH.order < 384
    cls = classify_symmetry(H, GH)
    ok = ok and cls.verdict == "chiral" and len(cls.orbit_sizes) == 2
    h2 = H.faces_of_rank(2)[0]
    h3 = next(i for i in H.faces_of_rank(3) if H.leq(h2, i))
    st = chain_stabilizer(H, GH, [h2, h3])
    gen = next((p for p in st if p.order() == 8), None)
    ok = ok and gen is not None and gen.cycle_type() == (8, 8)
    if gen is not None:
        m = cover.matrix(gen)
        ok = ok and m.det() == 1
        ok = ok and rotation_profile(m) == (Fraction(1, 4), Fraction(3, 4))
    verdict(7, "cover is not regular, geometrically chiral, octagon "
               "stabilizer turns pi/4 and 3pi/4", ok)


def test_criterion_08_helices(hemi, cover, H):
    ok = all(affine_rank([cover.coords[v] for v in two_face_cycle(H, fid)]) == 4
             for fid in H.faces_of_rank(2))
    lifted = lift_double_cover(hemi, hemi.direction_coloring)
    cube = colourful_polytope(lifted.graph)
    ok = ok and all(
        affine_rank([lifted.coords[v] for v in two_face_cycle(cube, fid)]) == 2
        for fid in cube.faces_of_rank(2))
    verdict(8, "cover 2-faces have affine rank 4, lifted regular 2-faces "
               "rank 2", ok)


def test_criterion_09_enantiomorphy(hemi, twins):
    ex = exchanging_isometries(hemi, twins[0], twins[1])
    dets = [d for _, d in ex]
    ok = dets.count(-1) > 0 and dets.count(1) == 0
    verdict(9, "twins exchanged by reflections only", ok)


def test_criterion_10_property_suite(hemi, P, Q, H, AP, GP, GQ, GH,
                                     cube_embedding):
    ok = True

    # flag i-adjacency is a perfect involution on every flag set
    cube = colourful_polytope(cube_embedding.graph)
    for p in (P, Q, H, cube):
        fg = p.flag_graph()
        for j in range(len(fg.flags)):
            for i in range(p.rank):
                k = fg.rho[i][j]
                ok = ok and k != j and fg.rho[i][k] == j

    # orbit sizes divide group orders and sum to flag counts
    for p, G in ((P, AP), (Q, GQ), (H, GH)):
        orbits = flag_orbits(p, G)
        sizes = [len(o) for o in orbits]
        ok = ok and sum(sizes) == len(p.flag_graph().flags)
        ok = ok and all(G.order % s == 0 for s in sizes)

    # the matrix lookup is a homomorphism, checked on all pairs
    for G in (GP, GQ):
        mats = {p: hemi.matrix(p) for p in G}
        for p, q in itertools.product(G, repeat=2):
            ok = ok and mats[p] @ mats[q] == mats[p * q]
        if not ok:
            break

    # holonomy does not depend on where a cycle starts or which way it runs
    for fid in Q.faces_of_rank(2):
        cyc = two_face_cycle(Q, fid)
        h = cycle_holonomy(hemi, cyc)
        for s in range(len(cyc)):
            rot = cyc[s:] + cyc[:s]
            ok = ok and cycle_holonomy(hemi, rot) == h
            ok = ok and cycle_holonomy(hemi, tuple(reversed(rot))) == h

    # byte-identical reruns of every enumeration
    ok = ok and [c.colors for c in
                 enumerate_matching_colorings(hemi.graph,
                                              up_to_color_permutation=True)] == \
                [c.colors for c in
                 enumerate_matching_colorings(hemi.graph,
                                              up_to_color_permutation=True)]
    ok = ok and petrie_polygons(P) == petrie_polygons(P)
    ok = ok and flag_orbits(Q, GQ) == flag_orbits(Q, GQ)
    a, b = verify_paper(), verify_paper()
    ok = ok and a.to_text() == b.to_text()
    ok = ok and json.dumps(a.to_json()) == json.dumps(b.to_json())

    verdict(10, "involutions, orbit arithmetic, matrix homomorphism, "
                "holonomy invariance, determinism", ok)


def test_report_carries_declared_anchors():
    report = verify_paper()
    have = {c.anchor for c in report.checks}
    missing = [a for a in ANCHORS if a not in have]
    assert missing == [], "report lost anchors: %r" % (missing,)
