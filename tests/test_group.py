"""Permutations, group closure, induced actions, flag orbits, stabilizers."""

import itertools
import random

import pytest

from chiralcube.graph import (GraphError, enumerate_matching_colorings,
                              iter_colored_isomorphisms)
from chiralcube.group import (NotAnAutomorphismError, PermutationGroup,
                              VertexPermutation, chain_stabilizer,
                              classify_symmetry,
                              color_respecting_automorphisms, flag_orbits,
                              induced_face_action, reduce_generators)
from chiralcube.polytope import colourful_polytope


# -------------------------------------------------------- permutations


def test_identity():
    p = VertexPermutation.identity(5)
    assert p.images == (0, 1, 2, 3, 4)
    assert p.order() == 1
    # fixed points count as 1-cycles
    assert p.cycle_type() == (1, 1, 1, 1, 1)


def test_composition_order():
    # (p*q)(x) must be p(q(x)), i.e. apply q first
    p = VertexPermutation((1, 0, 2))
    q = VertexPermutation((0, 2, 1))
    assert (p * q).images == tuple(p(q(x)) for x in range(3))


def test_mixed_degree_products_raise():
    # products are not revalidated, so a shorter right factor would
    # otherwise give a permutation of the smaller degree
    for p, q in (((1, 0, 2), (0, 1)), ((0, 1), (0, 1, 2)), ((0, 2, 1), (0, 1))):
        with pytest.raises(ValueError):
            VertexPermutation(p) * VertexPermutation(q)


def test_cycles_and_order():
    p = VertexPermutation((1, 2, 0, 4, 3, 5))
    assert p.cycles() == ((0, 1, 2), (3, 4), (5,))
    assert p.cycle_type() == (3, 2, 1)
    assert p.order() == 6


def _cycles_by_set(images):
    """The cycle walk with its visited points kept in a set."""
    seen, out = set(), []
    for x in range(len(images)):
        if x in seen:
            continue
        cyc, y = [], x
        while y not in seen:
            seen.add(y)
            cyc.append(y)
            y = images[y]
        out.append(tuple(cyc))
    return tuple(out)


def _order_by_powers(p):
    """Least k >= 1 with p^k the identity, by repeated products."""
    one, q, k = VertexPermutation.identity(p.degree), p, 1
    while q != one:
        q, k = q * p, k + 1
    return k


def test_cycles_match_set_walk():
    rng = random.Random(16)
    for n in range(13):
        for _ in range(25):
            images = rng.sample(range(n), n)
            p = VertexPermutation(images)
            want = _cycles_by_set(images)
            assert p.cycles() == want
            assert p.cycle_type() == tuple(sorted(map(len, want), reverse=True))
            assert p.order() == _order_by_powers(p)
    empty = VertexPermutation(())
    assert (empty.cycles(), empty.cycle_type(), empty.order()) == ((), (), 1)


# ------------------------------------------------------------- groups


def test_closure_of_identity():
    G = PermutationGroup([VertexPermutation.identity(4)])
    assert G.order == 1


def test_closure_of_a_three_cycle():
    G = PermutationGroup([VertexPermutation((1, 2, 0))])
    assert G.order == 3
    assert G.is_cyclic()


def test_symmetric_group_on_three_points():
    G = PermutationGroup([VertexPermutation((1, 0, 2)), VertexPermutation((0, 2, 1))])
    assert G.order == 6
    assert not G.is_cyclic()


def test_elements_are_sorted_and_stable():
    G = PermutationGroup([VertexPermutation((1, 2, 0))])
    imgs = [p.images for p in G]
    assert imgs == sorted(imgs)


def test_membership_and_equality():
    G = PermutationGroup([VertexPermutation((1, 2, 0))])
    assert VertexPermutation((2, 0, 1)) in G.elements
    assert VertexPermutation((1, 0, 2)) not in G.elements
    assert G.elements == PermutationGroup([VertexPermutation((2, 0, 1))]).elements


def test_reduce_generators_reproduces_group(AP):
    gens = reduce_generators(AP.elements)
    assert len(gens) < 5
    assert PermutationGroup(gens).elements == AP.elements


# ----------------------------------------------- graph automorphisms


def test_regular_graph_automorphism_count(AP):
    assert AP.order == 192


def test_chiral_graph_automorphism_count(hemi, twins):
    A = color_respecting_automorphisms(hemi.graph.recolored(twins[0]))
    assert A.order == 192


def test_automorphism_count_survives_color_relabel(hemi):
    g = hemi.graph
    relabeled = g.recolored(g.permuted({0: 3, 1: 2, 2: 1, 3: 0}))
    assert color_respecting_automorphisms(relabeled).order == 192


def test_every_automorphism_carries_a_color_permutation(hemi, AP):
    # the color maps are read from the witnesses the group was built from
    g = hemi.graph
    witnesses = list(iter_colored_isomorphisms(g, g))
    assert len(witnesses) == AP.order
    assert {VertexPermutation(vmap) for vmap, _ in witnesses} == set(AP)
    for vmap, cmap in witnesses:
        assert sorted(cmap) == list(range(g.n_colors))
        for u, v, c in g.edges:
            assert g.color_of(vmap[u], vmap[v]) == cmap[c]


# ------------------------------------------------------- face actions


def test_identity_face_action(P):
    a = induced_face_action(P, VertexPermutation.identity(8))
    assert a == VertexPermutation.identity(len(P.faces))


def test_color_breaking_map_is_rejected(P):
    # swapping two vertices inside one part of the bipartition does not
    # respect colors, so some face image is not a face
    bad = VertexPermutation((0, 1, 2, 4, 3, 5, 6, 7))
    with pytest.raises(NotAnAutomorphismError) as info:
        induced_face_action(P, bad)
    assert isinstance(info.value.face_id, int)


def _scanned_face_action(p, sigma):
    """Face ids of the images of p's faces under sigma, found by scanning
    p.faces for the mapped vertex set and the mapped edge set; ("missing",
    id) for the first face with no image."""
    images = []
    for f in p.faces:
        vs = frozenset(sigma(v) for v in f.vertices)
        es = frozenset(tuple(sorted((sigma(a), sigma(b)))) for a, b in f.edges)
        hits = [g.id for g in p.faces
                if g.rank == f.rank and g.vertices == vs and g.edges == es]
        if not hits:
            return ("missing", f.id)
        assert len(hits) == 1
        images.append(hits[0])
    return tuple(images)


def test_face_action_matches_full_scan(P, AP, Q, GQ, H, GH):
    # induced_face_action builds only half of each face key; the scan
    # matches both halves, under every element of each group.  Actions
    # are kept on the polytope, so a second call reads the kept one: it
    # must still match, and a failure must raise again, not be kept.
    for _ in range(2):
        for p, G in ((P, AP), (Q, GQ), (H, GH)):
            for g in G:
                assert induced_face_action(p, g).images == _scanned_face_action(p, g)
    bad = VertexPermutation((0, 1, 2, 4, 3, 5, 6, 7))
    witnesses = []
    for _ in range(2):
        with pytest.raises(NotAnAutomorphismError) as info:
            induced_face_action(P, bad)
        witnesses.append(info.value.face_id)
    assert _scanned_face_action(P, bad) == ("missing", witnesses[0])
    assert witnesses[1] == witnesses[0]


def test_face_action_is_a_homomorphism(P, AP):
    p, q = AP.elements[3], AP.elements[17]
    ap, aq = induced_face_action(P, p), induced_face_action(P, q)
    assert induced_face_action(P, p * q).images == (ap * aq).images


# -------------------------------------------------------- flag orbits


def test_regular_polytope_has_one_orbit(P, AP):
    orbits = flag_orbits(P, AP)
    assert len(orbits) == 1
    assert len(orbits[0]) == 192


def test_twin_has_two_orbits(Q, GQ):
    orbits = flag_orbits(Q, GQ)
    assert sorted(len(o) for o in orbits) == [96, 96]


def test_orbit_ids_deterministic(Q, GQ):
    assert flag_orbits(Q, GQ) == flag_orbits(Q, GQ)


def test_classification_verdicts(P, AP, Q, GQ):
    cp = classify_symmetry(P, AP)
    assert (cp.verdict, cp.orbit_sizes) == ("regular", (192,))
    cq = classify_symmetry(Q, GQ)
    assert (cq.verdict, cq.orbit_sizes) == ("chiral", (96, 96))


def test_trivial_group_is_neither(Q):
    triv = PermutationGroup([VertexPermutation.identity(8)])
    assert classify_symmetry(Q, triv).verdict == "neither"


def _element_orbits(p, G):
    """Flag orbits read from every element of G: flag j's orbit is the
    set of indices of g(flag j) over all g, and the orbits are listed
    by least index."""
    fg = p.flag_graph()
    index = {fl: j for j, fl in enumerate(fg.flags)}
    actions = [induced_face_action(p, g).images for g in G]
    orbits = {}
    for flag in fg.flags:
        orbit = tuple(sorted({index[tuple(a[f] for f in flag)] for a in actions}))
        orbits.setdefault(orbit[0], orbit)
    return tuple(orbits.values())


def test_flag_orbits_match_element_oracle(P, AP, Q, GQ, H, GH, cube):
    # image flags are looked up with one column per rank: 0 to 5 columns
    # over sections of Q, the 3-cube, Q and the hemi-5-cube
    triv = PermutationGroup([VertexPermutation.identity(8)])
    cases = [(P, AP, [192]), (Q, GQ, [96, 96]), (H, GH, [192, 192]),
             (Q, triv, [1] * 192)]
    bottom, top = Q.faces_of_rank(-1)[0], Q.faces_of_rank(4)[0]
    v = Q.faces_of_rank(0)[0]
    e = next(i for i in Q.faces_of_rank(1) if Q.leq(v, i))
    f2 = next(i for i in Q.faces_of_rank(2) if Q.leq(e, i))
    f3 = next(i for i in Q.faces_of_rank(3) if Q.leq(f2, i))
    for lo, hi, sizes in ((v, e, [1]), (v, f2, [2]), (bottom, f2, [8]),
                          (v, f3, [3, 3]), (e, top, [6]), (bottom, f3, [24, 24]),
                          (v, top, [12, 12])):
        cases.append((Q.section(lo, hi), chain_stabilizer(Q, GQ, [lo, hi]), sizes))
    cube3 = cube(3, False)
    cases.append((colourful_polytope(cube3.graph),
                  color_respecting_automorphisms(cube3.graph), [48]))
    cases.append((colourful_polytope(cube(5, True).graph),
                  PermutationGroup([VertexPermutation.identity(16)]), [1] * 1920))
    for p, G, sizes in cases:
        orbits = flag_orbits(p, G)
        assert orbits == _element_orbits(p, G)
        assert sorted(len(o) for o in orbits) == sizes
    assert [p.rank for p, _, _ in cases] == [4, 4, 4, 4, 0, 1, 2, 2, 2, 3, 3, 3, 5]


# -------------------------------------------------------- stabilizers


def test_chain_stabilizer_rejects_non_incident_chain(Q, GQ):
    # two distinct vertices are never comparable
    v0, v1 = Q.faces_of_rank(0)[:2]
    with pytest.raises((GraphError, ValueError)):
        chain_stabilizer(Q, GQ, [v0, v1])


def test_facet_stabilizer_order(Q, GQ):
    st = chain_stabilizer(Q, GQ, [Q.faces_of_rank(3)[0]])
    assert st.order == 24


def test_square_in_facet_stabilizer(Q, GQ):
    f2 = Q.faces_of_rank(2)[0]
    f3 = next(i for i in Q.faces_of_rank(3) if Q.leq(f2, i))
    st = chain_stabilizer(Q, GQ, [f2, f3])
    assert st.order == 4 and st.is_cyclic()
    gen = next(p for p in st if p.order() == 4)
    assert gen.cycle_type() == (4, 4)


def test_edge_pointwise_stabilizer(Q, GQ):
    e1 = Q.faces_of_rank(1)[0]
    v = next(i for i in Q.faces_of_rank(0) if Q.leq(i, e1))
    st = chain_stabilizer(Q, GQ, [v, e1])
    assert st.order == 3 and st.is_cyclic()


def _paper_chains(p):
    """Each facet, then square-in-facet, vertex-in-facet and
    vertex-in-edge chains, chosen as verify_paper chooses them."""
    chains = [[f] for f in p.faces_of_rank(3)]
    f2 = p.faces_of_rank(2)[0]
    chains.append([f2, next(i for i in p.faces_of_rank(3) if p.leq(f2, i))])
    v0 = p.faces_of_rank(0)[0]
    chains.append([v0, next(i for i in p.faces_of_rank(3) if p.leq(v0, i))])
    e1 = p.faces_of_rank(1)[0]
    chains.append([next(i for i in p.faces_of_rank(0) if p.leq(i, e1)), e1])
    return chains


def test_chain_stabilizer_matches_full_face_action(Q, GQ, H, GH, P, AP):
    # the definition: keep the elements whose whole face action fixes
    # every chain face
    cases = [(Q, GQ, _paper_chains(Q) + [[f.id] for f in Q.faces]),
             (H, GH, _paper_chains(H)),
             (P, AP, _paper_chains(P))]
    for p, G, chains in cases:
        actions = {g: induced_face_action(p, g) for g in G.elements}
        for chain in chains:
            keep = [g for g in G.elements if all(actions[g](f) == f for f in chain)]
            st = chain_stabilizer(p, G, chain)
            assert st.elements == tuple(keep)
            assert st.generators == reduce_generators(keep)


def test_chain_stabilizer_rejects_non_automorphisms(P, AP):
    # the bad swap fixes vertex 0, so only the automorphism check sees it
    bad = VertexPermutation((0, 1, 2, 4, 3, 5, 6, 7))
    v0 = P.faces_of_rank(0)[0]
    for G in (PermutationGroup([bad]), PermutationGroup([AP.elements[3], bad])):
        with pytest.raises(NotAnAutomorphismError):
            chain_stabilizer(P, G, [v0])


def _bfs_span(gens, degree):
    """Image tuples of <gens>, by breadth-first search from the identity;
    shares no code with the coset closure of chiralcube.group."""
    ident = tuple(range(degree))
    span, frontier = {ident}, [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = tuple(a[x] for x in g)
                if b not in span:
                    span.add(b)
                    fresh.append(b)
        frontier = fresh
    return span


def _greedy_generators(images, degree):
    """The definition of reduce_generators: add each element, in sorted
    order, that the earlier ones do not generate, closing the generators
    from scratch every time."""
    gens, span = [], {tuple(range(degree))}
    for p in sorted(images):
        if p not in span:
            gens.append(p)
            span = _bfs_span(gens, degree)
    return gens or [tuple(range(degree))]


def test_reduce_generators_matches_greedy_closure(AP, GQ, GH):
    for G in (AP, GQ, GH,
              PermutationGroup([VertexPermutation.identity(3)])):
        images = [p.images for p in G.elements]
        assert sorted(_bfs_span(images, G.degree)) == images
        assert ([g.images for g in reduce_generators(G.elements)]
                == _greedy_generators(images, G.degree))


def test_coset_closure_matches_bfs_closure():
    # random generator sets in S_n, n <= 7: the coset closure behind
    # PermutationGroup and reduce_generators against breadth-first search
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(deadline=None, derandomize=True, database=None, max_examples=60)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 7))
        gens = data.draw(st.lists(st.permutations(range(n)).map(tuple),
                                  min_size=1, max_size=4))
        want = sorted(_bfs_span(gens, n))
        G = PermutationGroup([VertexPermutation(g) for g in gens])
        assert [p.images for p in G.elements] == want
        assert ([g.images for g in reduce_generators(G.elements)]
                == _greedy_generators(want, n))

    check()


def test_group_orders_match_schreier_sims(AP, cover, Q, GQ, H, GH):
    # sympy's Schreier-Sims order, cyclicity and vertex orbits of each
    # group's generators, against the element lists the coset closure
    # materialized
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def sympy_group(G):
        return combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images))
             for g in G.generators])

    groups = [AP, color_respecting_automorphisms(cover.graph), GQ, GH]
    assert [G.order for G in groups] == [192, 192, 96, 192]
    # every chain test_criterion_04_stabilizers stabilizes
    chains = [[a, b] for r, s in ((2, 3), (0, 3)) for a in Q.faces_of_rank(r)
              for b in Q.faces_of_rank(s) if Q.leq(a, b)]
    chains += [[next(v for v in Q.faces_of_rank(0) if Q.leq(v, e)), e]
               for e in Q.faces_of_rank(1)]
    groups += [chain_stabilizer(Q, GQ, c) for c in chains]
    assert len(chains) == 24 + 32 + 16
    # and the octagon-in-facet stabilizer of the cover
    h2 = H.faces_of_rank(2)[0]
    groups.append(chain_stabilizer(
        H, GH, [h2, next(f for f in H.faces_of_rank(3) if H.leq(h2, f))]))
    cyclic = 0
    for G in groups:
        S = sympy_group(G)
        assert S.order() == G.order
        assert S.is_cyclic == G.is_cyclic()
        cyclic += G.is_cyclic()
        orbits = {frozenset(g.images[x] for g in G.elements)
                  for x in range(G.degree)}
        assert sorted(map(len, S.orbits())) == sorted(map(len, orbits))
    assert (len(groups), cyclic) == (77, 73)


def test_automorphisms_match_networkx_vf2(hemi, twins, cover):
    # colour is an edge attribute, so VF2 only matches equal colours:
    # (sigma, pi) is a colour-respecting automorphism exactly when sigma
    # is an isomorphism from the graph with colours renamed by pi to
    # the graph itself; try all 4! renamings
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def nx_graph(g, pi):
        G = nx.Graph()
        G.add_nodes_from(range(g.n_vertices))
        G.add_edges_from((u, v, {"color": pi[c]}) for u, v, c in g.edges)
        return G

    def vf2_pairs(g):
        same = nx_graph(g, range(g.n_colors))
        pairs = set()
        for pi in itertools.permutations(range(g.n_colors)):
            matcher = GraphMatcher(nx_graph(g, pi), same,
                                   edge_match=lambda a, b: a["color"] == b["color"])
            pairs |= {(tuple(m[v] for v in range(g.n_vertices)), pi)
                      for m in matcher.isomorphisms_iter()}
        return pairs

    for g in (hemi.graph, hemi.graph.recolored(twins[0]), cover.graph):
        A = color_respecting_automorphisms(g)
        want = set(iter_colored_isomorphisms(g, g))
        assert len(want) == A.order == 192
        assert {vmap for vmap, _ in want} == {p.images for p in A}
        assert vf2_pairs(g) == want


# Colouring classes of the 4-cube skeleton (indices into its census up to
# colour renaming) whose stabilizer of vertex 0 is not normal in their
# automorphism group, so that a * S and S * a differ for some a.
NON_NORMAL_CUBE_CLASSES = (26, 38, 41, 46, 58, 131, 147, 166, 167, 177)


def test_automorphisms_match_every_witness(hemi, twins, cover, cube_embedding):
    # the group composes one witness per root with the witnesses fixing
    # vertex 0, as a[s[x]]; the oracle reads every witness of the search
    skeleton = cube_embedding.graph
    classes = enumerate_matching_colorings(skeleton, up_to_color_permutation=True)
    assert len(classes) == 1840
    picked = [skeleton.recolored(classes[i]) for i in NON_NORMAL_CUBE_CLASSES]
    for g in [hemi.graph, hemi.graph.recolored(twins[0]), cover.graph, skeleton] + picked:
        A = color_respecting_automorphisms(g)
        want = sorted(vmap for vmap, _ in iter_colored_isomorphisms(g, g))
        assert [p.images for p in A] == want
    for g in picked:  # the inputs tell a[s[x]] from s[a[x]]
        autos = [vmap for vmap, _ in iter_colored_isomorphisms(g, g)]
        stab = [s for s in autos if s[0] == 0]
        assert len(autos) > len(stab) > 1
        assert any({tuple(a[x] for x in s) for s in stab}
                   != {tuple(s[x] for x in a) for s in stab} for a in autos)


# ----------------------------------------- chirality by distinguished generators


def test_schulte_weiss_distinguished_generators(H, GH):
    # Schulte and Weiss, "Chiral polytopes" (1991): a chiral 4-polytope's
    # rotation group is generated by sigma_1, sigma_2, sigma_3, where
    # sigma_i takes the base flag to the flag reached by changing rank
    # i-1, then rank i.  Products compose as VertexPermutation does,
    # (p*q)(x) = p(q(x)); in the other order the relation that holds is
    # (sigma_3 sigma_2 sigma_1)^2 = 1.  Unlike classify_symmetry, this
    # counts no flag orbits.
    fg = H.flag_graph()
    actions = {g: induced_face_action(H, g) for g in GH}

    def taking_base_to(j):
        return [g for g, a in actions.items()
                if fg.index[tuple(map(a, fg.flags[0]))] == j]

    sigmas = [taking_base_to(fg.rho[i][fg.rho[i - 1][0]])
              for i in (1, 2, 3)]
    assert [len(s) for s in sigmas] == [1, 1, 1]
    s1, s2, s3 = (s[0] for s in sigmas)
    assert (s1.order(), s2.order(), s3.order()) == (8, 3, 3)
    for w in ((s1, s2), (s2, s3), (s1, s2, s3)):
        prod = VertexPermutation.identity(s1.degree)
        for s in w:
            prod = prod * s
        assert prod * prod == VertexPermutation.identity(s1.degree)
    left, right = PermutationGroup((s1, s2)), PermutationGroup((s2, s3))
    meet = set(left) & set(right)
    assert (left.order, right.order, len(meet)) == (48, 12, 3)
    assert meet == set(PermutationGroup((s2,)))
    assert PermutationGroup((s1, s2, s3)).elements == GH.elements
    # no rotation takes the base flag to its 0-adjacent flag: chiral
    assert taking_base_to(fg.rho[0][0]) == []
