"""Coordinates in R^4 and P^3, signed-permutation isometries, and lifts.

The vertex set {1,-1}^4 with edges along coordinate directions is the
4-cube; identifying antipodes gives its projective quotient, on which
the complete bipartite graph K_{4,4} appears as the union of the edge
graph and the main diagonals.  Symmetries in both settings are signed
permutation matrices (384 of them, or 192 modulo -I).  This module owns
everything that needs coordinates: the quotient embedding, each named
object being it recolored (e.recolored), then covered (e._cover, the
lift of e's own coloring); deriving the colorings fixed only by
rotations, computing symmetry groups as permutation groups whose
matrices the embedding looks up, sign holonomy around cycles, the lift
to the double cover, rotation angles, and OFF-style export.

Projective points are stored by their canonical representative, the
sign choice with first coordinate +1.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import cached_property
from fractions import Fraction

from .graph import (ColoredGraph, GraphError, _Record, components_by_colorset,
                    enumerate_matching_colorings)
from .group import PermutationGroup, VertexPermutation, _by_orbit, _trusted
from .polytope import canonical_cycle, colourful_polytope, two_face_cycle


def _neg(x):
    return tuple(-c for c in x)


def _canonical(x):
    """The sign choice of x whose first nonzero entry is positive."""
    return _neg(x) if next((c for c in x if c != 0), 0) < 0 else x


def _hamming(x, y):
    """Number of coordinates in which x and y differ."""
    return sum(1 for a, b in zip(x, y) if a != b)


def _near(x, y):
    """y if it is one coordinate from x, else -y: the one sign choice."""
    return y if _hamming(x, y) == 1 else _neg(y)


# ------------------------------------------------------------ matrices


class IsometryMatrix(_Record):
    """A signed permutation matrix, optionally taken modulo -I.

    The matrix sends x to y with y[i] = signs[i] * x[perm[i]]: row i has
    its one nonzero entry, signs[i] (+1 or -1), in column perm[i].
    Projective matrices are canonicalized so signs[0] is +1, making
    equality mean equality in the quotient group.
    """

    __slots__ = ("perm", "signs", "projective")

    def __init__(self, perm, signs, projective=False):
        perm, signs = tuple(perm), tuple(signs)
        if (sorted(perm) != list(range(len(perm))) or len(signs) != len(perm)
                or any(s not in (1, -1) for s in signs)):
            raise ValueError("not a signed permutation: %r, %r" % (perm, signs))
        super().__init__(perm, _canonical(signs) if projective else signs, projective)

    @staticmethod
    def identity(n=4, projective=False):
        return IsometryMatrix(tuple(range(n)), (1,) * n, projective)

    @property
    def dimension(self):
        return len(self.perm)

    def apply(self, vec):
        return tuple(s * vec[j] for j, s in zip(self.perm, self.signs))

    def __matmul__(self, other):
        if self.projective != other.projective or self.dimension != other.dimension:
            raise ValueError("cannot mix %r and %r" % (self, other))
        return IsometryMatrix(
            tuple(other.perm[j] for j in self.perm),
            tuple(s * other.signs[j] for j, s in zip(self.perm, self.signs)),
            self.projective)

    def inverse(self):
        # orthogonal, so the inverse is the transpose
        perm, signs = [0] * len(self.perm), [0] * len(self.perm)
        for i, (j, s) in enumerate(zip(self.perm, self.signs)):
            perm[j], signs[j] = i, s
        return IsometryMatrix(tuple(perm), tuple(signs), self.projective)

    def det(self):
        # sgn(perm) * prod(signs), a k-cycle having sign (-1)^(k-1);
        # projectively +-m are one class, of opposite signs in odd dimension
        if self.projective and len(self.perm) % 2:
            raise ValueError("determinant is ambiguous in odd projective dimension")
        n_cycles = len(_trusted(self.perm).cycles())
        return (-1) ** (len(self.perm) - n_cycles) * math.prod(self.signs)


_SIGNED_MATRICES = {}
_TABLES = {}  # (coords, projective) -> that point set's _Table
_QUOTIENT = []  # the one embedding hemicube_embedding() returns, once built
_Table = namedtuple("_Table", "isometries by_root matrices")  # see EmbeddedGraph._table


def all_signed_matrices(n=4, projective=False):
    """Every signed permutation matrix of the given dimension, sorted.

    384 matrices for n=4, or 192 classes modulo -I; each tuple is built once.
    Sorted by their dense rows, a row read as s * (n - j) for its sign s in column j.
    """
    key = (n, projective)
    if key not in _SIGNED_MATRICES:
        out = {IsometryMatrix(perm, signs, projective)
               for perm in itertools.permutations(range(n))
               for signs in itertools.product((1, -1), repeat=n)}
        _SIGNED_MATRICES[key] = tuple(sorted(out, key=lambda m: [
            s * (n - j) for j, s in zip(m.perm, m.signs)]))
    return _SIGNED_MATRICES[key]


def rotation_profile(m):
    """Angle pair of a rotation matrix (det +1, euclidean).

    Eigenvalues of an orthogonal 4x4 rotation come in conjugate pairs
    e^{+-i a}, e^{+-i b}; the profile is (a, b) sorted, exact Fraction
    multiples of pi in [0, 1].  A k-cycle of the permutation with sign
    product s has characteristic polynomial x^k - s on its coordinates,
    so it gives the k roots of x^k = s, of arguments (2t + [s < 0]) pi / k.
    ValueError for projective, orientation-reversing or non-4x4 input,
    where the profile is not defined.
    """
    if m.projective:
        raise ValueError("rotation angles are sign-ambiguous projectively")
    if m.dimension != 4 or m.det() != 1:
        raise ValueError("rotation profile requires a 4x4 matrix of det +1")
    args = []
    for c in _trusted(m.perm).cycles():
        s = math.prod(map(m.signs.__getitem__, c))
        for t in range(len(c)):
            a = Fraction(2 * t + (s < 0), len(c))
            args.append(min(a, 2 - a))
    args.sort()
    if args[0] != args[1] or args[2] != args[3]:
        raise ValueError("eigenvalue arguments do not pair: %r" % (args,))
    return args[0], args[2]


# ----------------------------------------------------------- embeddings


class EmbeddedGraph(_Record):
    """A colored graph with integer coordinates for its vertices.

    Every edge must join vertices differing in exactly one coordinate,
    with antipodal identification first if projective; the index of that
    coordinate is the edge's direction.  The graph's own colors are
    whatever coloring the construction put there (the direction coloring
    for the plain embeddings, a lifted coloring for double covers).
    """

    __slots__ = ("graph", "coords", "projective", "_index", "__dict__")  # cached in __dict__

    def __init__(self, graph, coords, projective):
        super().__init__(graph, coords, projective)
        if len(self.coords) != self.graph.n_vertices:
            raise GraphError("coordinate count does not match vertex count")
        if len({len(x) for x in self.coords}) > 1:
            raise GraphError("coordinates of unequal length")
        if self.projective:
            for x in self.coords:
                if not any(x):
                    raise GraphError("the zero vector %r is no projective point" % (x,))
                if _canonical(x) != x:
                    raise GraphError("projective representative %r not canonical" % (x,))
        # vertex id of each coordinate tuple, built once for every scan
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(self.coords)})
        if len(self._index) != len(self.coords):
            raise GraphError("coordinates collide")
        for u, v, _ in self.graph.edges:
            self.direction(u, v)  # raises if some edge spans >1 coordinate

    @property
    def dimension(self):
        return len(self.coords[0])

    def direction(self, u, v):
        """Index of the single coordinate in which u and v differ."""
        x, y = self.coords[u], self.coords[v]
        if self.projective:
            y = _near(x, y)
        diffs = [j for j in range(len(x)) if x[j] != y[j]]
        if len(diffs) != 1:
            raise GraphError("edge (%d,%d) is not axis-aligned" % (u, v))
        return diffs[0]

    @cached_property
    def _table(self):
        # (matrix, vertex permutation) per signed matrix keeping the points,
        # in sorted order, those permutations by the image of vertex 0, and
        # each one's matrix (None where several induce it); vp(D_s P_pi) is
        # vp(D_s) * vp(P_pi), or m walked whole if a factor leaves the set
        key = (tuple(self.coords), self.projective)
        if key in _TABLES:
            return _TABLES[key]
        n, ms = self.dimension, all_signed_matrices(self.dimension, self.projective)
        ds = {s: vertex_permutation(self, IsometryMatrix(range(n), s, self.projective))
              for s in {m.signs for m in ms}}
        ps = {q: vertex_permutation(self, IsometryMatrix(q, (1,) * n, self.projective))
              for q in {m.perm for m in ms}}
        isometries, by_root, matrices = [], {}, {}
        for m in ms:
            d, q = ds[m.signs], ps[m.perm]
            p = vertex_permutation(self, m) if d is None or q is None else d * q
            if p is not None:
                isometries.append((m, p))
                by_root.setdefault(p.images[0], []).append(p)
                matrices[p] = None if p in matrices else m
        _TABLES[key] = _Table(isometries, by_root, matrices)
        return _TABLES[key]

    def recolored(self, coloring):
        """These points, colored by a coloring over this graph's edges
        (GraphError otherwise); self when it is the graph already.  On the
        quotient's points, the quotient or its held twin when the coloring
        is exactly one of theirs; a fresh embedding for any other."""
        g = self.graph.recolored(coloring)
        if g == self.graph:
            return self
        q = hemicube_embedding()
        if (self.coords, self.projective) == (q.coords, q.projective):
            held = next((h for h in (q, *q._twins) if h.graph == g), None)
            if held is not None:
                return held
        return EmbeddedGraph(g, self.coords, self.projective)

    def matrix(self, p):
        """The isometry inducing vertex permutation p: KeyError if none
        does, GraphError if several do (the action is not faithful)."""
        m = self._table.matrices[p]
        if m is None:
            raise GraphError("matrix action on vertices is not faithful")
        return m

    @cached_property
    def direction_coloring(self):
        """The graph's edges colored by their directions."""
        return ColoredGraph(self.graph.n_vertices, self.dimension, tuple(
            (u, v, self.direction(u, v)) for u, v, _ in self.graph.edges))

    @cached_property
    def _squares(self):
        # the direction-bicolored squares, as positions into graph.edge_pairs
        where = {pr: i for i, pr in enumerate(self.graph.edge_pairs)}
        d = self.direction_coloring
        return [[where[pr] for pr in es]
                for pair in itertools.combinations(range(self.dimension), 2)
                for _, es in components_by_colorset(d, pair) if es]

    @cached_property
    def polytope(self):
        """colourful_polytope(self.graph), GraphError as it raises."""
        return colourful_polytope(self.graph)

    @cached_property
    def _facets(self):
        # (id, section) for each facet of the polytope, a face of rank n - 1;
        # held here, not by the polytope, whose sections would point back
        p = self.polytope
        bottom = p.faces_of_rank(-1)[0]
        return tuple((fid, p.section(bottom, fid)) for fid in p.faces_of_rank(p.rank - 1))

    @cached_property
    def _twins(self):
        # these points recolored by each chiral twin, in derive_chiral_colorings
        # order; recolored hands the quotient's back, so Q, its mirror and
        # their covers are built once per process
        return tuple(EmbeddedGraph(c, self.coords, self.projective)
                     for c in derive_chiral_colorings(self))

    @cached_property
    def _cover(self):
        # the lift of this coloring, the quotient's being hypercube_embedding();
        # lift_cycle reads only its coordinates and edges, off_text its polytope
        return lift_double_cover(self)

    @cached_property
    def antipode(self):
        """The vertex permutation x -> -x; GraphError unless the vertex
        set is centrally symmetric (never so for projective points)."""
        images = tuple(self._index.get(_neg(x)) for x in self.coords)
        if None in images:
            raise GraphError("vertex set is not centrally symmetric")
        return VertexPermutation(images)


def _hemicube_rep(i):
    # vertex i of the projective quotient: bits of i choose the signs of
    # coordinates 1..3, coordinate 0 pinned to +1 by canonicality
    return (1,) + tuple(1 - 2 * ((i >> k) & 1) for k in range(3))


def hemicube_embedding():
    """The antipodal quotient of the 4-cube, with K_{4,4} on top of it.

    8 vertices (sign classes of {1,-1}^4), joined when representatives
    differ in one coordinate (quotient cube edges) or in all four signs
    but one (the main diagonals, direction 0 after re-choosing the
    sign).  Colors are directions; 4-regular, 4 colors, bipartite by
    parity of the number of -1 entries.

    Built once per process: every call returns the same embedding, so
    its polytope, its isometry table and its cover are built once too,
    and so are its two twins (e.recolored), their polytopes and covers.
    """
    if not _QUOTIENT:
        edges = []
        for i, j in itertools.combinations(range(8), 2):
            x = _hemicube_rep(i)
            y = _near(x, _hemicube_rep(j))  # -y on a main diagonal
            if _hamming(x, y) == 1:
                edges.append((i, j, next(k for k in range(4) if x[k] != y[k])))
        g = ColoredGraph(8, 4, tuple(edges))
        _QUOTIENT.append(EmbeddedGraph(g, tuple(_hemicube_rep(i) for i in range(8)), True))
    return _QUOTIENT[0]


def hypercube_embedding():
    """The 4-cube: 16 vertices {1,-1}^4 (vertex i is -1 in coordinate k
    when bit k of i is set) and 32 axis edges colored by direction; the
    quotient's own double cover, so it too is built once per process."""
    return hemicube_embedding()._cover


# ------------------------------------------------------ symmetry groups


def vertex_permutation(e, m):
    """Permutation of e's vertices induced by the matrix m, or None if m does
    not preserve them; ValueError for another dimension or projective m on
    euclidean e, where m and -m act differently."""
    if m.dimension != e.dimension or m.projective > e.projective:
        raise ValueError("%r does not act on this embedding" % (m,))
    imgs = []
    for x in e.coords:
        y = m.apply(x)
        imgs.append(e._index.get(_canonical(y) if e.projective else y))
    return None if None in imgs else VertexPermutation(tuple(imgs))


def _maps_coloring(p, src, dst_colors):
    """Does vertex permutation p send coloring src to the coloring whose
    edge -> color dict is dst_colors, up to renaming colors?"""
    cmap, im = {}, p.images
    for u, v, c in src.edges:
        a, b = im[u], im[v]
        c2 = dst_colors.get((a, b) if a < b else (b, a))
        if c2 is None or cmap.setdefault(c, c2) != c2:
            return False
    return len(set(cmap.values())) == len(cmap)


def _scan(e, src, dst):
    """(matrix, vertex permutation) for every isometry of e taking
    coloring src to coloring dst up to renaming colors, in table order;
    GraphError unless both colorings are over e.graph's edges.  The
    entries fixing 0 are tested against src, every root up to its first
    hit, and group._by_orbit composes the rest."""
    src_colors, dst_colors = ({(u, v): k for u, v, k in e.graph.recolored(c).edges}
                              for c in (src, dst))
    table = e._table
    stab = [s.images for s in table.by_root[0] if _maps_coloring(s, src, src_colors)]
    hits = (next((p.images for p in ps if _maps_coloring(p, src, dst_colors)), None)
            for ps in table.by_root.values())  # each root's first hit, if any
    keep = set(_by_orbit(stab, hits))
    return [(m, p) for m, p in table.isometries if p.images in keep]


def geometric_symmetry_group(e):
    """Isometries preserving the embedded graph and its coloring (up to
    a color permutation), as a group of vertex permutations; e.matrix(p)
    is the isometry behind element p.  Pass e.recolored(c) for coloring c.

    The matrix action on vertices must be faithful (it is for full-support
    coordinate sets); GraphError otherwise, since e.matrix would be
    ambiguous.
    """
    elements = [p for _, p in _scan(e, e.graph, e.graph)]
    # raises unless faithful: every permutation has as many matrices as the identity
    e.matrix(VertexPermutation.identity(len(e.coords)))
    return PermutationGroup(elements)


def exchanging_isometries(e, c1, c2):
    """All isometries taking coloring c1 to coloring c2 (up to color
    renaming), with their orientations: a list of (matrix, det) pairs."""
    return [(m, m.det()) for m, _ in _scan(e, c1, c2)]


# ------------------------------------------------- coloring properties


def classes_hit_all_directions(e, coloring):
    """Property: every color class contains an edge of every direction.

    The direction coloring itself fails this (each class is one
    direction); a transversal class is as far from it as possible.
    GraphError unless the coloring is over e.graph's edges.
    """
    colors = e.graph.recolored(coloring).colors
    pairs = set(zip(colors, e.direction_coloring.colors))  # (color, direction)
    return len(pairs) == len(set(colors)) * e.dimension


def squares_see_all_colors(e, coloring):
    """Property: every direction-bicolored square (a 2-face of the direction-
    colored poset) shows all colors; GraphError unless over e.graph's edges."""
    colors, n = e.graph.recolored(coloring).colors, coloring.n_colors
    return all(len({colors[i] for i in square}) == n for square in e._squares)


def derive_chiral_colorings(e):
    """The matching colorings of e whose classes are transversal to the
    edge directions, one representative per color-permutation class.

    For the projective quotient graph there are two, mirror images of
    each other.  Of the 24 classes they are the only ones whose isometry
    group has order 96 and holds no reflection; 12 classes of order 16
    hold no reflection either.  Filtering by squares_see_all_colors
    instead gives the same list.
    """
    every = enumerate_matching_colorings(e.graph, up_to_color_permutation=True)
    return [c for c in every if classes_hit_all_directions(e, c)]


# ------------------------------------------------- holonomy and lifting


def _lift_walk(e, cycle):
    # the sign vectors of one lifted turn of cycle, and the sign it ends on
    if not e.projective:
        raise ValueError("holonomy needs a projective embedding")
    cycle = tuple(cycle)
    if len(cycle) < 3:
        raise ValueError("cycle must have at least 3 vertices")
    if len(set(cycle)) != len(cycle):
        raise ValueError("cycle revisits a vertex")
    pairs = set(e.graph.edge_pairs)
    walk, sign = [], 1
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        if ((u, v) if u < v else (v, u)) not in pairs:
            raise ValueError("consecutive vertices %d, %d are not adjacent" % (u, v))
        walk.append(e.coords[u] if sign == 1 else _neg(e.coords[u]))
        if _near(e.coords[u], e.coords[v]) != e.coords[v]:
            sign = -sign  # the step lands on the negated representative
    return walk, sign


def cycle_holonomy(e, cycle):
    """Sign picked up by lifting a closed cycle through the double cover.

    cycle is a sequence of at least 3 distinct vertex ids, consecutively
    adjacent, closing up at the end.  Each projective edge either keeps
    or flips the sign of the representative; the product over the cycle
    is +1 (the cycle lifts to two disjoint copies) or -1 (it lifts to a
    single cycle of twice the length).
    """
    return _lift_walk(e, cycle)[1]


def lift_double_cover(e, coloring=None):
    """Lift a projective embedded graph to its double cover in R^4.

    Vertices become the full sign vectors (both preimages of each
    projective point); an edge lifts to x y and -x -y, x one end and y
    the other's sign choice next to it, a double cover on every accepted
    embedding.  The coloring (default: e.graph; over its edges or
    GraphError) is inherited by both lifts; the Euclidean EmbeddedGraph
    returned carries the lifted coloring.  Its points are sorted by their
    reversed coordinates, largest first: hypercube_embedding's order.
    """
    if not e.projective:
        raise ValueError("only projective embeddings have a double cover")
    coloring = e.graph if coloring is None else e.graph.recolored(coloring)
    reps = [tuple(x) for x in e.coords]
    cover_coords = sorted(reps + [_neg(x) for x in reps], key=lambda x: x[::-1],
                          reverse=True)
    index = {x: i for i, x in enumerate(cover_coords)}

    lifted = set()
    for u, v, c in coloring.edges:
        x, y = reps[u], _near(reps[u], reps[v])
        for a, b in ((index[x], index[y]), (index[_neg(x)], index[_neg(y)])):
            lifted.add((min(a, b), max(a, b), c))
    g = ColoredGraph(len(cover_coords), coloring.n_colors, tuple(sorted(lifted)))
    return EmbeddedGraph(g, tuple(cover_coords), False)


def lift_cycle(e, cycle):
    """Lifts of a closed cycle to the double cover, as vertex-id cycles
    over lift_double_cover's vertex order.

    Holonomy +1 gives two disjoint lifted cycles, -1 a single doubled
    one.  Cycles are canonicalized; the list is sorted.  ValueError for
    input that cycle_holonomy rejects.
    """
    walk, sign = _lift_walk(e, cycle)
    back = [_neg(x) for x in walk]  # the other lift of each step
    index = e._cover._index
    return sorted(canonical_cycle(map(index.__getitem__, lift))
                  for lift in ((walk, back) if sign == 1 else (walk + back,)))


# ----------------------------------------------------------- exact rank


def affine_rank(points):
    """Dimension of the affine span of integer points, computed exactly.

    0 for a single point, 1 for a segment, 2 for a planar polygon; a
    genuinely skew polygon in R^4 reaches 3 or 4 (4 means the vertex set
    affinely spans the whole space, a polygon of full rank).  Fraction-
    free: a row r below pivot row pr becomes pr[col] * r - r[col] * pr.
    """
    points = [tuple(p) for p in points]
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    rank = 0
    for col in range(len(base)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [pr[col] * a - f * b for a, b in zip(rows[r], pr)]
        rank += 1
    return rank


# ------------------------------------------------------------------ OFF


def off_text(e, comment=None):
    """OFF-style text for the 2-skeleton of e.polytope in its embedding.

    Projective input is exported as its double cover (the only faithful
    way to draw it in R^4), with the antipodal pairing flagged in the
    header comments.  Faces are the written embedding's 2-faces as vertex
    index cycles (a cover's 2-faces are the lifts of e's); coordinates
    are the exact integer entries.
    """
    lines = ["nOFF", "4"]
    if comment:
        lines.append("# " + comment)

    if e.projective:
        e = e._cover  # from here on the cover is what is written
        lines.append("# double cover of a projective embedding")
        lines.append("# antipodal pairs: " + " ".join(
            "%d:%d" % (i, j) for i, j in enumerate(e.antipode.images) if i < j))
    p = e.polytope
    cycles = sorted(two_face_cycle(p, fid) for fid in p.faces_of_rank(2))
    lines.append("%d %d %d" % (len(e.coords), len(cycles), len(e.graph.edges)))
    for x in e.coords:
        lines.append(" ".join("%d" % c for c in x))
    for cyc in cycles:
        lines.append("%d " % len(cyc) + " ".join("%d" % v for v in cyc))
    return "\n".join(lines) + "\n"
