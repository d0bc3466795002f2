"""Coordinates in R^4 and P^3, signed-permutation isometries, and lifts.

The vertex set {1,-1}^4 with edges along coordinate directions is the
4-cube; identifying antipodes gives its projective quotient, on which
the complete bipartite graph K_{4,4} appears as the union of the edge
graph and the main diagonals.  Symmetries in both settings are signed
permutation matrices (384 of them, or 192 modulo -I).  This module owns
everything that needs coordinates: building the two embedded graphs,
deriving the colorings fixed only by rotations, computing symmetry
groups as permutation groups whose matrices the embedding looks up,
sign holonomy around cycles, the lift to the double cover, rotation
angles, and OFF-style export.

Projective points are stored by their canonical representative, the
sign choice with first coordinate +1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .graph import (ColoredGraph, GraphError, _gather, components_by_colorset,
                    enumerate_matching_colorings)
from .group import PermutationGroup, VertexPermutation, _trusted, reduce_generators
from .polytope import canonical_cycle, two_face_cycle


def _neg(x):
    return tuple(-c for c in x)


def _canonical(x):
    """The sign choice of x whose first nonzero entry is positive."""
    return _neg(x) if next((c for c in x if c != 0), 0) < 0 else x


def _hamming(x, y):
    """Number of coordinates in which x and y differ."""
    return sum(1 for a, b in zip(x, y) if a != b)


# ------------------------------------------------------------ matrices


@dataclass(frozen=True)
class IsometryMatrix:
    """A signed permutation matrix, optionally taken modulo -I.

    The matrix sends x to y with y[i] = signs[i] * x[perm[i]]: row i has
    its one nonzero entry, signs[i] (+1 or -1), in column perm[i].
    Projective matrices are canonicalized so signs[0] is +1, making
    equality mean equality in the quotient group.
    """

    perm: tuple
    signs: tuple
    projective: bool = False

    def __post_init__(self):
        perm, signs = tuple(self.perm), tuple(self.signs)
        if (sorted(perm) != list(range(len(perm))) or len(signs) != len(perm)
                or any(s not in (1, -1) for s in signs)):
            raise ValueError("not a signed permutation: %r, %r" % (perm, signs))
        if self.projective:
            signs = _canonical(signs)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)

    @staticmethod
    def identity(n=4, projective=False):
        return IsometryMatrix(tuple(range(n)), (1,) * n, projective)

    @property
    def dimension(self):
        return len(self.perm)

    @property
    def rows(self):
        """The dense matrix, as tuples of ints."""
        n = len(self.perm)
        return tuple(tuple(s if j == k else 0 for j in range(n))
                     for k, s in zip(self.perm, self.signs))

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
_TABLES = {}  # (coords, projective) -> that point set's isometry tables by name


def all_signed_matrices(n=4, projective=False):
    """Every signed permutation matrix of the given dimension, sorted.

    384 matrices for n=4, or 192 classes modulo -I; each tuple is built once.
    """
    key = (n, projective)
    if key not in _SIGNED_MATRICES:
        out = {IsometryMatrix(perm, signs, projective)
               for perm in itertools.permutations(range(n))
               for signs in itertools.product((1, -1), repeat=n)}
        _SIGNED_MATRICES[key] = tuple(sorted(out, key=lambda m: m.rows))
    return _SIGNED_MATRICES[key]


def _per_point_set(build):
    # a cached property of coords and projective alone, built once per point set
    def get(e):
        tables = _TABLES.setdefault((tuple(e.coords), e.projective), {})
        if build.__name__ not in tables:
            tables[build.__name__] = build(e)
        return tables[build.__name__]
    return cached_property(get)


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


@dataclass(frozen=True)
class EmbeddedGraph:
    """A colored graph with integer coordinates for its vertices.

    Every edge must join vertices differing in exactly one coordinate,
    with antipodal identification first if projective; the index of that
    coordinate is the edge's direction.  The graph's own colors are
    whatever coloring the construction put there (the direction coloring
    for the plain embeddings, a lifted coloring for double covers).
    """

    graph: ColoredGraph
    coords: tuple  # coords[v] is an integer tuple
    projective: bool

    def __post_init__(self):
        if len(self.coords) != self.graph.n_vertices:
            raise GraphError("coordinate count does not match vertex count")
        if len({len(x) for x in self.coords}) > 1:
            raise GraphError("coordinates of unequal length")
        if self.projective:
            for x in self.coords:
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
        if self.projective and _hamming(x, _neg(y)) < _hamming(x, y):
            y = _neg(y)
        diffs = [j for j in range(len(x)) if x[j] != y[j]]
        if len(diffs) != 1:
            raise GraphError("edge (%d,%d) is not axis-aligned" % (u, v))
        return diffs[0]

    @_per_point_set
    def _isometries(self):
        # (matrix, vertex permutation) for each signed matrix preserving the
        # vertex set, filtered by every isometry scan; vp(D_s P_pi) is
        # vp(D_s) * vp(P_pi), or m walked whole if a factor leaves the set
        n, ms = self.dimension, all_signed_matrices(self.dimension, self.projective)
        ds = {s: vertex_permutation(self, IsometryMatrix(range(n), s, self.projective))
              for s in {m.signs for m in ms}}
        ps = {q: vertex_permutation(self, IsometryMatrix(q, (1,) * n, self.projective))
              for q in {m.perm for m in ms}}
        table = []
        for m in ms:
            d, q = ds[m.signs], ps[m.perm]
            p = vertex_permutation(self, m) if d is None or q is None else d * q
            if p is not None:
                table.append((m, p))
        return table

    @_per_point_set
    def _by_root(self):
        out = {}  # the table's vertex permutations by the image of vertex 0
        for _, p in self._isometries:
            out.setdefault(p.images[0], []).append(p)
        return out

    @_per_point_set
    def _matrix_of(self):
        # vertex permutation -> the matrix inducing it, None where several do
        out = {}
        for m, p in self._isometries:
            out[p] = None if p in out else m
        return out

    def matrix(self, p):
        """The isometry inducing vertex permutation p: KeyError if none
        does, GraphError if several do (the action is not faithful)."""
        m = self._matrix_of[p]
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
    def _cover(self):
        # read for its coordinates and edges only, so colors do not matter
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


def _hypercube_rep(i):
    return tuple(1 - 2 * ((i >> k) & 1) for k in range(4))


def hemicube_embedding():
    """The antipodal quotient of the 4-cube, with K_{4,4} on top of it.

    8 vertices (sign classes of {1,-1}^4), joined when representatives
    differ in one coordinate (quotient cube edges) or in all four signs
    but one (the main diagonals, direction 0 after re-choosing the
    sign).  Colors are directions; 4-regular, 4 colors, bipartite by
    parity of the number of -1 entries.
    """
    edges = []
    for i, j in itertools.combinations(range(8), 2):
        x, y = _hemicube_rep(i), _hemicube_rep(j)
        if _hamming(x, y) == 3:
            y = _neg(y)  # a main diagonal: x and -y differ in coordinate 0
        if _hamming(x, y) == 1:
            edges.append((i, j, next(k for k in range(4) if x[k] != y[k])))
    g = ColoredGraph(8, 4, tuple(edges))
    return EmbeddedGraph(g, tuple(_hemicube_rep(i) for i in range(8)), True)


def hypercube_embedding():
    """The 4-cube: 16 vertices {1,-1}^4, 32 axis edges colored by
    direction, built as the double cover of the quotient."""
    return lift_double_cover(hemicube_embedding())


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
    GraphError unless both colorings are over e.graph's edges.  Those with
    0 -> r are a * s for any one such a and every s fixing 0 and src, so
    each root but 0 is tested up to its first hit."""
    src_colors, dst_colors = ({(u, v): k for u, v, k in e.graph.recolored(c).edges}
                              for c in (src, dst))
    stab = [_gather(s.images) for s in e._by_root[0]
            if _maps_coloring(s, src, src_colors)]
    hits = (next((p.images for p in ps if _maps_coloring(p, src, dst_colors)), None)
            for ps in e._by_root.values())  # each root's first hit, if any
    keep = {s(a) for a in hits if a is not None for s in stab}  # a * s
    return [(m, p) for m, p in e._isometries if p.images in keep]


def geometric_symmetry_group(e, coloring=None):
    """Isometries preserving the embedded graph and its coloring (up to
    a color permutation), as a group of vertex permutations; e.matrix(p)
    is the isometry behind element p.

    coloring defaults to e.graph.  The matrix action on vertices must be
    faithful (it is for full-support coordinate sets); GraphError
    otherwise, since e.matrix would be ambiguous.
    """
    if coloring is None:
        coloring = e.graph
    elements = [p for _, p in _scan(e, coloring, coloring)]
    if len({p.images for p in elements}) != len(elements):
        raise GraphError("matrix action on vertices is not faithful")
    return PermutationGroup(reduce_generators(elements), elements=elements)


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


def cycle_holonomy(e, cycle):
    """Sign picked up by lifting a closed cycle through the double cover.

    cycle is a sequence of at least 3 distinct vertex ids, consecutively
    adjacent, closing up at the end.  Each projective edge either keeps
    or flips the sign of the representative; the product over the cycle
    is +1 (the cycle lifts to two disjoint copies) or -1 (it lifts to a
    single cycle of twice the length).
    """
    if not e.projective:
        raise ValueError("holonomy needs a projective embedding")
    cycle = tuple(cycle)
    if len(cycle) < 3:
        raise ValueError("cycle must have at least 3 vertices")
    if len(set(cycle)) != len(cycle):
        raise ValueError("cycle revisits a vertex")
    pairs = set(e.graph.edge_pairs)
    sign = 1
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        if ((u, v) if u < v else (v, u)) not in pairs:
            raise ValueError("consecutive vertices %d, %d are not adjacent" % (u, v))
        if _hamming(e.coords[u], e.coords[v]) != 1:
            sign = -sign  # the step lands on the negated representative
    return sign


def lift_double_cover(e, coloring=None):
    """Lift a projective embedded graph to its double cover in R^4.

    Vertices become the full sign vectors (both preimages of each
    projective point); each edge lifts to the two axis edges joining
    preimages at Hamming distance one.  The coloring (default: e.graph;
    over its edges or GraphError) is inherited by both lifts; the
    Euclidean EmbeddedGraph returned carries the lifted coloring.
    """
    if not e.projective:
        raise ValueError("only projective embeddings have a double cover")
    coloring = e.graph if coloring is None else e.graph.recolored(coloring)
    dim = e.dimension
    reps = [tuple(x) for x in e.coords]
    cover_coords = reps + [_neg(x) for x in reps]
    # re-sort into the standard hypercube order when it matches, so the
    # lift of the quotient cube is the cube with its usual vertex ids
    if sorted(cover_coords) == sorted(_hypercube_rep(i) for i in range(2 ** dim)):
        cover_coords = [_hypercube_rep(i) for i in range(2 ** dim)]
    index = {x: i for i, x in enumerate(cover_coords)}

    lifted = set()
    for u, v, c in coloring.edges:
        for xu in (reps[u], _neg(reps[u])):
            for xv in (reps[v], _neg(reps[v])):
                if _hamming(xu, xv) == 1:
                    a, b = index[xu], index[xv]
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
    cycle = tuple(cycle)
    turns = 1 if cycle_holonomy(e, cycle) == 1 else 2
    index = e._cover._index
    start = e.coords[cycle[0]]
    out = []
    for cur in ((start, _neg(start)) if turns == 1 else (start,)):
        lifted = []
        for k in range(turns * len(cycle)):
            lifted.append(index[cur])
            nxt = e.coords[cycle[(k + 1) % len(cycle)]]
            cur = nxt if _hamming(nxt, cur) == 1 else _neg(nxt)
        out.append(canonical_cycle(lifted))
    return sorted(out)


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


def off_text(e, p, comment=None):
    """OFF-style text for a polytope's 2-skeleton in its embedding.

    Projective input is exported as its double cover (the only faithful
    way to draw it in R^4), with the antipodal pairing flagged in the
    header comments.  Faces are the 2-faces as vertex index cycles;
    coordinates are the exact integer entries.
    """
    lines = ["nOFF", "4"]
    if comment:
        lines.append("# " + comment)

    if e.projective:
        cycles = sorted({c for fid in p.faces_of_rank(2)
                         for c in lift_cycle(e, two_face_cycle(p, fid))})
        e = e._cover  # from here on the cover is what is written
        lines.append("# double cover of a projective embedding")
        lines.append("# antipodal pairs: " + " ".join(
            "%d:%d" % (i, j) for i, j in enumerate(e.antipode.images) if i < j))
    else:
        cycles = sorted(two_face_cycle(p, fid) for fid in p.faces_of_rank(2))

    lines.append("%d %d %d" % (len(e.coords), len(cycles), len(e.graph.edges)))
    for x in e.coords:
        lines.append(" ".join("%d" % c for c in x))
    for cyc in cycles:
        lines.append("%d " % len(cyc) + " ".join("%d" % v for v in cyc))
    return "\n".join(lines) + "\n"
