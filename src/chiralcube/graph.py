"""Edge-colored graphs whose color classes are perfect matchings.

A connected n-regular graph, properly edge-colored with n colors, encodes
an incidence structure: taking connected components of color-subset
subgraphs as faces yields a polytope-like poset (built in polytope.py).
This module owns the graph side: the colored graph type, structural
validation, color-subset components, exhaustive search over matching
colorings, and isomorphism up to renaming of colors.

Vertices are 0..n_vertices-1.  Edges are stored canonically as
(u, v, color) triples with u < v, sorted lexicographically, so two equal
graphs compare equal and serialize identically.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from operator import attrgetter, itemgetter


class GraphError(ValueError):
    """A graph violates the structural requirements of an operation."""


# ---------------------------------------------------------------- types


class _Record:
    """A frozen value whose fields are the public names in its __slots__ and its
    bases'; it compares, hashes and prints as a frozen dataclass of them does."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(f for f in vars(cls).get("__slots__", ()) if f[0] != "_")
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)  # past __setattr__
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __init__(self, *values, **named):
        if named:
            values += tuple(named.pop(f) for f in self._fields[len(values):] if f in named)
        if named or len(values) != len(self._fields):
            raise TypeError("%s takes the fields %s" % (type(self).__name__, self._fields))
        for set_field, v in zip(self._setters, values):
            set_field(self, v)

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is frozen: %r cannot change" % (type(self).__name__, name))

    __delattr__ = __setattr__

    def __eq__(self, other):
        return (self._values(self) == self._values(other)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % fv for fv in zip(self._fields, self._values(self))))

    def __reduce__(self):
        return type(self), self._values(self)


class ColoredGraph(_Record):
    """A graph with one color per edge.  A coloring of a skeleton is a
    ColoredGraph over the skeleton's edge list, so many colorings of one
    skeleton are enumerated, filtered and compared as graphs."""

    __slots__ = ("n_vertices", "n_colors", "edges")  # edges: (u, v, color), u < v, sorted

    def __init__(self, n_vertices, n_colors, edges):
        norm, n, k = [], n_vertices, n_colors
        for e in edges:
            u, v, c = e
            if u == v:
                raise GraphError("loop at vertex %d" % u)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError("edge (%d,%d) out of range" % (u, v))
            if not (0 <= c < k):
                raise GraphError("color %d out of range" % c)
            # an oriented triple is kept, not copied: colorings share them
            norm.append(tuple(e) if u < v else (v, u, c))
        norm.sort()
        pairs = [e[:2] for e in norm]
        if len(set(pairs)) != len(pairs):
            dup = next(p for p in pairs if pairs.count(p) > 1)
            raise GraphError("duplicate edge (%d,%d)" % dup)
        super().__init__(n_vertices, n_colors, tuple(norm))

    # edge_pairs and colors are rebuilt on each read, so that colorings hold
    # no copies; a list comprehension builds them faster than a generator
    @property
    def edge_pairs(self):
        """Endpoint pairs in canonical order, colors stripped."""
        return tuple([(u, v) for u, v, _ in self.edges])

    @property
    def colors(self):
        """Edge colors, parallel to edge_pairs."""
        return tuple([c for _, _, c in self.edges])

    def color_of(self, u, v):
        if u > v:
            u, v = v, u
        for a, b, c in self.edges:
            if (a, b) == (u, v):
                return c
        raise KeyError((u, v))

    def degrees(self):
        deg = [0] * self.n_vertices
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def color_classes(self):
        """Map color -> sorted tuple of endpoint pairs carrying it."""
        cls = defaultdict(list)
        for u, v, c in self.edges:
            cls[c].append((u, v))
        return {c: tuple(sorted(es)) for c, es in cls.items()}

    def recolored(self, coloring):
        """This skeleton colored by `coloring`: the coloring itself, a
        ColoredGraph over the same vertices and edge list; GraphError
        for one over another skeleton."""
        mine, theirs = self.edges, coloring.edges  # endpoints read in place
        if coloring.n_vertices != self.n_vertices or len(theirs) != len(mine) or any(
                a[0] != b[0] or a[1] != b[1] for a, b in zip(theirs, mine)):
            raise GraphError("coloring is over a different edge list")
        return coloring

    def permuted(self, color_map):
        """Rename colors: color c becomes color_map[c]."""
        return ColoredGraph(self.n_vertices, self.n_colors,
                            tuple((u, v, color_map[c]) for u, v, c in self.edges))

    def canonical(self):
        """Representative of the color-permutation class: colors relabeled
        in order of first appearance along the canonical edge list."""
        rename = {}
        for c in self.colors:
            rename.setdefault(c, len(rename))
        return self.permuted(rename)

    def to_json(self):
        return {
            "n_vertices": self.n_vertices,
            "n_colors": self.n_colors,
            "edges": [[u, v, c] for u, v, c in self.edges],
        }


def _gather(b):
    """a -> (a[b[0]], a[b[1]], ...) in C, p * b if a is p's images; below
    two indices itemgetter raises or returns a bare item, so a tuple is built."""
    return itemgetter(*b) if len(b) > 1 else lambda a: tuple(a[i] for i in b)


def _trusted(n_vertices, n_colors, edges):
    # a ColoredGraph from edges known to be canonical and in range
    g = object.__new__(ColoredGraph)
    _Record.__init__(g, n_vertices, n_colors, edges)
    return g


# ----------------------------------------------------------- validation


def validate(g):
    """Check the matching-coloring requirements; return diagnostics.

    An empty list means g is connected, n_colors-regular, properly
    edge-colored, and every color class is a perfect matching.  Each
    diagnostic names the violated rule and the offending element.
    """
    problems = []
    deg = g.degrees()
    for v in range(g.n_vertices):
        if deg[v] != g.n_colors:
            problems.append("vertex %d has degree %d, expected %d"
                            % (v, deg[v], g.n_colors))
    seen_at = defaultdict(set)  # vertex -> colors seen
    for u, v, c in g.edges:
        for x in (u, v):
            if c in seen_at[x]:
                problems.append("color %d repeated at vertex %d (not a proper coloring)"
                                % (c, x))
            seen_at[x].add(c)
    for c in range(g.n_colors):
        covered = {x for u, v, cc in g.edges if cc == c for x in (u, v)}
        if len(covered) != g.n_vertices:
            problems.append("color %d covers %d of %d vertices (not a perfect matching)"
                            % (c, len(covered), g.n_vertices))
    comps = components_by_colorset(g, range(g.n_colors))
    if len(comps) != 1:
        problems.append("graph is disconnected: %d components" % len(comps))
    return problems


def components_by_colorset(g, colors):
    """Connected components of the subgraph with edge colors in `colors`.

    Every vertex of g is kept, so an uncovered vertex forms a singleton
    component (in particular colors=() yields one component per vertex).
    Returns [(vertex tuple, edge-pair tuple), ...] sorted by least vertex.
    """
    want = set(colors)
    bad = sorted(c for c in want if not 0 <= c < g.n_colors)
    if bad:
        raise GraphError("unknown color ids %s (graph has colors 0..%d)"
                         % (bad, g.n_colors - 1))
    sub = [(u, v) for u, v, c in g.edges if c in want]
    adj = [[] for _ in range(g.n_vertices)]
    for u, v in sub:
        adj[u].append(v)
        adj[v].append(u)
    label, comps = component_labels(adj), {}
    for x, root in enumerate(label):
        comps.setdefault(root, ([], []))[0].append(x)
    for u, v in sub:
        comps[label[u]][1].append((u, v))
    return [(tuple(vs), tuple(es)) for vs, es in comps.values()]


def component_labels(adj):
    """label[x]: the least point reachable from point x, where adj[x]
    lists the points one step from x.  Points are 0..len(adj)-1, and
    reachability must be symmetric: undirected edges, or the generators
    of a finite group, whose orbits are then the components."""
    label = [None] * len(adj)
    for s in range(len(adj)):
        if label[s] is None:
            label[s], stack = s, [s]
            while stack:  # a point is labelled as it is pushed, so pushed once
                for y in adj[stack.pop()]:
                    if label[y] is None:
                        label[y] = s
                        stack.append(y)
    return label


# ----------------------------------------------------- coloring search


def enumerate_matching_colorings(g, *, up_to_color_permutation=False):
    """All proper k-edge-colorings of g's skeleton, k = g.n_colors, as
    ColoredGraphs over g's edge list.

    g must be k-regular (its own colors are ignored); then properness
    forces every color class to be a perfect matching.  With
    up_to_color_permutation=True only canonical representatives are
    produced (colors first appear in increasing order along the edge
    list), one per color-permutation class.  Found by backtracking, in
    lexicographic order of the color tuple, hence deterministic.
    """
    k = g.n_colors
    deg = g.degrees()
    bad = [v for v in range(g.n_vertices) if deg[v] != k]
    if bad:
        raise GraphError("graph is not %d-regular at vertices %s" % (k, bad))

    pairs = g.edge_pairs
    m = len(pairs)
    # one (u, v, c) per edge and color, shared by every coloring found
    triples = [[(u, v, c) for c in range(k)] for u, v in pairs]
    used = [set() for _ in range(g.n_vertices)]  # colors present at vertex
    chosen = [None] * m  # the triple of each edge so far
    out = []

    def extend(i, next_new):
        if i == m:
            out.append(_trusted(g.n_vertices, k, tuple(chosen)))
            return
        u, v = pairs[i]
        limit = min(k, next_new + 1) if up_to_color_permutation else k
        for c in range(limit):
            if c in used[u] or c in used[v]:
                continue
            chosen[i] = triples[i][c]
            used[u].add(c)
            used[v].add(c)
            extend(i + 1, max(next_new, c + 1))
            used[u].remove(c)
            used[v].remove(c)

    extend(0, 0)
    del extend  # the closure refers to itself: break the cycle, free its cells now
    return out


# -------------------------------------------------------- isomorphism


def _color_neighbors(g):
    """nbr[v][c]: the neighbor of v along its edge of color c, None when
    v has none.  Raises GraphError when a color repeats at a vertex."""
    nbr = [[None] * g.n_colors for _ in range(g.n_vertices)]
    for u, v, c in g.edges:
        for x, y in ((u, v), (v, u)):
            if nbr[x][c] is not None:
                raise GraphError("color %d repeated at vertex %d (not a proper coloring)"
                                 % (c, x))
            nbr[x][c] = y
    return nbr


def iter_colored_isomorphisms(g1, g2):
    """Yield every isomorphism g1 -> g2 respecting colors up to renaming.

    Witnesses come out as (vertex_map, color_map) tuples (vertex_map[v]
    and color_map[c] are the images).  g1 must be connected and properly
    edge-colored (no color twice at a vertex); GraphError otherwise, even
    when the sizes differ.  Then a witness is fixed by the image r of
    vertex 0 and the images of g1's colors: for every r and every
    injection of g1's colors into g2's, the map is propagated along a BFS
    tree of g1 and kept when it is injective and carries g1's edges off
    the tree onto g2's.  Colors absent from g1 go to the spare colors in
    increasing order.  An improperly colored g2 yields nothing.

    The order is that of a vertex-by-vertex backtracking search: sorted
    by the images of g1's vertices in BFS order from vertex 0, neighbors
    in increasing order.  With g1 is g2 this enumerates the
    color-respecting automorphism group.
    """
    order, rooted = _rooted_search(g1, g2)
    for r in range(g2.n_vertices):  # every key starts with r: sorting per root is global
        yield from sorted(rooted(r), key=lambda w: [w[0][x] for x in order])


def _rooted_search(g1, g2):
    """(g1's vertices in BFS order from 0, rooted): rooted(r) lazily yields
    iter_colored_isomorphisms' witnesses with 0 -> r, in color-map order."""
    nbr1 = _color_neighbors(g1)
    if not g1.n_vertices:
        raise GraphError("graph has no vertices")
    order, tree = [0], []  # tree: (parent, color, child) in BFS order
    for x in order:
        for y, c in sorted((y, c) for c, y in enumerate(nbr1[x]) if y is not None):
            if y not in order:
                order.append(y)
                tree.append((x, c, y))
    if len(order) != g1.n_vertices:
        raise GraphError("graph is disconnected: vertex 0 reaches %d of %d vertices"
                         % (len(order), g1.n_vertices))
    if (g1.n_vertices, g1.n_colors, len(g1.edges)) != (
            g2.n_vertices, g2.n_colors, len(g2.edges)):
        return order, lambda r: iter(())
    try:
        nbr2 = _color_neighbors(g2)
    except GraphError:
        return order, lambda r: iter(())

    # the tree maps its own edges; as the sizes agree and g2 is properly
    # colored, an injective map is an isomorphism when the others map too
    in_tree = {(x, y) if x < y else (y, x) for x, _, y in tree}
    rest = [(u, c, v) for u, v, c in g1.edges if (u, v) not in in_tree]
    used = sorted({c for _, _, c in g1.edges})
    plans = []  # (color map, its tree steps, its other edges), colors mapped
    for img in itertools.permutations(range(g2.n_colors), len(used)):
        fill = dict(zip(used, img))
        spare = iter(sorted(set(range(g2.n_colors)) - set(img)))
        cmap = tuple(fill[c] if c in fill else next(spare)
                     for c in range(g1.n_colors))
        plans.append((cmap, [(x, cmap[c], y) for x, c, y in tree],
                      [(u, cmap[c], v) for u, c, v in rest]))

    def rooted(r):
        for cmap, steps, checks in plans:
            vmap = [r] * g1.n_vertices
            for x, c, y in steps:
                vmap[y] = nbr2[vmap[x]][c]
                if vmap[y] is None:
                    break
            else:
                for u, c, v in checks:
                    if nbr2[vmap[u]][c] != vmap[v]:
                        break
                else:
                    if len(set(vmap)) == len(vmap):
                        yield tuple(vmap), cmap

    return order, rooted


def colored_isomorphism(g1, g2):
    """First color-respecting isomorphism g1 -> g2, or None.

    The witness is (vertex_map, color_map), the first that
    iter_colored_isomorphisms yields: propagated from the image of vertex
    0 and an injection of colors, least in the order of a vertex-by-vertex
    backtracking search.  g1 must be connected and properly edge-colored;
    GraphError otherwise.
    """
    return next(iter_colored_isomorphisms(g1, g2), None)
