"""Face posets built from color components, and their flag combinatorics.

Rank-i faces are the connected components of the subgraphs spanned by
i-element color subsets; a component of a smaller color set lying inside
a component of a larger one is the incidence relation.  For a connected
n-regular graph properly colored with n colors so that every class is a
perfect matching, this poset is an abstract polytope of rank n.

The Polytope type does not assume the poset is polytopal: it can hold
any finite set of faces with the structural order (rank, vertex set and
edge set all contained), so near-misses can be represented and
diagnosed.  check_polytopality reports exactly what fails.  The flag
machinery (flag graph, Schlafli symbol, Petrie polygons) requires the
diamond condition and raises where it breaks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .graph import GraphError, component_labels, components_by_colorset, validate
from .group import _trusted


@dataclass(frozen=True)
class Face:
    id: int
    rank: int
    colors: frozenset
    vertices: frozenset
    edges: frozenset  # endpoint pairs (u, v), u < v

    @property
    def key(self):
        """The pairs naming this face within its rank: its edges from rank 1
        up (a component uses all its colors at every vertex), else (v, v)."""
        return self.edges if self.rank > 0 else frozenset((v, v) for v in self.vertices)


class Polytope:
    """A ranked face poset ordered by containment.

    faces[i].id == i always; face order (and hence ids) is deterministic
    for posets built by colourful_polytope.  Incidence: f <= g iff
    f.rank <= g.rank, f.vertices <= g.vertices and f.edges <= g.edges.
    """

    def __init__(self, rank, faces):
        self.rank = rank
        self.faces = tuple(faces)
        for i, f in enumerate(self.faces):
            if f.id != i:
                raise ValueError("face ids must equal positions (face %d)" % i)
        self._by_rank = {}
        for f in self.faces:
            self._by_rank.setdefault(f.rank, []).append(f.id)
        # keys seen twice are ambiguous; only unique keys are indexed
        keys = [(f.rank, f.key) for f in self.faces]
        counts = Counter(keys)
        self._index = {k: i for i, k in enumerate(keys) if counts[k] == 1}
        self._actions = {}  # group.induced_face_action: vertex images -> face action

    # ------------------------------------------------------ structure

    def faces_of_rank(self, r):
        return tuple(self._by_rank.get(r, ()))

    def face_index(self, rank, key):
        """Id of the face of this rank whose Face.key is key, or None."""
        return self._index.get((rank, key))

    def leq(self, i, j):
        return j in self._ups[i]

    @cached_property
    def _ups(self):
        """_ups[i]: the faces above face i, i included, in increasing id
        order, from those holding one vertex of face i (all if none)."""
        fs, holding = self.faces, {}
        for g in fs:
            for v in g.vertices:
                holding.setdefault(v, []).append(g)
        return [frozenset(
            g.id for g in (holding[next(iter(f.vertices))] if f.vertices else fs)
            if f.rank <= g.rank and f.vertices <= g.vertices
            and f.edges <= g.edges) for f in fs]

    @cached_property
    def _diamonds(self):
        """{(lo, hi): mids} for every lo <= hi two ranks apart: mids are
        the faces m one rank above lo with lo <= m <= hi, ids increasing.
        Keys run over lo, then over _ups[lo] in its iteration order."""
        ups, dia = self._ups, {}
        for lo, up in enumerate(ups):
            r = self.faces[lo].rank
            above = [m for m in self.faces_of_rank(r + 1) if m in up]
            for hi in up:
                if self.faces[hi].rank == r + 2:
                    dia[lo, hi] = [m for m in above if hi in ups[m]]
        return dia

    @cached_property
    def _covers(self):
        """_covers[i]: ids of the faces covering face i, in the
        iteration order of _ups[i]."""
        ups, cov = self._ups, []
        for i, up in enumerate(ups):
            strictly_above = set().union(*(ups[k] - {k} for k in up if k != i))
            cov.append(tuple(j for j in up if j != i and j not in strictly_above))
        return cov

    def covers(self):
        """All covering pairs (i, j): i < j with no face strictly between."""
        return tuple(sorted((i, j) for i, js in enumerate(self._covers)
                            for j in js))

    def section(self, bottom, top):
        """The interval [bottom, top] as a polytope in its own right.

        Face ranks shift so the bottom face gets rank -1.  An interval is
        convex, so its order tables are this poset's, renumbered.
        """
        if not self.leq(bottom, top):
            raise ValueError("bottom %d is not below top %d" % (bottom, top))
        ups = self._ups
        ids = sorted(i for i in ups[bottom] if top in ups[i])
        new = {i: k for k, i in enumerate(ids)}
        shift = self.faces[bottom].rank + 1
        faces = tuple(
            Face(new_id, self.faces[i].rank - shift, self.faces[i].colors,
                 self.faces[i].vertices, self.faces[i].edges)
            for new_id, i in enumerate(ids))
        sec = Polytope(self.faces[top].rank - shift, faces)
        sec._ups = [frozenset(sorted(new[j] for j in ups[i] if j in new)) for i in ids]
        sec._covers = [tuple(k for k in up if ids[k] in self._covers[i])
                       for i, up in zip(ids, sec._ups)]
        sec._diamonds = {(a, b): [new[m] for m in self._diamonds[i, ids[b]]]
                         for a, (i, up) in enumerate(zip(ids, sec._ups))
                         for b in up if faces[b].rank == faces[a].rank + 2}
        return sec

    # ----------------------------------------------------------- flags

    @cached_property
    def _flag_graph(self):
        return _build_flag_graph(self)

    def flag_graph(self):
        return self._flag_graph


@dataclass(frozen=True)
class FlagGraph:
    """All flags of a polytope with their i-adjacency involutions.

    A flag is a tuple of proper face ids, one per rank 0..n-1 (improper
    faces are in every flag and omitted).  index maps each flag to its
    position j.  adj[j][i] is the unique flag differing from flag j
    exactly in rank i.
    """

    flags: tuple
    index: dict
    adj: tuple


def _bottom_top(p):
    bots = p.faces_of_rank(-1)
    tops = p.faces_of_rank(p.rank)
    if len(bots) != 1 or len(tops) != 1:
        raise GraphError("poset lacks unique improper faces (%d bottom, %d top)"
                         % (len(bots), len(tops)))
    return bots[0], tops[0]


def _build_flag_graph(p):
    """Flags grown one rank at a time, in increasing order; the i-adjacent
    flags, fl[i] swapped for its diamond partner, looked up column-wise.
    A rank-0 poset has no columns, and its one flag () no neighbours."""
    bottom, top = _bottom_top(p)
    ups, diamonds = p._ups, p._diamonds
    for f in p.faces_of_rank(0):
        if f not in ups[bottom]:
            raise GraphError("face %d (rank 0) is not above the rank -1 face" % f)
    chains = [(bottom,)]
    for r in range(p.rank):
        nxt = {f: [g for g in p.faces_of_rank(r) if g in ups[f]]
               for f in p.faces_of_rank(r - 1)}
        chains = [c + (g,) for c in chains for g in nxt[c[-1]]]
    flags = [c[1:] for c in chains if top in ups[c[-1]]]

    index = {fl: j for j, fl in enumerate(flags)}
    partners = [[] for _ in range(p.rank)]
    for fl in flags:
        chain = (bottom, *fl, top)
        for i, col in enumerate(partners):
            mids = diamonds[chain[i], chain[i + 2]]
            if len(mids) != 2:
                raise GraphError(
                    "diamond fails between faces %d and %d: %d alternatives"
                    % (chain[i], chain[i + 2], len(mids)))
            col.append(mids[0] + mids[1] - fl[i])
    cols = list(zip(*flags))
    adj = zip(*(map(index.__getitem__, zip(*cols[:i], col, *cols[i + 1:]))
                for i, col in enumerate(partners)))
    return FlagGraph(tuple(flags), index, tuple(adj) or ((),) * len(flags))


# ------------------------------------------------------------- builders


def colourful_polytope(g):
    """The face poset of color-subset components of g.

    g must pass validate() (connected, n-regular, properly n-colored,
    matching classes); GraphError carrying the diagnostics otherwise.
    Face ids are deterministic: by rank, then by color set, then by
    least vertex.
    """
    problems = validate(g)
    if problems:
        raise GraphError("graph is not matching-colored: " + "; ".join(problems))
    n = g.n_colors
    faces = [Face(0, -1, frozenset(), frozenset(), frozenset())]
    for r in range(0, n + 1):
        for cs in itertools.combinations(range(n), r):
            for verts, es in components_by_colorset(g, cs):
                faces.append(Face(len(faces), r, frozenset(cs),
                                  frozenset(verts), frozenset(es)))
    return Polytope(n, tuple(faces))


# ------------------------------------------------------------ checking


def check_polytopality(p):
    """Diagnostics for the abstract polytope axioms; empty means polytopal.

    Checks, in order: unique improper faces, gradedness (every face is
    above the rank -1 face, covers step one rank), the diamond condition
    (each pair of faces two ranks apart has two faces between, read from
    p._diamonds and reported in its order), and strong flag
    connectivity (every section of rank at least 2 is flag-connected),
    read off p.flag_graph() one rank pair at a time with no section
    built, by a component count (see _sections_by_flags).
    """
    problems = []
    bots = p.faces_of_rank(-1)
    tops = p.faces_of_rank(p.rank)
    if len(bots) != 1:
        problems.append("expected one rank -1 face, found %d" % len(bots))
    if len(tops) != 1:
        problems.append("expected one rank %d face, found %d" % (p.rank, len(tops)))
    if problems:
        return problems
    bottom, top = bots[0], tops[0]

    ups, covers = p._ups, p._covers
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

    for (i, j), mids in p._diamonds.items():
        if len(mids) != 2:
            problems.append("diamond fails: faces %d < %d have %d faces between"
                            % (i, j, len(mids)))
    if problems:
        return problems

    # strong flag connectivity: the checks above put every face on a flag
    sections = {(lo, hi): _sections_by_flags(p, lo, hi)
                for lo in range(-1, p.rank - 2) for hi in range(lo + 3, p.rank + 1)}
    if all(v is None for v in sections.values()):
        return problems
    for i in range(len(p.faces)):
        for j in ups[i]:
            got = sections.get((p.faces[i].rank, p.faces[j].rank))
            if got is None:
                continue
            n, reached = got.get((i, j), (0, 0))
            if not n:
                problems.append("section [%d, %d] has no flags" % (i, j))
            elif reached != n:
                problems.append(
                    "section [%d, %d] is not flag-connected (%d of %d flags reached)"
                    % (i, j, reached, n))
    return problems


def _sections_by_flags(p, lo, hi):
    """{(f, g): (n, r)} for faces f of rank lo and g of rank hi on a flag
    of p: section [f, g] has n flags, and r are reached from its least;
    None if every such section is flag-connected.

    Needs every face of p on a flag.  Then the flags of [f, g] are the
    parts fl[lo+1:hi] of p's flags fl through f and g, linked by the
    i-adjacencies of p with lo < i < hi.  These keep the rest
    fl[:lo+1] + fl[hi:], so their components refine the classes of equal
    rests, each the flags of one section, and are as many exactly when
    every section is flag-connected: the table is built only if not.
    """
    fg, (bottom, top) = p.flag_graph(), _bottom_top(p)
    label = component_labels([a[lo + 1:hi] for a in fg.adj])
    cols = list(zip(*fg.flags))
    rest = cols[:lo + 1] + cols[hi:]
    if len(set(label)) == (len(set(zip(*rest))) if rest else 1):
        return None
    size, groups = Counter(label), {}
    fs = cols[lo] if lo >= 0 else itertools.repeat(bottom)
    gs = cols[hi] if hi < p.rank else itertools.repeat(top)
    for f, g, fl, x in zip(fs, gs, fg.flags, label):
        groups.setdefault((f, g), {}).setdefault(fl[lo + 1:hi], x)
    return {key: (len(mids), size[mids[min(mids)]])
            for key, mids in groups.items()}


# ------------------------------------------------------- flag geometry


def f_vector(p):
    return tuple(len(p.faces_of_rank(r)) for r in range(p.rank))


def schlafli_type(p):
    """Schlafli symbol (p_1, ..., p_{n-1}), or None if not equivelar.

    p_i is the length of the orbit of a flag under the rotation
    rho_{i-1} rho_i; it must not depend on the flag.  The rotation is
    tabulated once per i, as a permutation of the flags, and its cycle
    lengths are read.
    """
    fg = p.flag_graph()
    out = []
    for i in range(1, p.rank):
        step = _trusted(tuple(fg.adj[row[i - 1]][i] for row in fg.adj))
        lengths = {len(c) for c in step.cycles()}
        if len(lengths) != 1:
            return None
        out.append(lengths.pop())
    return tuple(out)


def canonical_cycle(cycle):
    """Least representative of a cyclic sequence under rotation and
    reversal; makes cycles comparable as plain tuples."""
    cycle = tuple(cycle)
    return min((seq[s:] + seq[:s] for seq in (cycle, cycle[::-1])
                for s in range(len(seq))), default=None)


def petrie_polygons(p):
    """Canonical vertex cycles of the zigzag walks of p.

    The walk applies rho_0, rho_1, ..., rho_{n-1} in order, repeatedly;
    the vertices of the flags at the start of each pass, collected until
    the starting flag recurs, form one polygon.  So the polygons are the
    cycles of that pass, tabulated once as a permutation of the flags,
    each read from its least flag (any start gives the same canonical
    cycle); they come out sorted, so the output is deterministic.  Only
    rank 4 is supported (the walk itself generalizes but nothing here is
    tested below it).
    """
    if p.rank != 4:
        raise GraphError("petrie walk needs a rank-4 polytope, got rank %d"
                         % p.rank)
    fg = p.flag_graph()
    step = []
    for cur in range(len(fg.flags)):
        for i in range(p.rank):
            cur = fg.adj[cur][i]
        step.append(cur)
    verts = [min(p.faces[fl[0]].vertices) for fl in fg.flags]
    return tuple(sorted({canonical_cycle(map(verts.__getitem__, c))
                         for c in _trusted(tuple(step)).cycles()}))


def two_face_cycle(p, fid):
    """Vertex cycle of a rank-2 face, canonicalized."""
    f = p.faces[fid]
    if f.rank != 2:
        raise ValueError("face %d has rank %d, expected 2" % (fid, f.rank))
    adj = {}
    for u, v in f.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(f.vertices)
    cyc, prev = [start], None
    while True:
        nxts = [x for x in adj[cyc[-1]] if x != prev]
        nxt = min(nxts)
        if nxt == start:
            break
        prev = cyc[-1]
        cyc.append(nxt)
    return canonical_cycle(cyc)


def two_face_cycles(p):
    """Canonical cycles of all rank-2 faces, sorted."""
    return tuple(sorted(two_face_cycle(p, fid) for fid in p.faces_of_rank(2)))


# ---------------------------------------------------------------- JSON


def to_json(p):
    """JSON-ready description: faces by rank, cover pairs, flag count,
    Schlafli symbol and f-vector."""
    fg = p.flag_graph()
    return {
        "rank": p.rank,
        "f_vector": list(f_vector(p)),
        "n_flags": len(fg.flags),
        "schlafli": list(schlafli_type(p) or ()) or None,
        "faces": [
            {
                "id": f.id,
                "rank": f.rank,
                "colors": sorted(f.colors),
                "vertices": sorted(f.vertices),
            }
            for f in p.faces
        ],
        "covers": [list(c) for c in p.covers()],
    }
