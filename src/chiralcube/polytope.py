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
diamond condition and raises where it breaks.  A flag graph is the
involutions rho_0..rho_{n-1} of flag positions, built and read a rank
at a time.  A section is a poset of the same type, handed its parent's
order record and, for a facet, its parent's flags when it is built.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import cached_property

from .graph import (GraphError, _Record, _gather, component_labels,
                    components_by_colorset, validate)
from .group import _trusted


class Face(_Record):
    __slots__ = ("rank", "colors", "vertices", "edges")  # edges: pairs (u, v), u < v

    @property
    def key(self):
        """The pairs naming this face within its rank: its edges from rank 1
        up (a component uses all its colors at every vertex), else (v, v)."""
        return self.edges if self.rank > 0 else frozenset((v, v) for v in self.vertices)


class Polytope:
    """A ranked face poset ordered by containment.

    A face's id is its position in faces, an order that is deterministic
    for posets built by colourful_polytope.  Incidence: f <= g iff
    f.rank <= g.rank, f.vertices <= g.vertices and f.edges <= g.edges.
    """

    def __init__(self, rank, faces):
        self.rank = rank
        self.faces = tuple(faces)
        self._by_rank = {}
        for i, f in enumerate(self.faces):
            self._by_rank.setdefault(f.rank, []).append(i)
        self._actions = {}  # group.induced_face_action: vertex images -> face action

    # ------------------------------------------------------ structure

    def faces_of_rank(self, r):
        return tuple(self._by_rank.get(r, ()))

    def face_index(self, rank, key):
        """Id of the face of this rank whose Face.key is key, or None.  The
        index of unique keys is built on the first lookup, so a poset that
        never looks a face up, as most sections do not, builds no key."""
        return self._index.get((rank, key))

    @cached_property
    def _index(self):
        # keys seen twice are ambiguous; only unique keys are indexed
        keys = [(f.rank, f.key) for f in self.faces]
        counts = Counter(keys)
        return {k: i for i, k in enumerate(keys) if counts[k] == 1}

    def leq(self, i, j):
        return j in self._ups[i]

    _ups, _covers, _diamonds = (property(lambda self, k=k: self._tables[k])
                                for k in range(3))

    @cached_property
    def _tables(self):
        """The order record (ups, covers, diamonds), in one pass.  ups[i]:
        the faces above face i, i included, from those holding one vertex
        of i (all if none); built in id order, read in set order (face 1
        of Q-hat reads 64, 1, 33, 65), as covers, diamonds and the order of
        check_polytopality's diagnostics are.  covers[i]: the faces
        covering i.  diamonds[lo, hi], lo <= hi two ranks apart, keyed lo
        first: the faces one rank above lo and below hi, ids increasing."""
        fs, holding = self.faces, {}
        for k, g in enumerate(fs):
            for v in g.vertices:
                holding.setdefault(v, []).append((k, g))
        ups = [frozenset(
            k for k, g in (holding[next(iter(f.vertices))] if f.vertices else enumerate(fs))
            if f.rank <= g.rank and f.vertices <= g.vertices
            and f.edges <= g.edges) for f in fs]
        cov, dia = [], {}
        for lo, up in enumerate(ups):
            strictly_above = set().union(*(ups[k] - {k} for k in up if k != lo))
            cov.append(tuple(j for j in up if j != lo and j not in strictly_above))
            r = fs[lo].rank
            above = [m for m in self.faces_of_rank(r + 1) if m in up]
            for hi in up:
                if fs[hi].rank == r + 2:
                    dia[lo, hi] = [m for m in above if hi in ups[m]]
        return ups, cov, dia

    def section(self, bottom, top):
        """The interval [bottom, top] as a polytope in its own right, its
        faces in id order: this poset's own if bottom has rank -1 (a facet,
        say), else copies with ranks shifted so that bottom gets rank -1.
        An interval is convex, so its order record is this poset's,
        renumbered.  A facet of a poset that holds its flag graph takes the
        flags through it, cut below it, with rho_0..rho_{n-2}; any other
        section builds its own flags on first use.  Every check of
        check_polytopality, schlafli_type and classify_symmetry still runs
        on the section's own faces."""
        if not self.leq(bottom, top):
            raise ValueError("bottom %d is not below top %d" % (bottom, top))
        fs, (ups, covers, diamonds) = self.faces, self._tables
        ids = sorted(i for i in ups[bottom] if top in ups[i])
        new, shift, hi = {i: k for k, i in enumerate(ids)}, fs[bottom].rank + 1, fs[top].rank
        faces = map(fs.__getitem__, ids)
        sec = Polytope(hi - shift, (Face(f.rank - shift, f.colors, f.vertices, f.edges)
                                    for f in faces) if shift else faces)
        sub = [frozenset(sorted(map(new.get, ups[i] & new.keys()))) for i in ids]
        sec._tables = sub, [tuple(k for k in up if ids[k] in covers[i])
                            for i, up in zip(ids, sub)], {
            (a, b): [new[m] for m in diamonds[i, ids[b]]]
            for a, (i, up) in enumerate(zip(ids, sub))
            for b in up if fs[ids[b]].rank == fs[i].rank + 2}
        fg = vars(self).get("_flag_graph")  # a facet of rank 0 up takes its flags
        if fg and not shift and 0 <= hi == self.rank - 1:
            keep = [j for j, fl in enumerate(fg.flags) if fl[hi] == top]
            if keep:
                pos, kept = {j: k for k, j in enumerate(keep)}, _gather(keep)
                flags = tuple(tuple(map(new.__getitem__, fl[:hi])) for fl in kept(fg.flags))
                sec._flag_graph = FlagGraph(flags, {fl: k for k, fl in enumerate(flags)},
                                            tuple(_gather(kept(r))(pos) for r in fg.rho[:hi]))
        return sec

    # ----------------------------------------------------------- flags

    @cached_property
    def _flag_graph(self):
        return _build_flag_graph(self)

    def flag_graph(self):
        return self._flag_graph


class FlagGraph(_Record):
    """All flags of a polytope with their adjacency involutions, by rank.

    A flag is a tuple of proper face ids, one per rank 0..n-1 (improper
    faces are in every flag and omitted).  index maps each flag to its
    position j.  rho[i] is the involution rho_i of positions (McMullen and
    Schulte, 2B): flag rho[i][j] differs from flag j exactly in rank i.
    """

    __slots__ = ("flags", "index", "rho")


def _bottom_top(p):
    bots = p.faces_of_rank(-1)
    tops = p.faces_of_rank(p.rank)
    if len(bots) != 1 or len(tops) != 1:
        raise GraphError("poset lacks unique improper faces (%d bottom, %d top)"
                         % (len(bots), len(tops)))
    return bots[0], tops[0]


def _build_flag_graph(p):
    """Flags grown one rank at a time, in increasing order; then each rho_i
    at once: every flag's rank-i diamond looked up, fl[i] swapped for its
    partner and the flags looked up whole.  The first failing diamond in
    flag order raises.  A rank-0 poset has one flag, (), and no rho_i."""
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

    index, n = {fl: j for j, fl in enumerate(flags)}, len(flags)
    chain = [(bottom,) * n, *(list(zip(*flags)) or [()] * p.rank), (top,) * n]
    mids = [list(map(diamonds.__getitem__, zip(chain[i], chain[i + 2])))
            for i in range(p.rank)]
    bad = [(next(j for j, m in enumerate(col) if len(m) != 2), i)
           for i, col in enumerate(mids) if set(map(len, col)) - {2}]
    if bad:
        j, i = min(bad)
        raise GraphError("diamond fails between faces %d and %d: %d alternatives"
                         % (chain[i][j], chain[i + 2][j], len(mids[i][j])))
    rho = tuple(tuple(map(index.__getitem__, zip(
        *chain[1:i + 1], map(operator.sub, map(sum, col), chain[i + 1]),
        *chain[i + 2:-1]))) for i, col in enumerate(mids))
    return FlagGraph(tuple(flags), index, rho)


# ------------------------------------------------------------- builders


def colourful_polytope(g):
    """The face poset of color-subset components of g.

    g must pass validate() (connected, n-regular, properly n-colored,
    matching classes); GraphError carrying the diagnostics otherwise.
    Faces come in a deterministic order, so their ids do: by rank, then
    by color set, then by least vertex.
    """
    problems = validate(g)
    if problems:
        raise GraphError("graph is not matching-colored: " + "; ".join(problems))
    n = g.n_colors
    faces = [Face(-1, frozenset(), frozenset(), frozenset())]
    for r in range(0, n + 1):
        for cs in itertools.combinations(range(n), r):
            for verts, es in components_by_colorset(g, cs):
                faces.append(Face(r, frozenset(cs), frozenset(verts), frozenset(es)))
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
    fg = p.flag_graph()
    n = len(fg.flags)
    chain = [(bottom,) * n, *zip(*fg.flags), (top,) * n]  # ranks -1..p.rank
    sections = {(lo, hi): _sections_by_flags(fg, chain, lo, hi)
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


def _sections_by_flags(fg, chain, lo, hi):
    """{(f, g): (n, r)} for faces f of rank lo and g of rank hi on a flag
    of the poset p with flag graph fg, whose faces of rank r are in
    chain[r + 1]: section [f, g] has n flags, and r are reached from its
    least; None if every such section is flag-connected.

    Needs every face of p on a flag.  Then the flags of [f, g] are the
    parts fl[lo+1:hi] of p's flags fl through f and g, linked by rho_i
    with lo < i < hi.  These keep the rest fl[:lo+1] + fl[hi:], so their
    components refine the classes of equal rests, each the flags of one
    section, and are as many exactly when every section is
    flag-connected: the table is built only if not.
    """
    label = component_labels(list(zip(*fg.rho[lo + 1:hi])))
    if len(set(label)) == len(set(zip(*chain[:lo + 2], *chain[hi + 1:]))):
        return None
    size, groups = Counter(label), {}
    for f, g, fl, x in zip(chain[lo + 1], chain[hi + 1], fg.flags, label):
        groups.setdefault((f, g), {}).setdefault(fl[lo + 1:hi], x)
    return {key: (len(mids), size[mids[min(mids)]])
            for key, mids in groups.items()}


# ------------------------------------------------------- flag geometry


def f_vector(p):
    return tuple(len(p.faces_of_rank(r)) for r in range(p.rank))


def schlafli_type(p):
    """Schlafli symbol (p_1, ..., p_{n-1}), or None if not equivelar.

    p_i is the length of the orbit of a flag under the rotation
    rho_{i-1} rho_i (rho_{i-1} first); it must not depend on the flag.
    The rotation is composed once per i from the two whole
    permutations, and its cycle lengths are read.
    """
    rho, out = p.flag_graph().rho, []
    for i in range(1, p.rank):
        step = _trusted(_gather(rho[i - 1])(rho[i]))
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
    cycles of that pass, composed once from the whole permutations
    rho_0, ..., rho_{n-1}, each read from its least flag (any start
    gives the same canonical cycle); they come out sorted, so the output
    is deterministic.  Any rank from 1 up; a rank-0 poset has no vertices
    on its flag and raises GraphError.
    """
    if p.rank < 1:
        raise GraphError("petrie walk needs rank at least 1, got rank %d" % p.rank)
    fg = p.flag_graph()
    step = fg.rho[0]
    for r in fg.rho[1:]:
        step = _gather(step)(r)
    verts = [min(p.faces[fl[0]].vertices) for fl in fg.flags]
    return tuple(sorted({canonical_cycle(map(verts.__getitem__, c))
                         for c in _trusted(step).cycles()}))


def two_face_cycle(p, fid):
    """Vertex cycle of a rank-2 face, canonicalized; ValueError unless
    its edges form one cycle through all its vertices."""
    f = p.faces[fid]
    if f.rank != 2:
        raise ValueError("face %d has rank %d, expected 2" % (fid, f.rank))
    adj = {}
    for u, v in f.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    cyc = []
    if f.edges and adj.keys() == f.vertices and all(len(n) == 2 for n in adj.values()):
        cyc, nxt = [min(adj)], min(adj[min(adj)])
        while nxt != cyc[0]:  # every vertex is on two edges: the walk comes back
            cyc.append(nxt)
            nxt = next(x for x in adj[nxt] if x != cyc[-2])
    if not cyc or len(cyc) != len(f.vertices):
        raise ValueError("face %d is not one cycle through its %d vertices"
                         % (fid, len(f.vertices)))
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
                "id": i,
                "rank": f.rank,
                "colors": sorted(f.colors),
                "vertices": sorted(f.vertices),
            }
            for i, f in enumerate(p.faces)
        ],
        # covering pairs [i, j], i below j with no face between, sorted
        "covers": [[i, j] for i, js in enumerate(p._covers) for j in sorted(js)],
    }
