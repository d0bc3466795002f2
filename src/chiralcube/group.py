"""Permutation groups acting on vertices, faces and flags.

PermutationGroup is the one group type, for color-respecting
automorphisms and isometry groups alike.  Groups here are small (a few
hundred elements), so they are always fully materialized: a
PermutationGroup carries its complete sorted element list, spanned by
the permutations it is given one coset at a time, and nothing else per
element.  An element's matrix is looked up on the embedding it came
from (EmbeddedGraph.matrix), its color map in the witnesses of
graph.iter_colored_isomorphisms.  On top of that sit the operations
that decide regularity versus chirality: inducing a face permutation
from a vertex permutation, computing flag orbits, and classifying the
orbit structure.
"""

from __future__ import annotations

import math
from operator import attrgetter, ne

from .graph import _Record, _gather, _rooted_search, component_labels


class NotAnAutomorphismError(ValueError):
    """A vertex permutation fails to permute the faces of a polytope.

    Carries the id of a witness face whose image is not a face.
    """

    def __init__(self, face_id, message):
        super().__init__(message)
        self.face_id = face_id


# ---------------------------------------------------------------- perms


class VertexPermutation(_Record):
    __slots__ = ("images",)  # images[x] is the image of point x

    def __init__(self, images):
        super().__init__(tuple(images))
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a bijection: %r" % (self.images,))

    @staticmethod
    def identity(n):
        return VertexPermutation(tuple(range(n)))

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        # composition: (p * q)(x) = p(q(x)); a product of two bijections
        # of one point set is one, so only the degrees are checked
        if len(self.images) != len(other.images):
            raise ValueError("degrees differ: %r * %r" % (self.images, other.images))
        return _trusted(_gather(other.images)(self.images))

    def cycles(self):
        """Disjoint cycles (fixed points included), each starting at its
        least point, sorted by starting point.  The package's one cycle
        walk: Schlafli types, Petrie polygons, determinants and rotation
        profiles read it."""
        im, out = self.images, []
        seen = [False] * len(im)
        for x in range(len(im)):
            if not seen[x]:
                cyc, y = [], x
                while not seen[y]:
                    seen[y] = True
                    cyc.append(y)
                    y = im[y]
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self):
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self):
        return math.lcm(*(len(c) for c in self.cycles()))


def _trusted(images):
    # a VertexPermutation from an image tuple known to be a bijection
    p = object.__new__(VertexPermutation)
    object.__setattr__(p, "images", images)
    return p


# --------------------------------------------------------------- groups


class PermutationGroup:
    """The group spanned by perms, its elements materialized in sorted
    order; its generators are the perms, in that order, outside the span
    of those before them (the identity if none)."""

    def __init__(self, perms):
        perms = sorted(perms, key=attrgetter("images"))
        if not perms:
            raise ValueError("need at least one generator (use the identity)")
        images = list(map(attrgetter("images"), perms))
        if len(set(map(len, images))) > 1:
            raise ValueError("generators act on different point sets")
        self.degree = len(images[0])
        kept, span = _span(perms, self.degree)
        self.generators = tuple(kept) or (VertexPermutation.identity(self.degree),)
        # the inputs are the group when they are as many as it, no two equal
        whole = len(images) == len(span) and all(map(ne, images, images[1:]))
        self.elements = tuple(perms) if whole else tuple(map(_trusted, sorted(span)))

    @property
    def order(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return "PermutationGroup(order=%d, degree=%d)" % (self.order, self.degree)

    def is_cyclic(self):
        return any(p.order() == self.order for p in self.elements)


def _span(perms, degree):
    """Walk perms in order and keep each one outside the span of those
    kept before it: (the kept ones, the image tuples of their span).
    Dimino's algorithm: the old span H is a group, so the new one is a
    union of right cosets H r with H r s = H (r s); each product r s of
    a coset representative and a generator that falls outside the span
    brings in its whole coset at once."""
    kept, gens, span = [], [], {tuple(range(degree))}
    for p in perms:
        if p.images in span:
            continue
        kept.append(p)
        gens.append(_gather(p.images))  # g(r) is r * p
        old, reps = tuple(span), [p.images]
        span.update(map(gens[-1], old))
        for r in reps:  # reps grows while it is walked
            for g in gens:
                rg = g(r)
                if rg not in span:
                    reps.append(rg)
                    span.update(map(_gather(rg), old))
    return kept, span


def _by_orbit(stab, firsts):
    """Image tuples a * s for each a in firsts, one element taking 0 to
    each root or None where none does, and every s in stab, the elements
    fixing 0: by orbit and stabilizer these are all elements with 0 -> r
    (Seress, Permutation Group Algorithms, CUP 2003, ch. 4)."""
    times = list(map(_gather, stab))  # times[k](a) is a * stab[k]
    return [s(a) for a in firsts if a is not None for s in times]


def color_respecting_automorphisms(g):
    """Automorphism group of a ColoredGraph, colors preserved up to a
    permutation of color names.  Each element is a vertex permutation;
    the color maps stay in iter_colored_isomorphisms' witnesses.  Root 0
    is searched in full, every other root up to its first witness."""
    _, rooted = _rooted_search(g, g)
    stab = [vmap for vmap, _ in rooted(0)]
    firsts = (next(rooted(r), (None,))[0]  # a root with no witness is searched in full
              for r in range(1, g.n_vertices))
    elements = list(map(_trusted, stab + _by_orbit(stab, firsts)))
    return PermutationGroup(elements)


# ---------------------------------------------------- action on faces


def _face_image(p, f, sigma):
    """Id of the image of face f under sigma, or None if not a face."""
    im = sigma.images
    es = ((im[u], im[v]) for u, v in f.key)
    return p.face_index(f.rank, frozenset((a, b) if a < b else (b, a) for a, b in es))


def induced_face_action(p, sigma):
    """Permutation of p's face ids induced by vertex permutation sigma.

    Raises NotAnAutomorphismError naming a witness face if some face
    image is not a face of p.  Each action found is kept on p, keyed by
    sigma's images; a failure is not kept.
    """
    action = p._actions.get(sigma.images)
    if action is None:
        images = []
        for i, f in enumerate(p.faces):
            j = _face_image(p, f, sigma)
            if j is None:
                raise NotAnAutomorphismError(
                    i, "image of face %d under %r is not a face" % (i, sigma.images))
            images.append(j)
        action = p._actions[sigma.images] = VertexPermutation(tuple(images))
    return action


def flag_orbits(p, G):
    """Orbit partition of p's flags under G.

    Returns a tuple of orbits, each a sorted tuple of flag indices,
    ordered by least index; so orbit ids are deterministic.
    """
    fg = p.flag_graph()
    cols = list(map(_gather, zip(*fg.flags)))  # image flags are built column-wise
    images = [_gather(tuple(zip(*(c(a) for c in cols))))(fg.index)
              for a in (induced_face_action(p, g).images for g in G.generators)]
    # a rank-0 poset has no columns: its one flag, (), is its own image
    label = component_labels(list(zip(*images)) or [()] * len(fg.flags))
    orbits = {}
    for j, root in enumerate(label):
        orbits.setdefault(root, []).append(j)
    return tuple(map(tuple, orbits.values()))


class SymmetryClassification(_Record):
    __slots__ = ("verdict", "orbit_sizes")  # verdict: "regular" | "chiral" | "neither"


def classify_symmetry(p, G):
    """Classify p's symmetry under G by flag orbit structure.

    One flag orbit is regular.  Two orbits with every i-adjacent pair of
    flags in opposite orbits is chiral (the two orbits are the two
    rotation classes).  Anything else is neither.
    """
    orbits, rho = flag_orbits(p, G), p.flag_graph().rho
    if len(orbits) == 1:
        verdict = "regular"
    elif len(orbits) == 2 and all(  # each rho_i swaps the two orbits
            set(image) == set(orbits[1]) for image in map(_gather(orbits[0]), rho)):
        verdict = "chiral"
    else:
        verdict = "neither"
    return SymmetryClassification(verdict, tuple(len(o) for o in orbits))


def chain_stabilizer(p, G, chain):
    """Subgroup of G fixing each face in `chain` (ids of pairwise
    incident faces).  ValueError if two chain faces are incomparable;
    NotAnAutomorphismError if G does not act on p's faces.  Once G acts,
    g fixes face f exactly when it maps the pairs of f.key into f.key,
    either way round."""
    chain = tuple(chain)
    for a in chain:
        for b in chain:
            if not (p.leq(a, b) or p.leq(b, a)):
                raise ValueError("faces %d and %d are not incident" % (a, b))
    for g in G.generators:  # automorphisms compose: this checks all of G
        induced_face_action(p, g)
    tests = []  # per chain face: its key, both ways round, and its pairs' ends in turn
    for pairs in (list(p.faces[c].key) for c in chain):
        tests.append((set(pairs).union((b, a) for a, b in pairs),
                      _gather([x for pair in pairs for x in pair])))
    keep = [g for g in G.elements  # the image ends, paired up again
            if all(into.issuperset(zip(*[iter(ends(g.images))] * 2))
                   for into, ends in tests)]
    return PermutationGroup(keep)
