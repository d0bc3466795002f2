"""Permutation groups acting on vertices, faces and flags.

PermutationGroup is the one group type, for color-respecting
automorphisms and isometry groups alike.  Groups here are small (a few
hundred elements), so they are always fully materialized: a
PermutationGroup carries its complete sorted element list, grown from
its generators one coset at a time, and nothing else per element.  An
element's matrix is looked up on the embedding it came from
(EmbeddedGraph.matrix), its color map in the witnesses of
graph.iter_colored_isomorphisms.  On top of that sit the operations
that decide regularity versus chirality: inducing a face permutation
from a vertex permutation, computing flag orbits, and classifying the
orbit structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from .graph import _gather, _rooted_search, component_labels


class NotAnAutomorphismError(ValueError):
    """A vertex permutation fails to permute the faces of a polytope.

    Carries the id of a witness face whose image is not a face.
    """

    def __init__(self, face_id, message):
        super().__init__(message)
        self.face_id = face_id


# ---------------------------------------------------------------- perms


@dataclass(frozen=True)
class VertexPermutation:
    images: tuple  # images[x] is the image of point x

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
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
        least point, sorted by starting point."""
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
    """A finite permutation group with all elements materialized."""

    def __init__(self, generators, elements=None):
        self.generators = tuple(generators)
        if not self.generators:
            raise ValueError("need at least one generator (use the identity)")
        self.degree = self.generators[0].degree
        if any(g.degree != self.degree for g in self.generators):
            raise ValueError("generators act on different point sets")
        if elements is None:
            elements = map(_trusted, _span(self.generators, self.degree)[1])
        self.elements = tuple(sorted(elements, key=attrgetter("images")))

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


def reduce_generators(elements):
    """Small generating set for a materialized group: greedily add
    elements not yet generated.  Always nonempty (identity if trivial)."""
    elements = sorted(elements, key=attrgetter("images"))
    kept = _span(elements, elements[0].degree)[0]
    return tuple(kept) or (VertexPermutation.identity(elements[0].degree),)


def color_respecting_automorphisms(g):
    """Automorphism group of a ColoredGraph, colors preserved up to a
    permutation of color names.  Each element is a vertex permutation;
    the color maps stay in iter_colored_isomorphisms' witnesses.  Those
    with 0 -> r are a * s for any one such a and every s fixing 0, so
    every root but 0 is searched up to its first witness.
    """
    _, rooted = _rooted_search(g, g)
    stab = [vmap for vmap, _ in rooted(0)]
    elements = list(map(_trusted, stab))
    times = list(map(_gather, stab))  # times[k](a) is a * stab[k]
    for r in range(1, g.n_vertices):
        a = next(rooted(r), None)  # a root with no witness is searched in full
        if a is not None:
            elements += (_trusted(s(a[0])) for s in times)
    return PermutationGroup(reduce_generators(elements), elements=elements)


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
        for f in p.faces:
            j = _face_image(p, f, sigma)
            if j is None:
                raise NotAnAutomorphismError(
                    f.id, "image of face %d under %r is not a face" % (f.id, sigma.images))
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


@dataclass(frozen=True)
class SymmetryClassification:
    verdict: str              # "regular" | "chiral" | "neither"
    orbit_sizes: tuple


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
    return PermutationGroup(reduce_generators(keep), elements=keep)
