"""Build the projective quotient polytope and look around.

The 16 sign vectors of R^4 collapse to 8 antipodal classes; edges join
classes whose canonical representatives differ in one coordinate, plus
the main diagonals (which differ in the first coordinate after flipping
the representative).  Coloring edges by that coordinate index and taking
connected components of color subsets gives the whole face lattice.
"""

from chiralcube import (check_polytopality, f_vector, hemicube_embedding,
                        schlafli_type)
from chiralcube.graph import components_by_colorset

e = hemicube_embedding()
g = e.graph

print("vertices (canonical representatives, first coordinate pinned to +1):")
for v, x in enumerate(e.coords):
    print("  %d: %s" % (v, "".join("+" if c > 0 else "-" for c in x)))

print()
print("%d edges in %d direction classes" % (len(g.edges), g.n_colors))
for c, edges in sorted(g.color_classes().items()):
    print("  direction %d: %s" % (c, " ".join("%d-%d" % uv for uv in edges)))

P = e.polytope
print()
print("face counts by rank:", f_vector(P))
print("Schlafli type:      ", schlafli_type(P))
problems = check_polytopality(P)
print("polytopality:        %s" % ("clean" if not problems else problems))

# each 3-color subset spans everything: one facet per missing direction
print()
print("facets (one per omitted direction):")
for skip in range(4):
    kept = tuple(c for c in range(4) if c != skip)
    comps = components_by_colorset(g, kept)
    bot = P.faces_of_rank(-1)[0]
    fid = next(i for i in P.faces_of_rank(3)
               if P.faces[i].colors == frozenset(kept))
    sec = P.section(bot, fid)
    print("  omit %d -> %d component(s), facet f-vector %s, type %s"
          % (skip, len(comps), f_vector(sec), schlafli_type(sec)))
