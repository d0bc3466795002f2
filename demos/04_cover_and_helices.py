"""Lift the twin through the double cover and certify the helices.

Every square of the twin picks up sign -1 going around (its lift is a
single octagon), while squares of the direction coloring lift to two
disjoint squares.  The lifted twin coloring on the full 4-cube skeleton
is again a colourful polytope; its twelve octagons each span all of R^4
affinely, and the octagon-in-facet stabilizer turns one invariant plane
by pi/4 while turning the perpendicular plane by 3pi/4.
"""

from fractions import Fraction

from chiralcube import (affine_rank, chain_stabilizer, cycle_holonomy,
                        derive_chiral_colorings, f_vector,
                        geometric_symmetry_group, hemicube_embedding,
                        lift_cycle, lift_double_cover, rotation_profile,
                        schlafli_type, two_face_cycle)

e = hemicube_embedding()
twin = derive_chiral_colorings(e)[0]
eq = e.recolored(twin)
Q, P = eq.polytope, e.polytope

print("holonomy of the 2-faces (sign collected around each cycle):")
for name, poly in (("direction-colored", P), ("twin-colored", Q)):
    signs = sorted({cycle_holonomy(e, two_face_cycle(poly, i))
                    for i in poly.faces_of_rank(2)})
    print("  %-17s squares -> %s" % (name, signs))

sq = two_face_cycle(Q, Q.faces_of_rank(2)[0])
print()
print("one twin square", sq, "lifts to:", lift_cycle(e, sq))

cover = lift_double_cover(eq)
H = cover.polytope
print()
print("cover: f-vector %s, type %s" % (f_vector(H), schlafli_type(H)))

ranks = {}
for fid in H.faces_of_rank(2):
    pts = [cover.coords[v] for v in two_face_cycle(H, fid)]
    ranks.setdefault(affine_rank(pts), []).append(fid)
for r, fids in sorted(ranks.items()):
    print("octagons of affine rank %d: %d of them" % (r, len(fids)))

GH = geometric_symmetry_group(cover)
h2 = H.faces_of_rank(2)[0]
h3 = next(i for i in H.faces_of_rank(3) if H.leq(h2, i))
st = chain_stabilizer(H, GH, [h2, h3])
gen = next(p for p in st if p.order() == 8)
prof = rotation_profile(cover.matrix(gen))
print()
print("octagon-in-facet stabilizer: order %d, angles %s"
      % (st.order, ", ".join("%s pi" % f for f in prof)))
assert prof == (Fraction(1, 4), Fraction(3, 4))
print("matches (pi/4, 3pi/4) exactly")
