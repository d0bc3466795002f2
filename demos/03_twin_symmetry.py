"""Symmetry of the recolored quotient: exactly the rotations survive.

The direction coloring admits all 192 signed-permutation classes as
symmetries.  Recoloring by a chiral twin kills every orientation
reversing class and keeps all 96 rotations, splitting the 192 flags
into two orbits that every adjacency crosses.  Facet stabilizers and
chain stabilizers come out cyclic with the expected cycle types.
"""

from chiralcube import (chain_stabilizer, classify_symmetry,
                        derive_chiral_colorings, geometric_symmetry_group,
                        hemicube_embedding)

e = hemicube_embedding()
twin = derive_chiral_colorings(e)[0]

for label, coloring in (("direction coloring", e.graph), ("twin coloring", twin)):
    G = geometric_symmetry_group(e.recolored(coloring))
    dets = [e.matrix(p).det() for p in G]
    print("%-18s %3d isometries  (%d rotations, %d reflections)"
          % (label, G.order, dets.count(1), dets.count(-1)))

print()
eq = e.recolored(twin)
Q = eq.polytope
GQ = geometric_symmetry_group(eq)
cls = classify_symmetry(Q, GQ)
print("flag orbits under the 96 rotations: %s -> %s"
      % (cls.orbit_sizes, cls.verdict))

qbot = Q.faces_of_rank(-1)[0]
print()
print("facet sections under their stabilizers:")
for fid in Q.faces_of_rank(3):
    stab = chain_stabilizer(Q, GQ, [fid])
    c = classify_symmetry(Q.section(qbot, fid), stab)
    print("  facet %2d: stabilizer order %d, verdict %s, orbits %s"
          % (fid, stab.order, c.verdict, c.orbit_sizes))

print()
f2 = Q.faces_of_rank(2)[0]
f3 = next(i for i in Q.faces_of_rank(3) if Q.leq(f2, i))
st = chain_stabilizer(Q, GQ, [f2, f3])
gen = next(p for p in st if p.order() == st.order)
print("square-in-facet stabilizer: order %d, generator cycles %s"
      % (st.order, gen.cycles()))

v0 = Q.faces_of_rank(0)[0]
f3v = next(i for i in Q.faces_of_rank(3) if Q.leq(v0, i))
stv = chain_stabilizer(Q, GQ, [v0, f3v])
print("vertex-in-facet stabilizer: order %d, cyclic %s"
      % (stv.order, stv.is_cyclic()))
