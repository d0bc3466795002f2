"""Colourful polytopes over the quotient 4-cube.

The antipodal quotient of the 4-cube carries a complete bipartite graph
K_{4,4} whose proper 4-colorings with perfect-matching classes each
generate an abstract 4-polytope.  The direction coloring gives a regular
polytope.  Two colorings (mirror twins) have color classes transversal
to the edge directions; they are the only colorings kept by 96
isometries, all of them rotations.  Lifting one of them back to R^4
produces a finite 4-polytope with helical octagonal faces whose full
symmetry group contains no reflection.
This package builds all of these objects and mechanically verifies every
combinatorial and geometric claim about them.
"""

from .graph import (ColoredGraph, GraphError, colored_isomorphism,
                    components_by_colorset, enumerate_matching_colorings,
                    iter_colored_isomorphisms, validate)
from .group import (NotAnAutomorphismError, PermutationGroup,
                    SymmetryClassification, VertexPermutation,
                    chain_stabilizer, classify_symmetry,
                    color_respecting_automorphisms, flag_orbits,
                    induced_face_action, reduce_generators)
from .polytope import (Face, FlagGraph, Polytope, canonical_cycle,
                       check_polytopality, colourful_polytope, f_vector,
                       petrie_polygons, schlafli_type, two_face_cycle,
                       two_face_cycles)
from .geometry import (EmbeddedGraph, IsometryMatrix, affine_rank,
                       all_signed_matrices, classes_hit_all_directions,
                       cycle_holonomy, derive_chiral_colorings,
                       exchanging_isometries, geometric_symmetry_group,
                       hemicube_embedding, hypercube_embedding, lift_cycle,
                       lift_double_cover, off_text, rotation_profile,
                       squares_see_all_colors, vertex_permutation)
from .classify import (CheckResult, VerificationReport, enantiomorph_check,
                       verify_paper)

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "ColoredGraph", "EmbeddedGraph",
    "Face", "FlagGraph", "GraphError", "IsometryMatrix",
    "NotAnAutomorphismError", "PermutationGroup", "Polytope",
    "SymmetryClassification", "VerificationReport",
    "VertexPermutation", "affine_rank", "all_signed_matrices",
    "canonical_cycle", "chain_stabilizer", "check_polytopality",
    "classes_hit_all_directions", "classify_symmetry",
    "colored_isomorphism", "colourful_polytope", "color_respecting_automorphisms",
    "components_by_colorset", "cycle_holonomy", "derive_chiral_colorings",
    "enantiomorph_check", "enumerate_matching_colorings",
    "exchanging_isometries", "f_vector", "flag_orbits",
    "geometric_symmetry_group", "hemicube_embedding",
    "hypercube_embedding", "induced_face_action", "iter_colored_isomorphisms",
    "lift_cycle", "lift_double_cover", "off_text",
    "petrie_polygons", "reduce_generators", "rotation_profile",
    "schlafli_type", "squares_see_all_colors", "two_face_cycle",
    "two_face_cycles", "validate", "verify_paper", "vertex_permutation",
]
