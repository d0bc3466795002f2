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

import types as _types

from .graph import (ColoredGraph, GraphError, colored_isomorphism,
                    components_by_colorset, enumerate_matching_colorings,
                    iter_colored_isomorphisms, validate)
from .group import (NotAnAutomorphismError, PermutationGroup,
                    SymmetryClassification, VertexPermutation,
                    chain_stabilizer, classify_symmetry,
                    color_respecting_automorphisms, flag_orbits,
                    induced_face_action)
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

# the public names are those imported above: no module, nothing private
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_")
                 and not isinstance(obj, _types.ModuleType))
