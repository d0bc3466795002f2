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

The public names resolve on first read (PEP 562): `import chiralcube`
imports no submodule, and reading a name imports its module and returns
the name bound there, which is not stored here.
"""

import importlib as _importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_HOMES = {name: module for module, names in (
    ("graph", "ColoredGraph GraphError colored_isomorphism components_by_colorset"
              " enumerate_matching_colorings iter_colored_isomorphisms validate"),
    ("group", "NotAnAutomorphismError PermutationGroup SymmetryClassification VertexPermutation"
              " chain_stabilizer classify_symmetry color_respecting_automorphisms"
              " flag_orbits induced_face_action"),
    ("polytope", "Face FlagGraph Polytope canonical_cycle check_polytopality colourful_polytope"
                 " f_vector petrie_polygons schlafli_type two_face_cycle two_face_cycles"),
    ("geometry", "EmbeddedGraph IsometryMatrix affine_rank all_signed_matrices"
                 " classes_hit_all_directions cycle_holonomy derive_chiral_colorings"
                 " exchanging_isometries geometric_symmetry_group hemicube_embedding"
                 " hypercube_embedding lift_cycle lift_double_cover off_text rotation_profile"
                 " squares_see_all_colors vertex_permutation"),
    ("classify", "CheckResult VerificationReport enantiomorph_check verify_paper"),
) for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(_importlib.import_module("." + _HOMES[name], __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
