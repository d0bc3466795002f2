"""Shared fixtures: the objects every test file keeps rebuilding.

Everything here is cheap (the whole pipeline runs in well under a
second) but session scope keeps the suite snappy and guarantees all
tests look at the same instances.
"""

import functools
import itertools

import pytest

from chiralcube import (ColoredGraph, EmbeddedGraph, color_respecting_automorphisms,
                        derive_chiral_colorings, geometric_symmetry_group,
                        hemicube_embedding, hypercube_embedding)


@pytest.fixture(scope="session")
def hemi():
    return hemicube_embedding()


@pytest.fixture(scope="session")
def cube_embedding():
    return hypercube_embedding()


@pytest.fixture(scope="session")
def P(hemi):
    return hemi.polytope


@pytest.fixture(scope="session")
def AP(hemi):
    """Color-respecting automorphisms of the direction-colored graph."""
    return color_respecting_automorphisms(hemi.graph)


@pytest.fixture(scope="session")
def twins(hemi):
    return derive_chiral_colorings(hemi)


@pytest.fixture(scope="session")
def Q(hemi, twins):
    return hemi.recolored(twins[0]).polytope


@pytest.fixture(scope="session")
def Qm(hemi, twins):
    return hemi.recolored(twins[1]).polytope


@pytest.fixture(scope="session")
def GP(hemi):
    return geometric_symmetry_group(hemi)


@pytest.fixture(scope="session")
def GQ(hemi, twins):
    return geometric_symmetry_group(hemi.recolored(twins[0]))


@pytest.fixture(scope="session")
def cover(hemi, twins):
    """The lifted twin coloring on the full sign-vector skeleton: Q-hat,
    the cover of the twin the quotient holds."""
    return hemi.recolored(twins[0])._cover


@pytest.fixture(scope="session")
def H(cover):
    return cover.polytope


@pytest.fixture(scope="session")
def GH(cover):
    return geometric_symmetry_group(cover)


def _cube(n, projective):
    """The n-cube, or its antipodal quotient, by the rule of
    hypercube_embedding and hemicube_embedding with n in place of 4."""
    reps = [tuple(1 - 2 * ((i >> k) & 1) for k in range(n)) for i in range(2 ** n)]
    if projective:
        reps = [(1,) + x[:-1] for x in reps[:2 ** (n - 1)]]
    edges = []
    for i, j in itertools.combinations(range(len(reps)), 2):
        x, y = reps[i], reps[j]
        diffs = [k for k in range(n) if x[k] != y[k]]
        if projective and len(diffs) == n - 1:
            diffs = [k for k in range(n) if x[k] == y[k]]  # a main diagonal
        if len(diffs) == 1:
            edges.append((i, j, diffs[0]))
    return EmbeddedGraph(ColoredGraph(len(reps), n, tuple(edges)), tuple(reps),
                         projective)


@pytest.fixture(scope="session")
def cube():
    """cube(n, projective): the n-cube {4,3^(n-2)} with its edges colored
    by direction, or its antipodal quotient, the hemi-n-cube; each built
    once, so its isometry table is walked once."""
    return functools.lru_cache(maxsize=None)(_cube)
