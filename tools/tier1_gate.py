#!/usr/bin/env python3
"""Run the Tier-1 test suite and accept only a green run.

Tier-1 is the suite under tests/, run from the repository root as

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

This gate runs that command unchanged and reads the outcome of every test
from a JUnit XML report.  It exits 0 when every test passes or is skipped.
It exits 1 on any failure or error, when nothing ran, or when a test named
in REQUIRED did not run, so that it cannot drop out of the suite unnoticed:
criterion 5 (the Petrie exchange); the test that checks the strong
flag connectivity step of check_polytopality against its section-by-
section oracle; the test that checks the flag graph and the diagnostics
of check_polytopality, both read from the cached diamond table, against
face-by-face scans; the test that checks the colored isomorphisms
found by propagation along a spanning tree, with only the edges off the
tree checked, against a vertex-by-vertex backtracking oracle;
the test that checks the exact rotation angles read from signed
cycles against numpy eigenvalues (it skips, and so fails this gate,
when numpy is not installed); the property that checks the coset
closure of group elements and generators against breadth-first search
(it skips, and so fails this gate, when hypothesis is not installed);
the test that checks the flag orbits, labelled by components under
the generators, against orbits read from every group element; the
test that checks both coloring properties, read from cached squares and
edge positions, against directions and squares found with networkx (it
skips, and so fails this gate, when networkx is not installed); the
test that checks each isometry table, composed from the walks of its
sign and permutation factors, against a walk of every signed matrix;
the test that checks the isometry scans, which walk the edges of
each coloring, against dense matrix application with colors read
through color_of; the test that checks the face actions, built from
half of each face key and kept on the polytope, against a scan of
every face, twice, and that a failing permutation raises again; and
the test that checks each chain stabilizer, which tests that elements
map the vertices or edges of each chain face into that face, against
the whole face action of every group element; the test that checks the
Schlafli types and Petrie polygons, read from the cycles of one
tabulated flag permutation, against walks from every flag; the
property that checks signed permutation matrices, their determinants
read from the cycle count of the permutation among them, against dense
integer matrices (it skips, and so fails this gate, when hypothesis is
not installed); the test that checks the order tables each section
inherits from its parent against those of its faces built afresh, over
every interval of P, Q, Q-hat and the 4-cube; and the test that checks
each coloring the matching-coloring search builds, without validating
it again, against the graph that validating its edge list gives.

After its verdict the gate prints the wall time of the pytest run and the
line count of the Python sources under src/, as wc -l counts them.

    python3 tools/tier1_gate.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REQUIRED = (
    ("tests.test_acceptance", "test_criterion_05_petrie_exchange"),
    ("tests.test_flag_connectivity",
     "test_strong_connectivity_matches_section_oracle"),
    ("tests.test_flag_connectivity",
     "test_diamond_table_matches_between_oracle"),
    ("tests.test_graph", "test_propagation_matches_backtracking_oracle"),
    ("tests.test_geometry", "test_exact_profile_matches_numpy_eigenvalues"),
    ("tests.test_group", "test_coset_closure_matches_bfs_closure"),
    ("tests.test_group", "test_flag_orbits_match_element_oracle"),
    ("tests.test_geometry", "test_coloring_properties_match_networkx_oracle"),
    ("tests.test_geometry", "test_isometry_table_matches_dense_walk"),
    ("tests.test_geometry", "test_isometry_scans_match_dense_application"),
    ("tests.test_group", "test_face_action_matches_full_scan"),
    ("tests.test_group", "test_chain_stabilizer_matches_full_face_action"),
    ("tests.test_polytope", "test_flag_walks_match_all_flags_oracles"),
    ("tests.test_geometry", "test_signed_permutations_match_dense_matrices"),
    ("tests.test_flag_connectivity", "test_section_tables_match_fresh_build"),
    ("tests.test_graph", "test_enumerated_colorings_equal_validated_graphs"),
)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def outcomes(report):
    """(classname, name) -> "passed" | "skipped" | "failed" for each test
    case in a JUnit XML report; errors count as failures."""
    out = {}
    for case in ET.parse(report).iter("testcase"):
        kinds = {child.tag for child in case}
        if kinds & {"failure", "error"}:
            outcome = "failed"
        elif "skipped" in kinds:
            outcome = "skipped"
        else:
            outcome = "passed"
        key = (case.get("classname", ""), case.get("name", ""))
        if out.get(key) != "failed":  # a teardown error follows a pass
            out[key] = outcome
    return out


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "tier1.xml")
        start = time.perf_counter()
        run = subprocess.run(TIER1 + ["--junitxml", report], cwd=ROOT, env=env)
        wall = time.perf_counter() - start
        if not os.path.exists(report):
            print("tier1 gate: pytest wrote no report (exit %d)" % run.returncode)
            return 1
        results = outcomes(report)

    failed = sorted(k for k, v in results.items() if v == "failed")
    problems = ["failed: %s::%s" % k for k in failed]
    if all(v == "skipped" for v in results.values()):
        problems.append("no test ran")
    else:
        problems += ["%s::%s did not run" % k for k in REQUIRED
                     if results.get(k, "skipped") == "skipped"]
    for line in problems:
        print("tier1 gate: " + line)
    print("tier1 gate: %d tests, %d failed, %s"
          % (len(results), len(failed), "FAIL" if problems else "ok"))
    src_lines = sum(path.read_bytes().count(b"\n")
                    for path in (ROOT / "src").rglob("*.py"))
    print("tier1 gate: pytest took %.1f s wall; src/ has %d lines"
          % (wall, src_lines))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
