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
the generators with image flags looked up whole, against orbits read
from every group element, on polytopes and sections of rank 0 to 5; the
test that checks both coloring properties, read from cached squares and
edge positions, against directions and squares found with networkx (it
skips, and so fails this gate, when networkx is not installed); the
test that checks each isometry table, composed from the walks of its
sign and permutation factors, against a walk of every signed matrix;
the test that checks the isometry scans, which walk the edges of
each coloring, against dense matrix application with colors read
through color_of; the test that checks the face actions, built from
the images of each face's key and kept on the polytope, against a scan
of every face, twice, and that a failing permutation raises again; the
test that checks each chain stabilizer, which tests that elements map
the key of each chain face into that key, against the whole face
action of every group element; the test that checks the
Schlafli types and Petrie polygons, read from the cycles of one
tabulated flag permutation, against walks from every flag; the
property that checks signed permutation matrices, their determinants
read from the cycle count of the permutation among them, against dense
integer matrices (it skips, and so fails this gate, when hypothesis is
not installed); the test that checks the order tables each section
inherits from its parent against those of its faces built afresh, over
every interval of P, Q, Q-hat and the 4-cube; the test that checks
each coloring the matching-coloring search builds, without validating
it again, against the graph that validating its edge list gives; the
test that checks each automorphism group, composed from one witness
per image of vertex 0 and the witnesses fixing vertex 0, against every
witness of the search, on colorings of the 4-cube whose stabilizer of
vertex 0 is not normal; the test that checks the isometry scans,
composed the same way from the table entries, against a filter that
tests every table entry, on all 24 coloring classes of the quotient,
on colorings that are not vertex-transitive and on pairs with no
isometry between them; the test that checks the rotation and
reflection counts, read from the generators' determinants, against the
determinant of every element; the test that checks the automorphism
and isometry groups of the n-cubes and hemi-n-cubes, n = 3, 4, 5,
against their closed-form orders and the every-entry filter; the
test that checks the isometry rows of the report against isometries
found from frames of Hadamard vertices, with no signed permutation
matrix presumed; the test that checks that each coloring filter
row of the report fails when its property keeps one class more than
the twins picked by their symmetry; the test that checks that the
isometry tables, shared by every embedding on the same point set, are
kept apart by the coordinates and by projective, with the coordinates
given as a tuple or a list, with the shared store warm and cold; and the
test that checks that the report is byte-identical when its isometry
tables are built afresh and when they are read after other reports; and
the test that checks the flag graph each section borrows from its
parent, its flags, index and every rho_i, against the one built afresh
on the same faces, over every interval of P, Q, Q-hat, the 4-cube and
the corpus posets whose flag graph builds.

After its verdict the gate prints the wall time of the pytest run, that
time on the benchmark's clock, and the line count of the Python sources
under src/, as wc -l counts them.  The clock is benchmark/run.py's: the
wall time scaled by REF_S / r, where r is the median of timings of its
fixed reference work (reference_seconds), one taken just before the run
and one every SAMPLE_S seconds while it runs, so that the scale follows
the machine's speed through the run.  The timings share the machine with
pytest, so they read slower than on an idle machine.

    python3 tools/tier1_gate.py
"""

from __future__ import annotations

import importlib.util
import os
import statistics
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
    ("tests.test_group", "test_automorphisms_match_every_witness"),
    ("tests.test_geometry", "test_isometry_scans_match_every_entry_filter"),
    ("tests.test_classify", "test_turns_match_every_determinant"),
    ("tests.test_geometry", "test_cube_symmetry_closed_forms"),
    ("tests.test_geometry",
     "test_isometries_from_hadamard_frames_match_the_report"),
    ("tests.test_classify",
     "test_filter_rows_fail_when_a_property_keeps_one_class_more"),
    ("tests.test_geometry",
     "test_isometry_tables_are_keyed_by_points_and_projective"),
    ("tests.test_classify",
     "test_report_is_the_same_with_cold_and_warm_isometry_tables"),
    ("tests.test_flag_connectivity",
     "test_section_flag_graphs_match_fresh_build"),
)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SAMPLE_S = 2.0  # seconds between reference timings while pytest runs


def benchmark_clock():
    """benchmark/run.py, imported by path: its reference_seconds and REF_S."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_run", ROOT / "benchmark" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True  # leave no cache file under benchmark/
    spec.loader.exec_module(run)
    return run


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
        clock = benchmark_clock()
        refs = [clock.reference_seconds()]
        start = time.perf_counter()
        run = subprocess.Popen(TIER1 + ["--junitxml", report], cwd=ROOT, env=env)
        while True:
            try:
                run.wait(timeout=SAMPLE_S)
                break
            except subprocess.TimeoutExpired:
                refs.append(clock.reference_seconds())
        wall = time.perf_counter() - start
        ref = statistics.median(refs)
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
    print("tier1 gate: pytest took %.1f s wall, %.1f s scaled (reference %.1f ms,"
          " the median of %d, against REF_S %.1f ms); src/ has %d lines"
          % (wall, wall * clock.REF_S / ref, ref * 1e3, len(refs),
             clock.REF_S * 1e3, src_lines))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
