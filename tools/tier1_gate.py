#!/usr/bin/env python3
"""Run the Tier-1 test suite and accept only a green run.

Tier-1 is the suite under tests/, run from the repository root as

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

This gate runs that command unchanged and reads the outcome of every test
from a JUnit XML report.  It exits 0 when every test passes or is skipped.
It exits 1 on any failure or error (an error in teardown after a pass
counts as a failure), when nothing ran, or when a test named in REQUIRED
did not run, so that it cannot drop out of the suite unnoticed.  The
numpy, hypothesis, networkx and sympy oracles in REQUIRED skip when
their package is not installed, and so fail this gate.

After its verdict the gate prints the wall time of the pytest run and the
line count of the Python sources under src/, as wc -l counts them, and
then the five slowest tests with the times the report gives them.  Wall
times compare only across gate runs of the trees in question interleaved
on one machine.

    python3 tools/tier1_gate.py
"""

import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REQUIRED = (
    # criterion 5: Q's 2-faces are Petrie polygons of P and vice versa
    ("tests.test_acceptance", "test_criterion_05_petrie_exchange"),
    # strong flag connectivity as a count, against section by section
    ("tests.test_flag_connectivity", "test_strong_connectivity_matches_section_oracle"),
    # flag graph and diagnostics from the diamond table, against face scans
    ("tests.test_flag_connectivity", "test_diamond_table_matches_between_oracle"),
    # colored isomorphisms by propagation, against plain backtracking
    ("tests.test_graph", "test_propagation_matches_backtracking_oracle"),
    # exact rotation angles from signed cycles, against numpy eigenvalues
    ("tests.test_geometry", "test_exact_profile_matches_numpy_eigenvalues"),
    # coset closure (hypothesis), against breadth-first search
    ("tests.test_group", "test_coset_closure_matches_bfs_closure"),
    # flag orbits from image flags, against the orbits of every element
    ("tests.test_group", "test_flag_orbits_match_element_oracle"),
    # both coloring properties from cached squares, against networkx
    ("tests.test_geometry", "test_coloring_properties_match_networkx_oracle"),
    # isometry tables from sign and permutation factors, against every matrix
    ("tests.test_geometry", "test_isometry_table_matches_dense_walk"),
    # isometry scans along each coloring's edges, against dense matrices
    ("tests.test_geometry", "test_isometry_scans_match_dense_application"),
    # face actions from the images of face keys, against every face
    ("tests.test_group", "test_face_action_matches_full_scan"),
    # chain stabilizers from the keys of chain faces, against face actions
    ("tests.test_group", "test_chain_stabilizer_matches_full_face_action"),
    # Schlafli types and Petrie polygons from cycles, against flag walks
    ("tests.test_polytope", "test_flag_walks_match_all_flags_oracles"),
    # signed permutations and determinants (hypothesis), against dense ones
    ("tests.test_geometry", "test_signed_permutations_match_dense_matrices"),
    # order tables a section is handed by its parent, against a fresh build
    ("tests.test_flag_connectivity", "test_section_tables_match_fresh_build"),
    # colorings the search builds unvalidated, against validated ones
    ("tests.test_graph", "test_enumerated_colorings_equal_validated_graphs"),
    # automorphisms from one witness per orbit point, against every witness
    ("tests.test_group", "test_automorphisms_match_every_witness"),
    # isometry scans composed from table entries, against every entry
    ("tests.test_geometry", "test_isometry_scans_match_every_entry_filter"),
    # rotation and reflection counts from generators, against every element
    ("tests.test_classify", "test_turns_match_every_determinant"),
    # symmetry groups of the n-cubes and hemi-n-cubes, against closed forms
    ("tests.test_geometry", "test_cube_symmetry_closed_forms"),
    # the report's isometry rows, against isometries from Hadamard frames
    ("tests.test_geometry", "test_isometries_from_hadamard_frames_match_the_report"),
    # each coloring filter row fails if its property keeps one class more
    ("tests.test_classify", "test_filter_rows_fail_when_a_property_keeps_one_class_more"),
    # shared isometry tables, kept apart by coordinates and projective
    ("tests.test_geometry", "test_isometry_tables_are_keyed_by_points_and_projective"),
    # the report, byte-identical with cold and warm isometry tables
    ("tests.test_classify", "test_report_is_the_same_with_cold_and_warm_isometry_tables"),
    # flags a facet takes from its parent, and all others, against fresh builds
    ("tests.test_flag_connectivity", "test_section_flag_graphs_match_fresh_build"),
    # the rotation groups' orders and chirality, from presentations (sympy)
    ("tests.test_group", "test_presentations_certify_the_rotation_groups"),
    # injected reports never read or change the process constants
    ("tests.test_classify", "test_injected_reports_leave_the_process_constants_alone"),
    # every named object is the quotient recoloured, then covered
    ("tests.test_geometry", "test_every_named_object_is_the_quotient_recolored_then_covered"),
    # the quotient holds its two twins and no other coloring, whatever ran
    ("tests.test_classify", "test_the_quotient_holds_only_its_twins"),
    # the twin rule from generators, against every element's determinant
    ("tests.test_classify", "test_twin_rule_from_generators_matches_every_determinant"),
    # every rank-3 base graph reported to the end, none raising
    ("tests.test_classify", "test_rank_three_bases_reported_not_raised"),
    # a process imports neither numpy nor dataclasses, nor inspect with it
    ("tests.test_cli", "test_numpy_dataclasses_and_inspect_are_not_imported"),
    # a projective object's OFF faces, against the lifts of its 2-faces
    ("tests.test_geometry", "test_off_faces_are_the_lifts_of_the_two_faces"),
    # the README's example and CLI lines run, its criteria name their tests
    ("tests.test_readme", "test_readme_examples_run_and_criteria_name_their_tests"),
    # an --output that cannot be opened is a usage error, not a traceback
    ("tests.test_cli", "test_unwritable_output_is_a_usage_error"),
    # build, export and colorings compile neither classify nor fractions
    ("tests.test_cli", "test_cold_verbs_import_only_the_modules_they_read"),
    # the CLI's JSON writer (hypothesis), against json.dumps byte for byte
    ("tests.test_cli", "test_dump_json_writes_the_bytes_of_json_dumps"),
    # colorings by bitmask search, against tuples of disjoint perfect matchings
    ("tests.test_graph", "test_colorings_are_the_tuples_of_disjoint_perfect_matchings"),
    # random colourful graphs (hypothesis) are polytopes with |V|.n! flags
    ("tests.test_polytope", "test_random_colourful_graphs_are_polytopes"),
    # the summary arithmetic of paired benchmark runs, on fixed numbers
    ("tests.test_pair", "test_summary_arithmetic_on_fixed_numbers"),
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


def slowest(report, count=5):
    """The count slowest tests of a JUnit XML report, slowest first (ties
    by name), as (seconds, classname, name); a test reported twice, as
    with a teardown error, is charged both times."""
    times = {}
    for case in ET.parse(report).iter("testcase"):
        key = (case.get("classname", ""), case.get("name", ""))
        times[key] = times.get(key, 0.0) + float(case.get("time", 0))
    ranked = sorted(times.items(), key=lambda kt: (-kt[1], kt[0]))
    return [(t, *k) for k, t in ranked[:count]]


def problems(results):
    """What fails the gate in these outcomes, one line each; none when
    the run is green."""
    found = ["failed: %s::%s" % k
             for k in sorted(k for k, v in results.items() if v == "failed")]
    if all(v == "skipped" for v in results.values()):
        return found + ["no test ran"]
    return found + ["%s::%s did not run" % k for k in REQUIRED
                    if results.get(k, "skipped") == "skipped"]


def main():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p))
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "tier1.xml")
        start = time.perf_counter()
        run = subprocess.run(TIER1 + ["--junitxml", report], cwd=ROOT, env=env)
        wall = time.perf_counter() - start
        if not os.path.exists(report):
            print("tier1 gate: pytest wrote no report (exit %d)" % run.returncode)
            return 1
        results, slow = outcomes(report), slowest(report)

    found = problems(results)
    for line in found:
        print("tier1 gate: " + line)
    print("tier1 gate: %d tests, %d failed, %s"
          % (len(results), list(results.values()).count("failed"),
             "FAIL" if found else "ok"))
    src_lines = sum(path.read_bytes().count(b"\n")
                    for path in (ROOT / "src").rglob("*.py"))
    print("tier1 gate: pytest took %.1f s wall; src/ has %d lines"
          % (wall, src_lines))
    for case in slow:
        print("tier1 gate: slow %.2f s %s::%s" % case)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
