#!/usr/bin/env python3
"""Run the Tier-1 test suite and accept exactly its one deliberate failure.

Tier-1 is the suite under tests/, run from the repository root as

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

Its baseline has one failure by design: criterion 5 keeps the strict
Petrie-exchange claim, which the computation does not bear out (see the
README, "Tests").  This gate runs that command unchanged and reads the
outcome of every test from a JUnit XML report.  It exits 0 when criterion 5
fails and every other test passes or is skipped.  It exits 1 on any
other failure or error, when criterion 5 passes, or when nothing ran.

    python3 tools/tier1_gate.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_FAILURE = ("tests.test_acceptance", "test_criterion_05_petrie_exchange")
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
        run = subprocess.run(TIER1 + ["--junitxml", report], cwd=ROOT, env=env)
        if not os.path.exists(report):
            print("tier1 gate: pytest wrote no report (exit %d)" % run.returncode)
            return 1
        results = outcomes(report)

    failed = sorted(k for k, v in results.items() if v == "failed")
    unexpected = [k for k in failed if k != EXPECTED_FAILURE]
    problems = ["unexpected failure: %s::%s" % k for k in unexpected]
    if EXPECTED_FAILURE not in results:
        problems.append("%s::%s did not run" % EXPECTED_FAILURE)
    elif results[EXPECTED_FAILURE] != "failed":
        problems.append("%s::%s was expected to fail but %s"
                        % (EXPECTED_FAILURE + (results[EXPECTED_FAILURE],)))
    for line in problems:
        print("tier1 gate: " + line)
    print("tier1 gate: %d tests, %d failed, %s"
          % (len(results), len(failed), "FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
