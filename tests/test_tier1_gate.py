"""The Tier-1 gate's verdict, read from hand-written JUnit XML reports."""

import runpy
from pathlib import Path

GATE = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "tier1_gate.py"))
REQUIRED, outcomes, problems = GATE["REQUIRED"], GATE["outcomes"], GATE["problems"]
slowest = GATE["slowest"]

SKIPPED = '<skipped type="pytest.skip" message="no numpy">numpy</skipped>'
FAILURE = '<failure message="assert False">E   assert False</failure>'
ERROR = '<error message="failed on setup with &quot;RuntimeError&quot;">E</error>'
TEARDOWN = '<error message="failed on teardown with &quot;RuntimeError&quot;">E</error>'


def _report(tmp_path, cases):
    """A report of (classname, name, children) test cases, as pytest
    --junitxml writes it."""
    body = "".join('<testcase classname="%s" name="%s" time="0.001">%s</testcase>'
                   % case for case in cases)
    path = tmp_path / "tier1.xml"
    path.write_text('<?xml version="1.0" encoding="utf-8"?><testsuites>'
                    '<testsuite name="pytest">%s</testsuite></testsuites>' % body)
    return path


def _green():
    """Every required test passing, and one more."""
    return {**{k: "passed" for k in REQUIRED}, ("tests.test_x", "test_other"): "passed"}


def test_outcomes_read_each_kind_of_test_case(tmp_path):
    report = _report(tmp_path, [
        ("tests.test_x", "test_pass", ""),
        ("tests.test_x", "test_skip", SKIPPED),
        ("tests.test_x", "test_fail", FAILURE),
        ("tests.test_x", "test_error", ERROR),
        # a test reported twice fails if either report failed, in either
        # order: a teardown error after a pass, and the reverse
        ("tests.test_x", "test_teardown", ""),
        ("tests.test_x", "test_teardown", TEARDOWN),
        ("tests.test_x", "test_twice", TEARDOWN),
        ("tests.test_x", "test_twice", ""),
        ("tests.test_y", "test_pass", SKIPPED),
    ])
    assert outcomes(report) == {
        ("tests.test_x", "test_pass"): "passed",
        ("tests.test_x", "test_skip"): "skipped",
        ("tests.test_x", "test_fail"): "failed",
        ("tests.test_x", "test_error"): "failed",
        ("tests.test_x", "test_teardown"): "failed",
        ("tests.test_x", "test_twice"): "failed",
        ("tests.test_y", "test_pass"): "skipped",
    }


def test_verdict_is_clean_on_a_full_pass(tmp_path):
    report = _report(tmp_path, [k + ("",) for k in _green()])
    assert problems(outcomes(report)) == []


def test_verdict_names_a_missing_or_skipped_required_test():
    assert len(set(REQUIRED)) == len(REQUIRED)
    for k in (REQUIRED[0], REQUIRED[-1]):
        missing, skipped = _green(), _green()
        del missing[k]
        skipped[k] = "skipped"
        for results in (missing, skipped):
            assert problems(results) == ["%s::%s did not run" % k]
    # a skip outside REQUIRED is fine
    skipped = {**_green(), ("tests.test_x", "test_other"): "skipped"}
    assert problems(skipped) == []


def test_verdict_lists_failures_sorted():
    # a failing required test ran, so it is named once, as a failure
    results = {**_green(), ("tests.test_x", "test_b"): "failed",
               ("tests.test_x", "test_a"): "failed", REQUIRED[3]: "failed"}
    assert REQUIRED[3][0] < "tests.test_x"
    assert problems(results) == ["failed: %s::%s" % REQUIRED[3],
                                 "failed: tests.test_x::test_a",
                                 "failed: tests.test_x::test_b"]


def test_verdict_fails_a_run_where_nothing_ran(tmp_path):
    assert problems({}) == ["no test ran"]
    report = _report(tmp_path, [("tests.test_x", "test_skip", SKIPPED)])
    assert problems(outcomes(report)) == ["no test ran"]


def test_slowest_tests_are_ranked_from_the_report(tmp_path):
    # seven tests, one reported twice (a teardown error after its call);
    # the five slowest come first, ties by name, whatever their outcome
    path = tmp_path / "tier1.xml"
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">'
        '<testcase classname="tests.test_a" name="test_fast" time="0.010"/>'
        '<testcase classname="tests.test_a" name="test_slow" time="2.500"/>'
        '<testcase classname="tests.test_b" name="test_tie" time="1.000"/>'
        '<testcase classname="tests.test_a" name="test_tie" time="1.000"/>'
        '<testcase classname="tests.test_b" name="test_twice" time="0.750"/>'
        '<testcase classname="tests.test_b" name="test_twice" time="0.500">%s</testcase>'
        '<testcase classname="tests.test_b" name="test_failed" time="0.900">%s</testcase>'
        '<testcase classname="tests.test_c" name="test_untimed"/>'
        '</testsuite></testsuites>' % (TEARDOWN, FAILURE))
    assert slowest(path) == [
        (2.5, "tests.test_a", "test_slow"),
        (1.25, "tests.test_b", "test_twice"),
        (1.0, "tests.test_a", "test_tie"),
        (1.0, "tests.test_b", "test_tie"),
        (0.9, "tests.test_b", "test_failed")]
    assert slowest(path, 8)[-2:] == [(0.01, "tests.test_a", "test_fast"),
                                     (0.0, "tests.test_c", "test_untimed")]
