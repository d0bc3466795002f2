"""README.md says only what runs: its examples run here, its criteria
name the acceptance tests, and it holds no number that drifts.

The library example is the README's one python block, run as written.
Each line of a sh block that starts with "chiralcube" is run through
chiralcube.cli.main in a temporary directory and must exit 0, so an
option the CLI does not know fails here.  Each numbered line under
"Acceptance criteria" names test_criterion_NN_* of tests/test_acceptance.py,
in order, one line per criterion.  Test counts, timings and line counts
are printed by tools/tier1_gate.py; one written into the README fails.
"""

import re
import shlex
from pathlib import Path

from chiralcube.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
DRIFTING = (
    r"\b\d[\d,]*\s+(?:tests?|passed|failed|skipped)\b",  # a test count
    r"\b\d+(?:\.\d+)?\s*(?:s|ms|sec|secs|seconds?|minutes?)\b",  # a timing
    r"\b\d[\d,]*\s+(?:lines|loc)\b",  # a line count
)


def blocks(lang):
    return re.findall(r"^```%s\n(.*?)^```" % lang, README, re.M | re.S)


def section(title):
    return re.search(r"^## %s\n(.*?)(?=^## |\Z)" % title, README, re.M | re.S).group(1)


def test_readme_examples_run_and_criteria_name_their_tests(tmp_path, monkeypatch, capsys):
    [snippet] = blocks("python")
    exec(compile(snippet, "README.md", "exec"), {})

    monkeypatch.chdir(tmp_path)
    lines = [line for block in blocks("sh") for line in block.splitlines()
             if line.startswith("chiralcube ")]
    assert lines
    for line in lines:
        try:
            code = main(shlex.split(line, comments=True)[1:])
        except SystemExit as exit:
            code = exit.code
        assert code == 0, "%r exits %r: %s" % (line, code, capsys.readouterr().err)

    criteria = re.findall(r"^(\d+)\. `(test_criterion_(\d\d)_\w+)`",
                          section("Acceptance criteria"), re.M)
    tests = re.findall(r"^def (test_criterion_\d\d_\w+)",
                       (ROOT / "tests" / "test_acceptance.py").read_text(), re.M)
    assert [name for _, name, _ in criteria] == tests
    assert all(int(n) == int(nn) == i for i, (n, _, nn) in enumerate(criteria, 1))

    for pattern in DRIFTING:
        found = re.findall(pattern, README, re.I)
        assert not found, "hand-written count or timing: %r" % found

