"""The narrative demos run to completion and end on their last finding."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LAST_LINES = {
    "01_build_the_quotient.py":
        "  omit 3 -> 1 component(s), facet f-vector (8, 12, 6), type (4, 3)",
    "02_coloring_census.py":
        "exchanging isometries: 0 orientation-preserving, 96 reversing",
    "03_twin_symmetry.py": "vertex-in-facet stabilizer: order 3, cyclic True",
    "04_cover_and_helices.py": "matches (pi/4, 3pi/4) exactly",
}


def test_every_demo_is_checked():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(LAST_LINES)


@pytest.mark.parametrize("name", sorted(LAST_LINES))
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == LAST_LINES[name]
