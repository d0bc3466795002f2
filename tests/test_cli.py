"""Command line behavior: verbs, formats, exit codes, byte stability."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import chiralcube
from chiralcube.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# --------------------------------------------------------------- build


def test_build_p_json(capsys):
    code, out = run(capsys, "build", "P")
    assert code == 0
    data = json.loads(out)
    assert data["object"] == "P"
    assert data["f_vector"] == [8, 16, 12, 4]
    assert data["schlafli"] == [4, 3, 3]


@pytest.mark.parametrize("name,fv,sch", [
    ("Q", [8, 16, 12, 4], [4, 3, 3]),
    ("Q-mirror", [8, 16, 12, 4], [4, 3, 3]),
    ("Qhat", [16, 32, 12, 4], [8, 3, 3]),
    ("hypercube", [16, 32, 24, 8], [4, 3, 3]),
])
def test_build_other_objects(capsys, name, fv, sch):
    code, out = run(capsys, "build", name)
    assert code == 0
    data = json.loads(out)
    assert data["f_vector"] == fv
    assert data["schlafli"] == sch


def test_build_text_format(capsys):
    code, out = run(capsys, "build", "P", "--format", "text")
    assert code == 0
    assert "8" in out and "{4,3,3}" in out.replace(" ", "")


def test_build_rejects_unknown_object(capsys):
    with pytest.raises(SystemExit) as info:
        main(["build", "dodecahedron"])
    assert info.value.code == 2


# ----------------------------------------------------------- colorings


def test_colorings_distinguished_section(capsys, twins):
    code, out = run(capsys, "colorings", "--format", "json",
                    "--up-to-color-permutation")
    assert code == 0
    data = json.loads(out)
    # the named colorings carry both property annotations
    assert data["regular"]["transversal_to_directions"] is False
    assert data["regular"]["all_colors_on_every_square"] is False
    assert [t["colors"] for t in data["twins"]] == [list(t.colors) for t in twins]
    for t in data["twins"]:
        assert t["transversal_to_directions"] is True
        assert t["all_colors_on_every_square"] is True
    assert data["n_colorings"] == 24
    assert data["n_transversal"] == 2


def test_colorings_raw_count(capsys, twins):
    code, out = run(capsys, "colorings", "--format", "json")
    data = json.loads(out)
    assert data["n_colorings"] == 576
    assert data["n_transversal"] == 48
    # the named twins are the two classes, not all 48 labelled colorings
    assert [t["colors"] for t in data["twins"]] == [list(t.colors) for t in twins]


def test_colorings_text(capsys):
    code, out = run(capsys, "colorings", "--format", "text",
                    "--up-to-color-permutation")
    assert code == 0
    assert "regular" in out and "twin" in out and "mirror" in out
    assert "(a)" in out and "(b)" in out
    assert sum(1 for line in out.splitlines()
               if line.startswith(" * ")) == 2


# -------------------------------------------------------------- verify


def test_verify_text_passes(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    assert out.rstrip().endswith("ALL CHECKS PASSED")


def test_verify_json(capsys):
    code, out = run(capsys, "verify", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all("anchor" in row for row in data["checks"])


# -------------------------------------------------------------- export


def test_export_qhat(capsys):
    code, out = run(capsys, "export", "Qhat")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nOFF" and lines[1] == "4"
    coords = [l for l in lines if set(l.split()) <= {"1", "-1"}
              and len(l.split()) == 4]
    assert len(coords) == 16


def test_export_projective_marks_pairs(capsys):
    code, out = run(capsys, "export", "P")
    assert code == 0
    assert "# antipodal pairs:" in out


# ------------------------------------------------------------ plumbing


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "p.json"
    code = main(["build", "P", "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["object"] == "P"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_output_is_byte_stable(capsys):
    _, a = run(capsys, "colorings", "--up-to-color-permutation")
    _, b = run(capsys, "colorings", "--up-to-color-permutation")
    assert a == b
    _, a = run(capsys, "verify", "--format", "json")
    _, b = run(capsys, "verify", "--format", "json")
    assert a == b


def test_numpy_dataclasses_and_inspect_are_not_imported():
    # -X importtime lists every module a process imports, on stderr.  The
    # CLI imports every module at start, so build reads the same imports
    # as verify, with an exit status that no report row decides.  numpy is
    # an optional test oracle; dataclasses would pull in inspect, ast, dis
    # and tokenize before a process's first line of work
    env = dict(os.environ, PYTHONPATH=str(
        Path(chiralcube.__file__).resolve().parents[1]))
    for argv in (["-c", "import chiralcube"],
                 ["-m", "chiralcube.cli", "build", "Qhat"]):
        run = subprocess.run([sys.executable, "-X", "importtime"] + argv,
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in run.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "chiralcube.geometry" in imported
        assert not {m for m in imported
                    if m.split(".")[0] in ("numpy", "dataclasses", "inspect")}


def test_star_import_binds_the_names_the_package_imports():
    # __all__ is derived from the package namespace; the names it must
    # hold are read from the relative imports in the package's source
    tree = ast.parse(Path(chiralcube.__file__).read_text())
    froms = [node for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert sorted(node.module for node in froms) == [
        "classify", "geometry", "graph", "group", "polytope"]
    imported = {a.asname or a.name for node in froms for a in node.names}
    bound = {}
    exec("from chiralcube import *", bound)
    del bound["__builtins__"]
    assert set(bound) == imported and len(bound) == 48
    assert all(isinstance(x, type) or inspect.isfunction(x)
               for x in bound.values())
    assert not any(isinstance(x, types.ModuleType) for x in bound.values())
    assert "ModuleType" not in bound


def test_test_extra_names_every_optional_test_dependency():
    # a test that importorskips a package not in the extra skips on an
    # install made as README says, and the tier-1 gate fails on that skip
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in extra}
    skipped = {m.split(".")[0] for path in (root / "tests").glob("*.py")
               for m in re.findall(r'importorskip\("([^"]+)"\)', path.read_text())}
    assert {"numpy", "hypothesis", "networkx", "sympy"} <= skipped
    assert skipped - {"tomllib"} <= declared
