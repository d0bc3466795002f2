"""Command line behavior: verbs, formats, exit codes, byte stability."""

import functools
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chiralcube
from chiralcube import cli
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


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    # exit 2 and one "chiralcube: error:" line, as for any usage error;
    # exit 1 is kept for a verification that fails
    target = str(tmp_path / "no" / "such" / "dir" / "p.off")
    for argv in (["build", "P"], ["export", "P"], ["verify"]):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--output", target])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        assert err.startswith("chiralcube: error: ") and err.count("\n") == 1
        assert target in err


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


@functools.lru_cache(maxsize=None)
def _imports(*argv):
    """(exit status, imported module names) of a fresh `python ARGV`.
    -X importtime lists every module a process imports, on stderr."""
    env = dict(os.environ, PYTHONPATH=str(
        Path(chiralcube.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-X", "importtime", *argv],
                         env=env, capture_output=True, text=True)
    return run.returncode, frozenset(
        line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
        if line.startswith("import time:"))


MODULES = ("classify", "geometry", "graph", "group", "polytope")


def test_numpy_dataclasses_and_inspect_are_not_imported():
    # a verify process and a read of verify_paper import all five modules;
    # verify's exit status, which report rows decide, is not read beyond
    # "not a usage error".  numpy is an optional test oracle; dataclasses
    # would pull in inspect, ast, dis and tokenize before a process's
    # first line of work
    for argv in (("-c", "import chiralcube; chiralcube.verify_paper"),
                 ("-m", "chiralcube.cli", "verify")):
        code, imported = _imports(*argv)
        assert code in (0, 1)
        assert "chiralcube.geometry" in imported
        assert not {m for m in imported
                    if m.split(".")[0] in ("numpy", "dataclasses", "inspect")}


def test_cold_verbs_import_only_the_modules_they_read():
    # names resolve on first read, and only verify reads classify (and
    # with it fractions and decimal); a bare import reads no name at all
    code, imported = _imports("-c", "import chiralcube")
    assert code == 0 and "chiralcube" in imported
    assert not {m for m in imported if m.startswith("chiralcube.")}
    for verb in (("build", "Qhat", "--format", "json"), ("export", "Qhat"),
                 ("colorings",)):
        code, imported = _imports("-m", "chiralcube.cli", *verb)
        assert code == 0
        assert {m for m in imported if m.startswith("chiralcube.")} == {
            "chiralcube." + m for m in MODULES if m != "classify"}
        assert not imported & {"fractions", "decimal"}
    code, imported = _imports("-m", "chiralcube.cli", "verify")
    assert code in (0, 1)
    assert {"chiralcube." + m for m in MODULES} | {"fractions"} <= imported


# the public names, each defined in one of the five modules
PUBLIC = (
    "CheckResult", "ColoredGraph", "EmbeddedGraph", "Face", "FlagGraph",
    "GraphError", "IsometryMatrix", "NotAnAutomorphismError",
    "PermutationGroup", "Polytope", "SymmetryClassification",
    "VerificationReport", "VertexPermutation", "affine_rank",
    "all_signed_matrices", "canonical_cycle", "chain_stabilizer",
    "check_polytopality", "classes_hit_all_directions", "classify_symmetry",
    "color_respecting_automorphisms", "colored_isomorphism",
    "colourful_polytope", "components_by_colorset", "cycle_holonomy",
    "derive_chiral_colorings", "enantiomorph_check",
    "enumerate_matching_colorings", "exchanging_isometries", "f_vector",
    "flag_orbits", "geometric_symmetry_group", "hemicube_embedding",
    "hypercube_embedding", "induced_face_action", "iter_colored_isomorphisms",
    "lift_cycle", "lift_double_cover", "off_text", "petrie_polygons",
    "rotation_profile", "schlafli_type", "squares_see_all_colors",
    "two_face_cycle", "two_face_cycles", "validate", "verify_paper",
    "vertex_permutation")


def test_star_import_binds_the_names_the_package_imports():
    # each public name is the object of that name in its home module, read
    # there on every access and never stored in the package, so it stays
    # bound in one place (a tracer that rebinds it there is seen here)
    assert len(PUBLIC) == 48 and list(PUBLIC) == sorted(PUBLIC)
    assert chiralcube.__all__ == list(PUBLIC)
    bound = {}
    exec("from chiralcube import *", bound)
    del bound["__builtins__"]
    assert sorted(bound) == list(PUBLIC)
    for name, x in bound.items():
        assert isinstance(x, type) or inspect.isfunction(x)
        assert x.__module__ in {"chiralcube." + m for m in MODULES}
        assert getattr(sys.modules[x.__module__], name) is x
        assert getattr(chiralcube, name) is x
    assert not set(PUBLIC) & set(vars(chiralcube))
    assert set(PUBLIC) <= set(dir(chiralcube))
    with pytest.raises(AttributeError,
                       match=r"^module 'chiralcube' has no attribute 'nope'$"):
        chiralcube.nope
    with pytest.raises(ImportError):
        exec("from chiralcube import nope", {})


def test_dump_json_writes_the_bytes_of_json_dumps(capsys, monkeypatch):
    """_dump_json against json.dumps(x, indent=2, sort_keys=True) + "\\n"
    on nested str-keyed dicts, lists and tuples (empty ones included) of
    big and negative ints, bools, None, floats (NaN and the infinities)
    and strings that need escapes or are not ASCII; then on the document
    of every JSON command of the CLI.  A key that is not a str is refused."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def reference(x):
        return json.dumps(x, indent=2, sort_keys=True) + "\n"

    text = st.text(max_size=6) | st.sampled_from(
        ['"', "\\", "\n\t\x00\x7f", "\u2028", "caf\u00e9", "\U0001f600", ""])
    ints = st.integers() | st.integers(-10 ** 40, 10 ** 40)
    leaves = (st.none() | st.booleans() | ints | st.floats() | text
              | st.lists(ints, max_size=6))
    values = st.recursive(leaves, lambda kids: (
        st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(text, kids, max_size=4)), max_leaves=16)

    @hyp.settings(deadline=None, derandomize=True, database=None, max_examples=100)
    @hyp.given(values)
    def check(x):
        assert cli._dump_json(x) == reference(x)

    check()
    for x in ([float("nan"), float("inf"), -float("inf"), -0.0, 1e300], [],
              {}, [[], {}, ()], [1, True, None], [2 ** 200, -7], {"a": [0, False]}):
        assert cli._dump_json(x) == reference(x)
    for bad in ({1: 2}, {None: 0}, {"a": {(1,): 2}}, {1: 0, "a": 1}):
        with pytest.raises(TypeError):
            cli._dump_json(bad)

    dump, seen = cli._dump_json, []
    monkeypatch.setattr(cli, "_dump_json", lambda data: seen.append(data) or dump(data))
    for argv in ([["build", name] for name in cli.OBJECTS]
                 + [["colorings"], ["colorings", "--up-to-color-permutation"],
                    ["verify", "--format", "json"]]):
        main(argv)
        assert capsys.readouterr().out == reference(seen[-1])
    assert len(seen) == 8


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
