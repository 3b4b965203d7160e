"""The lazy package root and the package's value classes."""

import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shearfield
from shearfield.farey import (INFINITY, ExtRational, FareyEdge,
                              IntegerMoebius, ONE, ZERO, fan_index, left_sum,
                              oriented_edge)
from shearfield.fields import (FieldExpr, ZygmundReport,
                               averaged_coefficient_sum, normalize_at,
                               tail_bound, zygmund_quotient_sup)
from shearfield.fourier import CircleArc
from shearfield.hilbert import (Quadrilateral, closed_hilbert_field,
                                delta_weight_hyperbolic, edge_quadrilateral)

# the names `shearfield` exports, by the module that defines them
EXPORTS = {
    "farey": ["ExtRational", "FareyEdge", "IntegerMoebius", "INFINITY",
              "enumerate_vertices", "fan_edges", "fan_index", "fan_moebius",
              "farey_order", "in_ccw_arc", "mediant", "oriented_edge"],
    "fields": ["FieldExpr", "ShearFunction", "assemble_field", "edge_ends",
               "elementary_eval", "fan_field_eval", "halved_terms",
               "normalize_at", "tail_bound", "zygmund_condition_sup",
               "zygmund_quotient_sup"],
    "fourier": ["CircleArc", "circle_elementary_eval", "edge_to_arc",
                "elementary_fourier", "field_fourier",
                "fourier_quadrature_oracle"],
    "hilbert": ["Quadrilateral", "closed_hilbert_field", "delta_weight",
                "delta_weight_hyperbolic", "edge_quadrilateral",
                "elementary_hilbert", "hilbert_pv_oracle",
                "hilbert_series_eval", "hilbert_shear_series",
                "shear_recover"],
    "moebius": ["geodesic_cosh_distance"],
    "torus": ["cusp_condition_check", "lift_edges", "thurston_form",
              "wp_gram", "wp_pairing"],
}

# exports that only tests call, each with the test that holds the package
# to it as an independent reference
REFERENCES = {
    "elementary_eval": "test_fields.py::test_field_table_matches_definition",
}


def test_root_exports_resolve_to_defining_objects():
    listed = dir(shearfield)
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"shearfield.{module}")
        for name in names:
            assert getattr(shearfield, name) is getattr(owner, name), name
            assert name in listed, name
    assert shearfield.__version__ == "0.1.0"


def test_root_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        shearfield.no_such_name
    assert not hasattr(shearfield, "enumerate_edges")   # never exported
    from shearfield import farey      # submodules still import by name
    assert farey.ExtRational is ExtRational


def test_every_export_is_used_outside_its_module():
    """Each exported name appears, as a word, in another package module, a
    demo or the acceptance tests: the package exports what a command, a
    demo or an acceptance criterion runs, and the references above."""
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "shearfield"
    users = [*package.glob("*.py"), *(root / "demos").glob("*.py"),
             root / "tests" / "test_acceptance.py"]
    texts = {path: path.read_text() for path in users}
    unused = []
    for module, names in shearfield._EXPORTS.items():
        own = package / f"{module}.py"
        for name in names:
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for path, text in texts.items()
                       if path not in (own, package / "__init__.py")):
                unused.append(name)
    assert sorted(unused) == sorted(REFERENCES)
    for name, test in REFERENCES.items():
        path, func = test.split("::")
        text = (root / "tests" / path).read_text()
        assert f"def {func}(" in text and re.search(rf"\b{name}\b", text)


# Run in a fresh interpreter: every command through cli.run on a small
# shear file, the failing inputs whose error paths nothing else takes,
# then the six demos.  Prints the (file, first line) of each code object
# under src/shearfield that was called.
CENSUS = r"""
import contextlib, io, json, runpy, sys
from pathlib import Path

root, work = Path(sys.argv[1]), Path(sys.argv[2])
called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(profile)
from shearfield import cli


def shears(name, edges):
    path = work / name
    path.write_text(json.dumps({"edges": [{"p": p, "q": q, "value": v}
                                          for p, q, v in edges]}))
    return str(path)


BIG = 10 ** 400
small = shears("small.json", [([0, 1], [1, 0], 1.0), ([0, 1], [1, 1], -0.5),
                              ([1, 2], [1, 1], 0.25), ([-1, 1], [0, 1], 0.3)])
huge = shears("huge.json", [([0, 1], [1, 1], 1e308), ([1, 2], [1, 1], 1e308)])
# tips BIG + 2 and (2 BIG + 1)/2: one Farey order, one arc, both beyond the
# float range, so only ExtRational's exact order sorts them
deep = shears("deep.json", [([BIG + 2, 1], [1, 0], 1.0),
                            ([BIG, 1], [2 * BIG + 1, 2], 1.0)])
grid = ["--samples", "3"]
runs = [
    ["farey", "vertices", "--max-order", "3"],
    ["farey", "edges", "--max-order", "3", "--format", "json"],
    ["field", "eval", "--shears", small, *grid],
    ["zygmund", "check", "--shears", small],
    ["hilbert", "eval", "--shears", small, *grid],
    ["hilbert", "eval", "--mode", "oracle", "--shears", small, *grid],
    ["hilbert", "shear", "--shears", small, "--edge", "0,1,1,1"],
    ["fourier", "--shears", small, "--n-max", "4"],
    ["wp", "pair", "--depth", "2"],
    ["wp", "gram", "--depth", "2"],
    ["nope"],
    ["-h"],
    ["field", "eval"],
    ["field", "eval", "--shears", str(work / "missing.json")],
    ["field", "eval", "--shears", huge, *grid],
    ["hilbert", "eval", "--mode", "oracle", "--shears", huge, *grid],
    ["hilbert", "eval", "--mode", "oracle", "--shears", small,
     "--from=1e12", "--to=2e12", *grid],
    ["zygmund", "check", "--shears", deep],
]
with contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    for argv in runs:
        try:
            cli.run(argv)
        except SystemExit:      # -h
            pass
    for demo in sorted((root / "demos").glob("demo_*.py")):
        runpy.run_path(str(demo), run_name="__main__")
sys.setprofile(None)
package = str(root / "src" / "shearfield")
print(json.dumps(sorted({(code.co_filename, code.co_firstlineno)
                         for code in called
                         if code.co_filename.startswith(package)})))
"""

# the functions in src/ that the census does not reach, each with why it
# stays; a reason that names a test (file::name) names one in a file that
# calls the function
_PROTOCOL = "the value protocol that tests hash and print by"
_CRITERION_7 = ("criterion 7: "
                "test_acceptance.py::test_criterion_7_fan_zygmund_bound")
_TRACER = "bench/tracer.py's install wraps it by name"
UNREACHED = {
    "shearfield.__dir__": "dir(shearfield) lists the lazy exports",
    "cli.main": "the console script (pyproject.toml's project.scripts)",
    **dict.fromkeys(["farey.Value.__hash__", "farey.Value.__repr__"],
                    _PROTOCOL),
    "farey.fan_index":
        "criterion 2: test_acceptance.py::test_criterion_2_round_trip_recovery",
    "fields.elementary_eval": "the reference FieldExpr's panel table is held "
        "to: test_fields.py::test_field_table_matches_definition",
    **dict.fromkeys(["fields.fan_field_eval", "fields.zygmund_quotient_sup",
                     "fields.averaged_coefficient_sum"], _CRITERION_7),
    "fields.ShearFunction.edges": _TRACER,
    "farey.IntegerMoebius.compose": _TRACER,
    "torus.edge_class": "ROADMAP item 1 reuses its rule: "
        "test_torus.py::test_edge_class_is_the_tree_recursion",
}


def _functions(path: Path, module: str) -> dict:
    """(file, first line) -> dotted name of every def in one module, its
    first line the first decorator's where it has any, as co_firstlineno
    counts it."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[str(path), first] = name
                visit(child, name)
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), module)
    return found


def test_every_function_is_reached(tmp_path):
    """Every function in src/ is run by a command, a failing input or a
    demo, or stays for a reason listed in UNREACHED, which holds no
    function the census reaches and no name that is gone."""
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "shearfield"
    functions = {}
    for path in sorted(package.glob("*.py")):
        module = "shearfield" if path.stem == "__init__" else path.stem
        functions.update(_functions(path, module))
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", CENSUS, str(root), str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=root, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reached = {functions.get(tuple(key)) for key in json.loads(proc.stdout)}
    unreached = {name for name in functions.values() if name not in reached}
    assert sorted(unreached) == sorted(UNREACHED)
    for name, reason in UNREACHED.items():
        for path, func in re.findall(r"(\w+\.py)::(\w+)", reason):
            text = (root / "tests" / path).read_text()
            assert f"def {func}(" in text, reason
            assert re.search(rf"\b{name.rsplit('.', 1)[1]}\b", text), name


def test_left_sum_adds_left_to_right_uncompensated():
    """left_sum rounds after every addition, start first: 1e16 + 1.0
    rounds back to 1e16, where a compensated sum keeps the 1.0."""
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    # (1.0 + 1e16) - 1e16; added last, the start would give 1.0
    assert left_sum([1e16, -1e16], 1.0) == 0.0
    empty = left_sum([], 0j)
    assert empty == 0j and isinstance(empty, complex)


def test_no_builtin_sum_in_the_package():
    """Every float sum in the package goes through farey.left_sum: from
    Python 3.12 on, sum() compensates its float additions, and math.fsum
    always does, which would change printed bits.  So no module calls
    sum or fsum at all."""
    package = Path(__file__).resolve().parent.parent / "src" / "shearfield"
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Name)
                  and node.func.id in ("sum", "fsum")
                  or isinstance(node.func, ast.Attribute)
                  and node.func.attr == "fsum")]
    assert calls == []


def test_no_module_imports_typing():
    """No package module imports typing: the term lists are plain tuples
    and the value classes are farey.Value subclasses, so a process that
    loads the package does not pay for typing's import."""
    package = Path(__file__).resolve().parent.parent / "src" / "shearfield"
    imports = [f"{path.name}:{node.lineno}"
               for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Import)
               and any(a.name.split(".")[0] == "typing" for a in node.names)
               or isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "typing"]
    assert imports == []


# instance, its field tuple, its repr (as the dataclasses printed them)
VALUES = [
    (ExtRational(1, 2), (1, 2), "1/2"),
    (FareyEdge(ZERO, ONE), (ZERO, ONE), "FareyEdge(initial=0, terminal=1)"),
    (IntegerMoebius(2, 1, 1, 1), (2, 1, 1, 1),
     "IntegerMoebius(a=2, b=1, c=1, d=1)"),
    (CircleArc(0.5, 1.5), (0.5, 1.5), "CircleArc(phi0=0.5, phi1=1.5)"),
    (edge_quadrilateral(oriented_edge(ZERO, ONE)),
     (ExtRational(1, 0), ZERO, ExtRational(1, 2), ONE),
     "Quadrilateral(a=oo, b=0, c=1/2, d=1)"),
    (ZygmundReport(2.0, (ONE, 1, 2)), (2.0, (ONE, 1, 2)),
     "ZygmundReport(sup_value=2.0, witness=(1, 1, 2))"),
]


@pytest.mark.parametrize("value, fields, text", VALUES,
                         ids=[type(v[0]).__name__ for v in VALUES])
def test_value_class_equality_hash_repr(value, fields, text):
    cls = type(value)
    twin = cls(*fields)
    assert twin == value and not twin != value
    assert value != fields and not value == fields
    assert repr(value) == text
    if cls is ZygmundReport:          # mutable, so unhashable as before
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(fields)


def test_value_classes_with_equal_fields_differ_across_classes():
    assert IntegerMoebius(1, 2, 3, 7) != Quadrilateral(1, 2, 3, 7)
    assert CircleArc(0.5, 1.5) != ZygmundReport(0.5, 1.5)
    assert len({ExtRational(1, 2), (1, 2)}) == 2


_FIELD = FieldExpr([(1.0, (0.0, 1.0))])


@pytest.mark.parametrize("make, error, message", [
    (lambda: IntegerMoebius(1, 1, 1, 1), ValueError,
     "integer Moebius map must have determinant 1"),
    (lambda: FareyEdge(ZERO, ExtRational(2)), ValueError,
     "0 and 2 are not Farey-adjacent"),
    (lambda: FareyEdge((0, 1), (1, 1)), TypeError,
     "FareyEdge endpoints must be ExtRational"),
    (lambda: CircleArc(1.0, 0.5), ValueError,
     "need 0 <= phi0 < phi1 <= 2*pi"),
    (lambda: CircleArc(0.0, 2 * math.pi), ValueError, "arc must be proper"),
    (lambda: Quadrilateral(1.0, 0.0, -1.0, math.inf), ValueError,
     "vertices are not in counterclockwise order (a, b, c, d)"),
    (lambda: Quadrilateral(-math.inf, 0.0, 1.0, math.inf), ValueError,
     "at most one vertex may be infinite"),
    (lambda: tail_bound(0), ValueError, "tail index must be >= 1"),
    (lambda: averaged_coefficient_sum({0: 1.0}, 0, 0), ValueError,
     "window k must be >= 1"),
    (lambda: zygmund_quotient_sup(_FIELD, [0.5], [0.0]), ValueError,
     "offsets t must be positive"),
    (lambda: normalize_at(_FIELD, math.inf, 1.0, -math.inf), ValueError,
     "at most one normalization point may be infinite"),
    (lambda: closed_hilbert_field(_FIELD.plus_quad((1.0, 0.0, 0.0))),
     ValueError, "closed-form transform is defined for fields with zero "
     "quadratic part; normalize first"),
    (lambda: delta_weight_hyperbolic(
        (-1.0, 1.0), edge_quadrilateral(oriented_edge(ZERO, INFINITY))),
     ValueError, "edge crosses the diagonal; use the bracket route"),
    (lambda: fan_index(ZERO, ExtRational(2, 3)), ValueError,
     "2/3 is not adjacent to 0"),
])
def test_value_class_validation(make, error, message):
    """Each value class's and library function's check of its arguments
    raises its error with its message, the library checks among them that
    no command reaches."""
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message
