"""The lazy package root and the package's value classes."""

import ast
import importlib
import math
import re
from pathlib import Path

import pytest

import shearfield
from shearfield.farey import (ExtRational, FareyEdge, IntegerMoebius, ONE,
                              ZERO, left_sum, oriented_edge)
from shearfield.fields import ZygmundReport
from shearfield.fourier import CircleArc
from shearfield.hilbert import Quadrilateral, edge_quadrilateral

# the names `shearfield` exports, by the module that defines them
EXPORTS = {
    "farey": ["ExtRational", "FareyEdge", "IntegerMoebius", "INFINITY",
              "enumerate_vertices", "fan_edges", "fan_index", "fan_moebius",
              "farey_order", "in_ccw_arc", "mediant", "oriented_edge"],
    "fields": ["FieldExpr", "ShearFunction", "assemble_field", "edge_ends",
               "elementary_eval", "fan_field_eval", "halved_terms",
               "normalize_at", "tail_bound", "tip_field",
               "zygmund_condition_sup", "zygmund_quotient_sup"],
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
    "tip_field": "test_halved_terms.py::test_term_list_matches_per_tip_sums",
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
])
def test_value_class_validation(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message
