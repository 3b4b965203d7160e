"""Shear coordinates on the Farey tessellation and the analysis they carry.

The package turns finitely supported shear functions on tessellation edges
into evaluable vector fields on the boundary line, computes their Hilbert
transforms and Fourier coefficients in closed form (each pinned against an
independent numerical oracle), and assembles the Weil-Petersson pairing for
the once-punctured torus from invariant shear data.
"""

import importlib

__version__ = "0.1.0"

# Each exported name is imported from its module on first access (PEP 562),
# so `import shearfield` loads no submodule and a CLI process loads only
# the modules its subcommand runs.
_EXPORTS = {
    "farey": ("ExtRational", "FareyEdge", "IntegerMoebius", "INFINITY",
              "enumerate_vertices", "fan_edges", "fan_index", "fan_moebius",
              "farey_order", "in_ccw_arc", "mediant", "oriented_edge"),
    "fields": ("FieldExpr", "ShearFunction", "assemble_field", "edge_ends",
               "elementary_eval", "fan_field_eval", "halved_terms",
               "normalize_at", "tail_bound", "tip_field",
               "zygmund_condition_sup", "zygmund_quotient_sup"),
    "fourier": ("CircleArc", "circle_elementary_eval", "edge_to_arc",
                "elementary_fourier", "field_fourier",
                "fourier_quadrature_oracle"),
    "hilbert": ("Quadrilateral", "closed_hilbert_field", "delta_weight",
                "delta_weight_hyperbolic", "edge_quadrilateral",
                "elementary_hilbert", "hilbert_pv_oracle",
                "hilbert_series_eval", "hilbert_shear_series",
                "shear_recover"),
    "moebius": ("geodesic_cosh_distance",),
    "torus": ("cusp_condition_check", "lift_edges", "thurston_form",
              "wp_gram", "wp_pairing"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_OWNER})
