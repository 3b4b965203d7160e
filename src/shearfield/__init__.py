"""Shear coordinates on the Farey tessellation and the analysis they carry.

The package turns finitely supported shear functions on tessellation edges
into evaluable vector fields on the boundary line, computes their Hilbert
transforms and Fourier coefficients in closed form (each pinned against an
independent numerical oracle), and assembles the Weil-Petersson pairing for
the once-punctured torus from invariant shear data.
"""

from .farey import (ExtRational, FareyEdge, IntegerMoebius, INFINITY,
                    apply_moebius, enumerate_vertices, fan_edge, fan_edges,
                    fan_index, fan_moebius, farey_order, farey_parents,
                    in_ccw_arc, mediant, oriented_edge)
from .fields import (FieldExpr, HalfTerm, ShearFunction, ZygmundReport,
                     assemble_field, edge_ends, elementary_eval,
                     fan_field_eval, halved_terms, normalize_at,
                     partial_sum_diag, qs_ratio, tail_bound, tip_field,
                     zygmund_condition_sup, zygmund_quotient_sup)
from .fourier import (CircleArc, circle_elementary_eval, edge_to_arc,
                      elementary_fourier, field_fourier,
                      fourier_quadrature_oracle)
from .hilbert import (Quadrilateral, closed_hilbert_field, delta_weight,
                      delta_weight_hyperbolic, edge_quadrilateral,
                      elementary_hilbert, hilbert_main_term,
                      hilbert_pv_oracle, hilbert_series_eval,
                      hilbert_shear_series, shear_recover)
from .moebius import (HalfPlaneGeodesic, RealMoebius, cayley_to_disk,
                      cross_ratio, cross_ratio_sym, geodesic_angle,
                      geodesic_distance, geodesic_relation, pushforward_field)
from .torus import (CoveringGroup, SurfaceTriangulation, TangentShear,
                    cusp_condition_check, invariant_hilbert_shear, lift_edges,
                    punctured_torus, thurston_form, wp_gram, wp_pairing)

__version__ = "0.1.0"
