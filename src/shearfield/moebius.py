"""The distance between two geodesics of the upper half-plane.

A geodesic is named by its pair of ideal ends on the extended real line,
with infinity as math.inf of either sign.  Write each end in homogeneous
form, x as (x, 1) and infinity as (1, 0), and let [p, q] = p1 q2 - q1 p2.
For the geodesics {a, b} and {c, d} the distance along the common
perpendicular is the cross-ratio expression

    cosh(dist) = |[a,c][b,d] + [a,d][b,c]| / |[a,b][c,d]|.

They cross exactly when [a,c][b,d] and [a,d][b,c] have opposite signs, and
share an end when one of the two vanishes, where the expression is exactly
1.  This is the geometry of the distance route to the edge weights,
hilbert.delta_weight_hyperbolic.
"""

from __future__ import annotations

import math


def geodesic_cosh_distance(e, f) -> float:
    """cosh of the distance between the geodesics with end pairs e and f:
    exactly 1.0 for an asymptotic pair (a shared end); ValueError if the
    geodesics cross or a pair's two ends are equal."""
    (a1, a2), (b1, b2), (c1, c2), (d1, d2) = (
        (1.0, 0.0) if math.isinf(x) else (float(x), 1.0) for x in (*e, *f))
    ab = a1 * b2 - b1 * a2
    cd = c1 * d2 - d1 * c2
    if ab == 0 or cd == 0:
        raise ValueError("geodesic endpoints must be distinct")
    ac_bd = (a1 * c2 - c1 * a2) * (b1 * d2 - d1 * b2)
    ad_bc = (a1 * d2 - d1 * a2) * (b1 * c2 - c1 * b2)
    if ac_bd * ad_bc < 0:
        raise ValueError("geodesics intersect; no common perpendicular")
    return abs(ac_bd + ad_bc) / abs(ab * cd)
