#!/usr/bin/env python3
"""Edge weights: how one edge's shear feeds the transformed shear of another.

The weight is the four-point bracket of the (unnormalized) transform of one
elementary field over the quadrilateral of the target edge.  Away from
degenerate positions it equals a combination of sinh^2/cosh^2/log coth^2 of
half-distances between the edge and the quadrilateral's sides; when the
edge crosses the target's diagonal only the bracket applies.  The
transformed shear function is then a fan-ordered double sum of weights.
"""

import math

from shearfield import (ExtRational, Quadrilateral, ShearFunction,
                        delta_weight, delta_weight_hyperbolic,
                        edge_quadrilateral, halved_terms,
                        hilbert_shear_series, oriented_edge)

target = oriented_edge(ExtRational(0), ExtRational(1))
Q = edge_quadrilateral(target)
print(f"target edge {target.initial} -> {target.terminal}, quadrilateral "
      f"(a, b, c, d) = {Q.points()}")

print("\nweights of nearby edges on the target (bracket vs distance route):")
for other in [oriented_edge(ExtRational(1), ExtRational(2)),
              oriented_edge(ExtRational(1, 3), ExtRational(1, 2)),
              oriented_edge(ExtRational(-1), ExtRational(0)),
              oriented_edge(ExtRational(2), ExtRational(3))]:
    br = delta_weight(other, Q)
    try:
        hy = delta_weight_hyperbolic(other, Q)
        note = f"distance route {hy:+.12f}"
    except ValueError as exc:
        note = f"distance route refused: {exc}"
    print(f"  {str(other.initial):>4} -> {str(other.terminal):<4} "
          f"bracket {br:+.12f}   {note}")

print("\nan edge crossing the diagonal keeps only the bracket:")
crossing = Quadrilateral(-1.0, 0.0, 2.0, float("inf"))
w = delta_weight((0.0, float("inf")), crossing)
print(f"  weight of (0, oo) over (-1, 0, 2, oo): {w:.12f} "
      f"(= log 2 = {math.log(2):.12f})")

print("\ntransformed shear of the target under a two-edge shear function,")
print("with the truncated double sum plateauing in the order cutoff:")
sdot = ShearFunction()
sdot.set(oriented_edge(ExtRational(1), ExtRational(2)), 1.0)
sdot.set(oriented_edge(ExtRational(1, 3), ExtRational(1, 2)), -0.5)
partials = hilbert_shear_series(halved_terms(sdot, 7, 40), target, 7)
for n in range(2, 8):
    print(f"  max order {n}: {partials[n - 1]:+.10f}")
