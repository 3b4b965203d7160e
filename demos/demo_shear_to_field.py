#!/usr/bin/env python3
"""From a finite shear function to an evaluable vector field and back.

Builds a five-edge shear function, assembles the field as a sum of fan
contributions (halved shears, fans in increasing Farey order), samples it,
and recovers every input shear exactly through the four-point bracket.
"""

import numpy as np

from shearfield import (ExtRational, INFINITY, ShearFunction, assemble_field,
                        edge_quadrilateral, halved_terms, oriented_edge,
                        shear_recover, tail_bound, zygmund_condition_sup)

rng = np.random.default_rng(5)

edges = [
    oriented_edge(ExtRational(0), INFINITY),
    oriented_edge(ExtRational(0), ExtRational(1)),
    oriented_edge(ExtRational(1, 2), ExtRational(1)),
    oriented_edge(ExtRational(-1), ExtRational(0)),
    oriented_edge(ExtRational(2), ExtRational(3)),
]
values = rng.uniform(-1.5, 1.5, len(edges)).round(3)

sdot = ShearFunction()
for e, v in zip(edges, values):
    sdot.set(e, float(v))

print("shear data:")
for e, v in sdot:
    print(f"  edge {e.initial} -> {e.terminal}:  {v:+.3f}")

report = zygmund_condition_sup(sdot, sdot.support_tips(), K=12)
print(f"\nfan condition sup over windows k <= 12: {report.sup_value:.3f} "
      f"at (tip, m, k) = {report.witness}")

V = assemble_field(halved_terms(sdot, max_order=6, N=40))
print("\nfield samples (x, V(x)):")
for x in np.linspace(-1.5, 3.5, 11):
    print(f"  {x:+.2f}  {V(x):+.6f}")

print(f"\ntruncation by Farey order n carries the geometric tail bound, "
      f"e.g. unit-constant bound at n=7: {tail_bound(7):.2e}")

print("\nround trip through the recovery bracket:")
for e, v in zip(edges, values):
    got = shear_recover(V, edge_quadrilateral(e))
    print(f"  {str(e.initial):>4} -> {str(e.terminal):<4}: put {v:+.3f}, "
          f"recovered {got:+.12f}")
