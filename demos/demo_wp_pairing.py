#!/usr/bin/env python3
"""Weil-Petersson pairing on the once-punctured torus.

The torus quotient of the tessellation has three edges and one cusp;
tangent vectors are shear triples summing to zero.  The pairing is twice
the corner form applied against the transformed shears, summed over lifted
edges by word length in the covering group.  The Gram matrix on the
standard basis of the cusp subspace plateaus in the depth and is positive
definite.
"""

import numpy as np

from shearfield import (cusp_condition_check, lift_edges, thurston_form,
                        wp_gram, wp_pairing)
from shearfield.torus import EDGES

print("quotient edges (fundamental representatives):")
for j, e in enumerate(EDGES):
    print(f"  class {j}: {e.initial} -> {e.terminal}")

print("\nlifted edge counts by word length:",
      [len(lift_edges(d)) for d in range(4)])

t1 = (1.0, -1.0, 0.0)
t2 = (0.0, 1.0, -1.0)
print(f"\ncusp condition holds for both basis vectors: "
      f"{cusp_condition_check(t1)}, {cusp_condition_check(t2)}")
print(f"corner form i(t1, t2) = {thurston_form(t1, t2)} "
      f"(antisymmetric, nondegenerate on the cusp subspace)")

print("\npairing at increasing depth (plateau):")
pairing = wp_pairing(t1, t2, 6)
for d in range(2, 7):
    print(f"  depth {d}: g(t1, t2) = {pairing[d]:+.6f}")

out = wp_gram(6)[-1]
gram = np.array(out["gram"])
print("\nGram matrix at depth 6:")
print(np.array_str(gram, precision=6))
print("eigenvalues:", np.round(out["eigenvalues"], 6).tolist(),
      "(both positive)")
