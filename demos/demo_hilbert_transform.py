#!/usr/bin/env python3
"""Closed-form Hilbert transforms against the principal-value oracle.

The transform of each elementary field has a closed form (normalized to
vanish at 0 and 1, growing like x log|x|).  The oracle integrates the
defining principal value with the kernel's poles subtracted by partial
fractions, and the tails exactly through inversion; agreement here is
~1e-16.  Applying the transform twice returns the negative of the field,
up to a trivial affine part.
"""

import numpy as np

from shearfield import (FieldExpr, closed_hilbert_field, elementary_hilbert,
                        hilbert_pv_oracle)
from shearfield.fields import normalize_at

ends = (2.0, 3.0)
V = FieldExpr([(1.0, ends)])

print(f"elementary field on (2, 3): closed form vs oracle")
for x in (0.5, 2.5, 3.7, 5.0, -1.2):
    c = elementary_hilbert(ends, x)
    o = hilbert_pv_oracle(V, x)
    print(f"  x = {x:+.2f}:  closed {c:+.10f}   oracle {o:+.10f}   "
          f"diff {abs(c - o):.2e}")

print("\ntwice the transform is minus the identity (mod affine):")
H1 = closed_hilbert_field(V)
h0 = hilbert_pv_oracle(H1, 0.0)
h1 = hilbert_pv_oracle(H1, 1.0)
for x in (2.2, 2.5, 2.8, 3.3):
    h2 = hilbert_pv_oracle(H1, x)
    renorm = h2 - (h0 + (h1 - h0) * x)
    print(f"  x = {x:.1f}:  H(H V) = {renorm:+.8f}   -V = {-V(x):+.8f}")

print("\nnormalization kills the trivial quadratic directions:")
W = normalize_at(FieldExpr([], quad=(1.0, -0.3, 0.2)), 0.0, 1.0, 2.0)
print("  quadratic normalized at three points -> ",
      [round(W(x), 15) for x in np.linspace(-1, 2, 4)])
