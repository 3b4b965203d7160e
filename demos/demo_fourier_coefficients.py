#!/usr/bin/env python3
"""Fourier coefficients of a shear-built circle field, closed form vs quadrature."""

import numpy as np

from shearfield import (ExtRational, ShearFunction, edge_to_arc,
                        elementary_fourier, field_fourier,
                        fourier_quadrature_oracle, halved_terms, oriented_edge)
from shearfield.fourier import assemble_circle_field

e = oriented_edge(ExtRational(0), ExtRational(1))
arc = edge_to_arc(e)
print(f"edge {e.initial} -> {e.terminal} maps to the boundary arc "
      f"({arc.phi0:.4f}, {arc.phi1:.4f})")

print("\nits elementary coefficients (closed form), singular frequencies "
      "n = 0, 1, 2 via exact limits:")
for n in range(-3, 6):
    c = elementary_fourier(arc, n)
    print(f"  n = {n:+d}:  {c.real:+.8f} {c.imag:+.8f}i")

sdot = ShearFunction()
sdot.set(oriented_edge(ExtRational(0), ExtRational(1)), 1.0)
sdot.set(oriented_edge(ExtRational(1, 2), ExtRational(1)), -0.7)
sdot.set(oriented_edge(ExtRational(-1), ExtRational(0)), 0.4)

terms = halved_terms(sdot, max_order=6, N=30)
V = assemble_circle_field(terms)
print("\nassembled field: closed-form double sum vs quadrature of the "
      "defining integral:")
for n in (0, 1, 2, 3, 7, 15):
    closed = field_fourier(terms, n)
    oracle = fourier_quadrature_oracle(V, n, breakpoints=V.breakpoints)
    print(f"  n = {n:2d}: closed {closed:+.10f}  "
          f"|closed - quadrature| = {abs(closed - oracle):.2e}")

print("\ncoefficient decay:")
mags = [abs(field_fourier(terms, n)) for n in range(0, 40, 5)]
print("  |c_n| for n = 0, 5, ..., 35:", np.round(mags, 6).tolist())
