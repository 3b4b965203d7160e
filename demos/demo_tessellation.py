#!/usr/bin/env python3
"""Walk the combinatorics: vertices by order, fans, and the maps between fans."""

from shearfield import (ExtRational, INFINITY, enumerate_vertices, fan_edges,
                        fan_moebius, farey_order, mediant)

print("Vertices by order (0 and oo first, then 1 and -1, then mediants):")
for v in enumerate_vertices(4):
    print(f"  {str(v):>6}  order {farey_order(v)}")

print()
print("Mediants build the next generation:")
print("  mediant(0, oo)  =", mediant(ExtRational(0), INFINITY))
print("  mediant(oo, 0)  =", mediant(INFINITY, ExtRational(0)))
print("  mediant(1/2, 1) =", mediant(ExtRational(1, 2), ExtRational(1)))

print()
p = ExtRational(1, 2)
print(f"The fan at {p}: e_0 leaves the tip, e_1 enters it,")
print("consecutive edges share the tip and their far endpoints are adjacent:")
for n, e in zip(range(-3, 4), fan_edges(p, -3, 3)):
    print(f"  e_{n:+d}: {e.initial} -> {e.terminal}")

B = fan_moebius(p)
print()
print(f"fan map for tip {p}: x -> ({B.a} x + {B.b}) / ({B.c} x + {B.d}),")
print(f"  sending oo -> {B(INFINITY)} and n -> n-th fan endpoint:",
      [str(B(ExtRational(n))) for n in range(-2, 3)])
