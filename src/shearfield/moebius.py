"""Real Moebius maps and the distance between half-plane geodesics.

Geodesics are named by their ideal endpoints on the extended real line;
vertical lines carry one endpoint at infinity.  The distance between two
geodesics is reduced to the normal form where the first geodesic is the
imaginary axis (0, oo): a disjoint second geodesic becomes a semicircle with
endpoints of one sign and

    cosh(dist) = (hi + lo) / (hi - lo),   lo, hi = sorted absolute endpoints,

while an intersecting one straddles 0.  This is the geometry of the
distance route to the edge weights, hilbert.delta_weight_hyperbolic.
"""

from __future__ import annotations

import math


class RealMoebius:
    """Orientation-preserving Moebius map x -> (a x + b)/(c x + d), ad - bc > 0.

    Equal only to a RealMoebius with the same entries, and hashed as the
    tuple (a, b, c, d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        if not a * d - b * c > 0:
            raise ValueError("RealMoebius requires positive determinant")
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.a, self.b, self.c, self.d)
                    == (other.a, other.b, other.c, other.d))
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return (f"RealMoebius(a={self.a!r}, b={self.b!r}, c={self.c!r}, "
                f"d={self.d!r})")

    def __call__(self, x) -> float:
        x = float(x)
        if math.isinf(x):
            return self.a / self.c if self.c != 0 else math.inf
        den = self.c * x + self.d
        if den == 0:
            return math.inf
        return (self.a * x + self.b) / den


class HalfPlaneGeodesic:
    """Unoriented geodesic named by two distinct extended-real endpoints.

    Equal only to a HalfPlaneGeodesic with the same (e1, e2) in that order,
    and hashed as that pair."""

    __slots__ = ("e1", "e2")

    def __init__(self, e1, e2):
        a, b = float(e1), float(e2)
        if a == b or (math.isinf(a) and math.isinf(b)):
            raise ValueError("geodesic endpoints must be distinct")
        self.e1 = e1
        self.e2 = e2

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.e1, self.e2) == (other.e1, other.e2)
        return NotImplemented

    def __hash__(self):
        return hash((self.e1, self.e2))

    def __repr__(self) -> str:
        return f"HalfPlaneGeodesic(e1={self.e1!r}, e2={self.e2!r})"

    def floats(self):
        return (float(self.e1), float(self.e2))


def _normalizing_map(u: float, v: float) -> RealMoebius:
    """An orientation-preserving map sending u to 0 and v to oo."""
    if math.isinf(u):
        return RealMoebius(0.0, -1.0, 1.0, -v)   # x -> -1/(x - v)
    if math.isinf(v):
        return RealMoebius(1.0, -u, 0.0, 1.0)    # x -> x - u
    if u < v:
        return RealMoebius(1.0, -u, -1.0, v)     # x -> (x-u)/(v-x), det v-u
    return RealMoebius(1.0, -u, 1.0, -v)         # x -> (x-u)/(x-v), det u-v


def geodesic_relation(g1: HalfPlaneGeodesic, g2: HalfPlaneGeodesic) -> str:
    """'disjoint', 'shared' (common endpoint) or 'intersect'."""
    a, b = g1.floats()
    c, d = g2.floats()
    if c in (a, b) or d in (a, b):
        return "shared"
    M = _normalizing_map(a, b)
    c2, d2 = M(c), M(d)
    if math.isinf(c2) or math.isinf(d2) or c2 == 0 or d2 == 0:
        return "shared"
    return "disjoint" if c2 * d2 > 0 else "intersect"


def geodesic_cosh_distance(g1: HalfPlaneGeodesic, g2: HalfPlaneGeodesic) -> float:
    """cosh of the distance along the common perpendicular; 1 for an
    asymptotic pair (shared endpoint), ValueError if the geodesics cross."""
    rel = geodesic_relation(g1, g2)
    if rel == "intersect":
        raise ValueError("geodesics intersect; no common perpendicular")
    if rel == "shared":
        return 1.0
    a, b = g1.floats()
    M = _normalizing_map(a, b)
    c, d = abs(M(g2.floats()[0])), abs(M(g2.floats()[1]))
    lo, hi = min(c, d), max(c, d)
    return (hi + lo) / (hi - lo)
