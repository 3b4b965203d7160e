"""Real Moebius maps and hyperbolic geometry of half-plane geodesics.

Geodesics are named by their ideal endpoints on the extended real line;
vertical lines carry one endpoint at infinity.  Distances and angles between
geodesics are reduced to the normal form where the first geodesic is the
imaginary axis (0, oo): a disjoint second geodesic becomes a semicircle with
endpoints of one sign and

    cosh(dist) = (hi + lo) / (hi - lo),   lo, hi = sorted absolute endpoints,

while an intersecting one straddles 0.
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

    def inverse(self) -> "RealMoebius":
        return RealMoebius(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "RealMoebius") -> "RealMoebius":
        return RealMoebius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def derivative(self, x: float) -> float:
        det = self.a * self.d - self.b * self.c
        return det / (self.c * x + self.d) ** 2


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


def cross_ratio(a, b, c, d) -> float:
    """(c - b)(d - a) / ((b - a)(d - c)), with exact limits at infinity."""
    pts = [float(x) for x in (a, b, c, d)]
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i] == pts[j]:
                raise ValueError("cross-ratio needs four distinct points")
    a, b, c, d = pts
    if math.isinf(a):
        return (c - b) / (d - c)            # (d-a)/(b-a) -> 1
    if math.isinf(b):
        return -(d - a) / (d - c)           # (c-b)/(b-a) -> -1
    if math.isinf(c):
        return -(d - a) / (b - a)           # (c-b)/(d-c) -> -1
    if math.isinf(d):
        return (c - b) / (b - a)            # (d-a)/(d-c) -> 1
    return (c - b) * (d - a) / ((b - a) * (d - c))


def cross_ratio_sym(a, b, c, d) -> float:
    """(c - a)(d - b) / ((d - a)(c - b)), the symmetric-quadruple convention."""
    pts = [float(x) for x in (a, b, c, d)]
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i] == pts[j]:
                raise ValueError("cross-ratio needs four distinct points")
    a, b, c, d = pts
    if math.isinf(a):
        return (d - b) / (c - b)
    if math.isinf(b):
        return (c - a) / (d - a)
    if math.isinf(c):
        return (d - b) / (d - a)
    if math.isinf(d):
        return (c - a) / (c - b)
    return (c - a) * (d - b) / ((d - a) * (c - b))


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


def geodesic_distance(g1: HalfPlaneGeodesic, g2: HalfPlaneGeodesic) -> float:
    """Hyperbolic distance between disjoint geodesics; 0 for a shared
    endpoint (the caller can distinguish that case via geodesic_relation)."""
    return math.acosh(max(1.0, geodesic_cosh_distance(g1, g2)))


def geodesic_angle(g1: HalfPlaneGeodesic, g2: HalfPlaneGeodesic) -> float:
    """Angle in (0, pi/2] between two crossing geodesics.

    The unsigned (acute) angle: with g1 normalized to the imaginary axis and
    g2 to a semicircle (c, d), c < 0 < d, this is arccos(|c + d| / (d - c)).
    A signed convention would require a preferred tangent direction, which
    nothing downstream relies on.
    """
    if geodesic_relation(g1, g2) != "intersect":
        raise ValueError("geodesics do not intersect")
    a, b = g1.floats()
    M = _normalizing_map(a, b)
    c, d = M(g2.floats()[0]), M(g2.floats()[1])
    c, d = min(c, d), max(c, d)
    return math.acos(abs(c + d) / (d - c))


def pushforward_field(B: RealMoebius, V):
    """Push a vector field forward: (B_* V)(x) = V(B^{-1} x) / (B^{-1})'(x).

    Returns a plain callable.  At x = B(oo) the pull-back argument is
    infinite; fields exposing a ``quad`` attribute (explicit quadratic part,
    sub-quadratic remainder) get the finite limit there, bare callables are
    refused because their growth class is unknowable.
    """
    Binv = B.inverse()
    pole = B(math.inf)

    def pushed(x):
        x = float(x)
        if math.isinf(x):
            raise ValueError("pushforward not evaluable at infinity")
        if not math.isinf(pole) and x == pole:
            quad = getattr(V, "quad", None)
            if quad is None:
                raise ValueError(
                    "pushforward at the image of oo needs a field with a "
                    "known quadratic part")
            a2 = quad[0]
            det = Binv.a * Binv.d - Binv.b * Binv.c
            return a2 * det / Binv.c ** 2
        y = Binv(x)
        return V(y) / Binv.derivative(x)

    return pushed


def cayley_to_disk(x) -> complex:
    """Boundary Cayley map sending 0, 1, oo to 1, i, -1 on the unit circle."""
    x = float(x)
    if math.isinf(x):
        return complex(-1.0, 0.0)
    return (1 + 1j * x) / (1 - 1j * x)


def cayley_angle(x) -> float:
    """Argument in [0, 2*pi) of the Cayley image of an extended real."""
    x = float(x)
    if math.isinf(x):
        return math.pi
    phi = 2.0 * math.atan(x)
    return phi if phi >= 0 else phi + 2.0 * math.pi
