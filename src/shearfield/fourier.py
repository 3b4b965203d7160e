"""Circle-model elementary fields and their Fourier coefficients.

On the unit circle, the elementary shear field of a boundary arc
(phi0, phi1) is

    V(z) = (z - e^{i phi0})(z - e^{i phi1}) / (e^{i phi0} - e^{i phi1})

on the open arc and 0 elsewhere, treated verbatim as a complex-valued
function of z.  Its n-th coefficient in the plain exponential basis
(1/2pi) Integral V(e^{i phi}) e^{-i n phi} d phi has a closed form whose
three frequency factors degenerate at n = 2, 1, 0 into arc lengths; the
quadrature oracle below integrates the defining formula directly.  A range
of n costs one exponential table per distinct endpoint angle: the factors
at m = 2 - n, 1 - n and -n are shared by neighbouring n, arcs that meet
share the exponentials of their common angle, and an edge's two halved
terms share one arc (fourier_coefficients).

Tessellation edges are carried to arcs by the boundary Cayley map sending
0, 1, oo to 1, i, -1; an edge's support arc is the image of its half-plane
support, which never wraps through angle 0 thanks to the canonical edge
orientation.
"""

from __future__ import annotations

import cmath
import math

from .farey import Value, left_sum
from .fields import edge_ends

TWO_PI = 2.0 * math.pi


class CircleArc(Value):
    """Boundary arc 0 <= phi0 < phi1 <= 2*pi (proper: phi1 - phi0 < 2*pi)."""

    __slots__ = ("phi0", "phi1")

    def __init__(self, phi0: float, phi1: float):
        if not (0.0 <= phi0 < phi1 <= TWO_PI):
            raise ValueError("need 0 <= phi0 < phi1 <= 2*pi")
        if phi1 - phi0 >= TWO_PI:
            raise ValueError("arc must be proper")
        self.phi0 = phi0
        self.phi1 = phi1


def circle_elementary_eval(arc: CircleArc, z: complex) -> complex:
    """Elementary circle field at a unit-modulus point (0 off the arc)."""
    phi0, phi1 = arc.phi0, arc.phi1
    arg = cmath.phase(z) % TWO_PI
    if not (phi0 < arg < phi1):
        return 0j
    w0, w1 = cmath.exp(1j * phi0), cmath.exp(1j * phi1)
    return (z - w0) * (z - w1) / (w0 - w1)


def _arc_fourier(arc: CircleArc, ns, tables: dict) -> list[complex]:
    """Closed-form coefficients of the elementary field of an arc at each n
    of the list ns.  Each m of {2 - n, 1 - n, -n} has the frequency factor
    (e^{i m phi1} - e^{i m phi0}) / (i m), with limit phi1 - phi0 at
    m = 0, which serves every n.  tables maps an angle phi to its
    {m: e^{i m phi}} over that m set and m = 1, the same ns in every call
    that shares it; it is filled on first use, so arcs that share an
    endpoint angle share its exponentials, the ends w0 = e^{i phi0} and
    w1 = e^{i phi1} among them."""
    phi0, phi1 = arc.phi0, arc.phi1
    ms = {k for n in ns for k in (2 - n, 1 - n, -n)}
    for phi in (phi0, phi1):
        if phi not in tables:
            tables[phi] = {m: cmath.exp(1j * m * phi) for m in {1, *ms}}
    E0, E1 = tables[phi0], tables[phi1]
    w0, w1 = E0[1], E1[1]
    s, p, d = w0 + w1, w0 * w1, TWO_PI * (w0 - w1)
    f = {m: (E1[m] - E0[m]) / (1j * m) if m != 0 else complex(phi1 - phi0)
         for m in ms}
    return [(f[2 - n] - s * f[1 - n] + p * f[-n]) / d for n in ns]


def elementary_fourier(arc: CircleArc, n: int) -> complex:
    """Closed-form n-th coefficient of the elementary field of an arc; at
    the singular frequencies n = 2, 1, 0 a factor takes its exact limit,
    the arc length."""
    return _arc_fourier(arc, [n], {})[0]


def fourier_quadrature_oracle(V, n: int, breakpoints=()) -> complex:
    """(1/2pi) Integral_0^{2pi} V(e^{i phi}) e^{-i n phi} d phi by adaptive
    quadrature of the complex integrand, splitting at the provided arc
    endpoints."""
    from .quadrature import quad    # on first use: other commands never load it

    cuts = sorted({0.0, TWO_PI} | {float(b) % TWO_PI for b in breakpoints})

    def integrand(phis: list) -> list:
        return [V(cmath.exp(1j * phi)) * cmath.exp(-1j * n * phi)
                for phi in phis]

    return left_sum((quad(integrand, lo, hi, 1e-13, limit=300)[0]
                     for lo, hi in zip(cuts[:-1], cuts[1:])), 0j) / TWO_PI


def cayley_angle(x) -> float:
    """Argument in [0, 2*pi) of the Cayley image (1 + ix)/(1 - ix) of an
    extended real."""
    x = float(x)
    if math.isinf(x):
        return math.pi
    phi = 2.0 * math.atan(x)
    return phi if phi >= 0 else phi + TWO_PI


def edge_to_arc(edge) -> CircleArc:
    """Support arc of an edge's elementary field under the Cayley map; the
    edge is a canonically oriented FareyEdge or its ends.

    The initial endpoint maps to phi0 and the terminal one to phi1, with the
    angle of the point 0 read as 2*pi when it closes an arc from the
    negative reals; canonical orientations always give phi0 < phi1.
    """
    phi0, phi1 = map(cayley_angle, edge_ends(edge))
    if phi1 == 0.0:
        phi1 = TWO_PI
    return CircleArc(phi0, phi1)


def fourier_coefficients(terms, ns) -> list[complex]:
    """Coefficients at each n of ns (a list or range) of the truncated field
    sum of a halved term list (see fields.halved_terms), in one pass over
    the terms.  Each distinct arc is read once (see _arc_fourier), and its
    coefficients serve every term with its ends, as an edge's two halved
    terms share them; each distinct endpoint angle takes one exponential
    table, which every arc ending there reads.  The terms' products are
    summed in list order."""
    totals, arcs, tables = [0j] * len(ns), {}, {}
    for _, coef, ends in terms:
        cs = arcs.get(ends)
        if cs is None:
            cs = arcs[ends] = _arc_fourier(edge_to_arc(ends), ns, tables)
        totals = [total + coef * c for total, c in zip(totals, cs)]
    return totals


def field_fourier(terms, n: int) -> complex:
    """n-th coefficient of the truncated field sum of a halved term list."""
    return fourier_coefficients(terms, [n])[0]


def assemble_circle_field(terms):
    """Evaluable circle field of a halved term list, with its arc endpoints
    exposed for quadrature splitting."""
    pieces = [(coef, edge_to_arc(ends)) for _, coef, ends in terms]

    def V(z: complex) -> complex:
        return left_sum((c * circle_elementary_eval(arc, z)
                         for c, arc in pieces), 0j)

    V.breakpoints = sorted({phi for _, arc in pieces
                            for phi in (arc.phi0, arc.phi1)})
    return V
