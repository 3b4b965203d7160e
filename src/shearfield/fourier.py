"""Circle-model elementary fields and their Fourier coefficients.

On the unit circle, the elementary shear field of a boundary arc
(phi0, phi1) is

    V(z) = (z - e^{i phi0})(z - e^{i phi1}) / (e^{i phi0} - e^{i phi1})

on the open arc and 0 elsewhere, treated verbatim as a complex-valued
function of z.  Its n-th coefficient in the plain exponential basis
(1/2pi) Integral V(e^{i phi}) e^{-i n phi} d phi has a closed form whose
three frequency factors degenerate at n = 2, 1, 0 into arc lengths; the
quadrature oracle below integrates the defining formula directly.

Tessellation edges are carried to arcs by the boundary Cayley map sending
0, 1, oo to 1, i, -1; an edge's support arc is the image of its half-plane
support, which never wraps through angle 0 thanks to the canonical edge
orientation.
"""

from __future__ import annotations

import cmath
import math

from .fields import edge_ends
from .moebius import cayley_angle

TWO_PI = 2.0 * math.pi


class CircleArc:
    """Boundary arc 0 <= phi0 < phi1 <= 2*pi (proper: phi1 - phi0 < 2*pi).

    Equal only to a CircleArc with the same (phi0, phi1), and hashed as
    that pair."""

    __slots__ = ("phi0", "phi1")

    def __init__(self, phi0: float, phi1: float):
        if not (0.0 <= phi0 < phi1 <= TWO_PI):
            raise ValueError("need 0 <= phi0 < phi1 <= 2*pi")
        if phi1 - phi0 >= TWO_PI:
            raise ValueError("arc must be proper")
        self.phi0 = phi0
        self.phi1 = phi1

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.phi0, self.phi1) == (other.phi0, other.phi1)
        return NotImplemented

    def __hash__(self):
        return hash((self.phi0, self.phi1))

    def __repr__(self) -> str:
        return f"CircleArc(phi0={self.phi0!r}, phi1={self.phi1!r})"


def _angles(arc) -> tuple[float, float]:
    if isinstance(arc, CircleArc):
        return arc.phi0, arc.phi1
    phi0, phi1 = arc
    return float(phi0), float(phi1)


def circle_elementary_eval(arc, z: complex) -> complex:
    """Elementary circle field at a unit-modulus point (0 off the arc)."""
    phi0, phi1 = _angles(arc)
    arg = cmath.phase(z) % TWO_PI
    if not (phi0 < arg < phi1):
        return 0j
    w0, w1 = cmath.exp(1j * phi0), cmath.exp(1j * phi1)
    return (z - w0) * (z - w1) / (w0 - w1)


def _freq_factor(m: int, phi0: float, phi1: float) -> complex:
    """(e^{i m phi1} - e^{i m phi0}) / (i m), with limit phi1 - phi0 at m=0."""
    if m == 0:
        return complex(phi1 - phi0)
    return (cmath.exp(1j * m * phi1) - cmath.exp(1j * m * phi0)) / (1j * m)


def elementary_fourier(arc, n: int) -> complex:
    """Closed-form n-th coefficient of the elementary field of an arc.

    The three singular frequencies n = 2, 1, 0 take the exact limit of their
    respective factor (the arc length).  A degenerate arc (given as a raw
    pair with phi0 == phi1) has the zero field, hence coefficient 0.
    """
    phi0, phi1 = _angles(arc)
    if phi0 == phi1:
        return 0j
    w0, w1 = cmath.exp(1j * phi0), cmath.exp(1j * phi1)
    bracket = (_freq_factor(2 - n, phi0, phi1)
               - (w0 + w1) * _freq_factor(1 - n, phi0, phi1)
               + w0 * w1 * _freq_factor(-n, phi0, phi1))
    return bracket / (TWO_PI * (w0 - w1))


def fourier_quadrature_oracle(V, n: int, breakpoints=()) -> complex:
    """(1/2pi) Integral_0^{2pi} V(e^{i phi}) e^{-i n phi} d phi by adaptive
    quadrature of the complex integrand, splitting at the provided arc
    endpoints."""
    from .quadrature import quad    # on first use: other commands never load it

    cuts = sorted({0.0, TWO_PI} | {float(b) % TWO_PI for b in breakpoints})

    def integrand(phis: list) -> list:
        return [V(cmath.exp(1j * phi)) * cmath.exp(-1j * n * phi)
                for phi in phis]

    total = 0j
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi <= lo:
            continue
        total += quad(integrand, lo, hi, 1e-13, 1e-13, limit=300)[0]
    return total / TWO_PI


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


def field_fourier(terms, n: int, arcs=None) -> complex:
    """n-th coefficient of the truncated field sum of a halved term list
    (see fields.halved_terms): closed-form arc coefficients summed in list
    order.  ``arcs``, when given, are the terms' support arcs
    (edge_to_arc of each term's ends), built once by a caller that asks
    for many n."""
    if arcs is None:
        arcs = [edge_to_arc(t.ends) for t in terms]
    total = 0j
    for t, arc in zip(terms, arcs):
        total += t.coef * elementary_fourier(arc, n)
    return total


def assemble_circle_field(terms):
    """Evaluable circle field of a halved term list, with its arc endpoints
    exposed for quadrature splitting."""
    pieces = [(t.coef, edge_to_arc(t.ends)) for t in terms]

    def V(z: complex) -> complex:
        return sum(c * circle_elementary_eval(arc, z) for c, arc in pieces)

    V.breakpoints = sorted({phi for _, arc in pieces
                            for phi in (arc.phi0, arc.phi1)})
    return V
