import cmath
import math

import numpy as np
import pytest

from shearfield.farey import (ExtRational, FareyEdge, INFINITY, ONE, ZERO,
                              enumerate_edges, oriented_edge)
from shearfield.fields import ShearFunction, halved_terms
from shearfield.fourier import (CircleArc, assemble_circle_field,
                                cayley_angle, circle_elementary_eval,
                                edge_to_arc, elementary_fourier,
                                field_fourier, fourier_coefficients,
                                fourier_quadrature_oracle)

RNG = np.random.default_rng(23)


def test_circle_arc_validation():
    with pytest.raises(ValueError):
        CircleArc(1.0, 0.5)
    with pytest.raises(ValueError):
        CircleArc(-0.1, 1.0)
    CircleArc(0.0, 2 * math.pi - 1e-9)


def test_circle_elementary_examples():
    arc = CircleArc(0.0, math.pi)
    assert circle_elementary_eval(arc, cmath.exp(1j * 2.0)) != 0
    assert circle_elementary_eval(arc, cmath.exp(1j * 4.0)) == 0
    assert circle_elementary_eval(arc, 1.0 + 0j) == 0          # endpoint
    assert circle_elementary_eval(arc, cmath.exp(0.5j * math.pi)) == \
        pytest.approx(-1.0)


def test_elementary_fourier_singular_branches():
    arc = CircleArc(0.4, 2.1)
    for n in (0, 1, 2):
        got = elementary_fourier(arc, n)
        want = fourier_quadrature_oracle(
            lambda z: circle_elementary_eval(arc, z), n,
            breakpoints=[arc.phi0, arc.phi1])
        assert got == pytest.approx(want, abs=1e-11)


def test_elementary_fourier_continuity_in_n():
    arc = CircleArc(0.7, 2.9)
    for n0 in (0, 1, 2):
        limit = elementary_fourier(arc, n0)
        lo = elementary_fourier(arc, n0 - 1e-6)
        hi = elementary_fourier(arc, n0 + 1e-6)
        assert abs(lo - limit) < 1e-5
        assert abs(hi - limit) < 1e-5


def test_elementary_fourier_vs_oracle_random():
    for _ in range(30):
        phi0, phi1 = np.sort(RNG.uniform(0, 2 * math.pi, 2))
        if phi1 - phi0 < 1e-3:
            continue
        arc = CircleArc(float(phi0), float(phi1))
        n = int(RNG.integers(-50, 51))
        got = elementary_fourier(arc, n)
        want = fourier_quadrature_oracle(
            lambda z: circle_elementary_eval(arc, z), n,
            breakpoints=[arc.phi0, arc.phi1])
        assert abs(got - want) < 1e-10


def test_oracle_trivials():
    assert fourier_quadrature_oracle(lambda z: 0j, 3) == 0
    assert fourier_quadrature_oracle(lambda z: 1.0 + 0j, 0) == \
        pytest.approx(1.0, abs=1e-12)
    assert fourier_quadrature_oracle(lambda z: 1.0 + 0j, 4) == \
        pytest.approx(0.0, abs=1e-12)


def test_cayley_angle_monotone_circular():
    xs = [-50.0, -2.0, -0.5, 0.0, 0.7, 3.0, 40.0]
    angles = [cayley_angle(x) for x in xs]
    assert angles[3] == 0.0
    assert cayley_angle(math.inf) == pytest.approx(math.pi)
    # increasing x sweeps counterclockwise: angles of positives increase,
    # negatives sit above pi
    assert 0 < angles[4] < angles[5] < angles[6] < math.pi
    assert math.pi < angles[0] < angles[1] < angles[2] < 2 * math.pi


def test_edge_to_arc_examples():
    arc = edge_to_arc(FareyEdge(ZERO, INFINITY))
    assert (arc.phi0, arc.phi1) == (0.0, math.pi)
    arc = edge_to_arc(FareyEdge(ZERO, ONE))
    assert (arc.phi0, arc.phi1) == (0.0, math.pi / 2)
    # canonical orientation of {0, oo} runs over the negative reals
    arc = edge_to_arc(oriented_edge(ZERO, INFINITY))
    assert (arc.phi0, arc.phi1) == (math.pi, 2 * math.pi)


def test_edge_to_arc_preserves_circular_order():
    from shearfield.farey import enumerate_edges
    for e in enumerate_edges(4):
        arc = edge_to_arc(e)
        assert 0.0 <= arc.phi0 < arc.phi1 <= 2 * math.pi
        # a point inside the support arc of the half-plane field maps into
        # the angular arc
        mid = cayley_angle(_arc_interior_point(e))
        if mid == 0.0:
            mid = 2 * math.pi
        assert arc.phi0 < mid < arc.phi1


def _arc_interior_point(e: FareyEdge) -> float:
    i, t = float(e.initial), float(e.terminal)
    if math.isinf(t):
        return i + 1.0
    if math.isinf(i):
        return t - 1.0
    return 0.5 * (i + t)


def test_field_fourier_zero():
    for n in range(-3, 4):
        assert field_fourier(halved_terms(ShearFunction(), 5, 10), n) == 0


def test_field_fourier_single_edge_bookkeeping():
    e = oriented_edge(ExtRational(1, 2), ONE)
    sdot = ShearFunction()
    sdot.set(e, 1.0)
    terms = halved_terms(sdot, 6, 10)
    for n in (-7, -1, 0, 1, 2, 3, 9):
        got = field_fourier(terms, n)
        want = elementary_fourier(edge_to_arc(e), n)
        assert got == pytest.approx(want, abs=1e-13)


def test_coefficient_range_matches_per_n_sums_bit_for_bit():
    """One pass over the terms with one exponential table per arc gives,
    bit for bit, the per-n sums of elementary_fourier over n in [-30, 40],
    a range that crosses the singular n = 0, 1, 2."""
    sdot = ShearFunction()
    for k, e in enumerate(enumerate_edges(6)[:60]):
        sdot.set(e, math.sin(k + 1.0))
    terms = halved_terms(sdot, 6, 20)
    ns = range(-30, 41)
    got = fourier_coefficients(terms, ns)
    assert len(got) == len(ns)
    for n, c in zip(ns, got):
        want = 0j
        for _, coef, ends in terms:
            want += coef * elementary_fourier(edge_to_arc(ends), n)
        assert (c.real.hex(), c.imag.hex()) == (want.real.hex(),
                                                want.imag.hex()), n
        assert field_fourier(terms, n) == c


def test_field_fourier_linearity():
    e1 = oriented_edge(ZERO, ONE)
    e2 = oriented_edge(ExtRational(1), ExtRational(2))
    s1, s2, s12 = ShearFunction(), ShearFunction(), ShearFunction()
    s1.set(e1, 0.8)
    s2.set(e2, -1.1)
    s12.set(e1, 0.8)
    s12.set(e2, -1.1)
    t1, t2, t12 = (halved_terms(s, 6, 10) for s in (s1, s2, s12))
    for n in (-4, 0, 2, 5):
        lhs = field_fourier(t12, n)
        rhs = field_fourier(t1, n) + field_fourier(t2, n)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_field_fourier_matches_assembled_oracle():
    sdot = ShearFunction()
    for e, v in [(oriented_edge(ZERO, ONE), 0.9),
                 (oriented_edge(ExtRational(1, 2), ONE), -0.4),
                 (oriented_edge(ExtRational(-1), ZERO), 1.2)]:
        sdot.set(e, v)
    terms = halved_terms(sdot, 6, 20)
    V = assemble_circle_field(terms)
    for n in (-3, 0, 2, 7):
        closed = field_fourier(terms, n)
        oracle = fourier_quadrature_oracle(V, n, breakpoints=V.breakpoints)
        assert abs(closed - oracle) < 1e-8


def test_partial_sums_cauchy_in_order():
    sdot = ShearFunction()
    from shearfield.farey import enumerate_edges
    edges = enumerate_edges(6)
    for e in edges[::5]:
        sdot.set(e, float(RNG.uniform(-1, 1)))
    n = 3
    partials = [field_fourier(halved_terms(sdot, k, 64), n)
                for k in range(1, 8)]
    increments = [abs(b - a) for a, b in zip(partials[:-1], partials[1:])]
    tail = [i for i in increments if i > 0]
    # increments eventually vanish (the support is exhausted)
    assert increments[-1] == 0.0 or increments[-1] <= min(increments[:3])
